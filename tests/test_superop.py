import math
import pickle

import numpy as np
import pytest

from hsdecomp import (
    InputError,
    LRSum,
    LRTerm,
    NotSelfadjointError,
    NumericalError,
    PositivityClass,
    adjoint,
    apply_superop,
    classify_superop,
    frob_inner,
    from_liouville,
    identity_superop,
    matrix_unit,
    reduce_terms,
    selfadjoint_decompose,
    to_liouville,
    transpose_dual,
    unvec,
    vec,
)
from hsdecomp import superop
from hsdecomp.posdecomp import counterexample_superop, diag_blocks, pd_decompose
from hsdecomp.superop import _MAX_LIOUVILLE_DIM, _independent_subset
from helpers import (
    count_calls,
    count_linalg,
    independent_subset_reference,
    kernel_disjoint_psd_family,
    liouville_by_action,
    psd_sum,
    random_hermitian,
    random_hermitian_liouville,
    random_lrsum,
    random_matrix,
    random_psd,
    rel_err,
    scale_law_corpus,
    to_liouville_reference,
)


def diagonal_unit_sum(d):
    """The PSD-singular fixture: sum of (E_nn, E_nn) over n."""
    return LRSum.from_pairs(
        [(matrix_unit(d, n, n), matrix_unit(d, n, n)) for n in range(1, d + 1)], d
    )


def test_apply_identity():
    rng = np.random.default_rng(0)
    eta = random_matrix(rng, 3)
    np.testing.assert_allclose(apply_superop(identity_superop(3), eta), eta)


def test_apply_annihilates_offdiagonal_unit():
    s = LRSum.from_pairs([(matrix_unit(2, 1, 1), matrix_unit(2, 1, 1))], 2)
    out = apply_superop(s, matrix_unit(2, 1, 2))
    np.testing.assert_allclose(out, np.zeros((2, 2)))


def test_apply_matches_liouville_action():
    rng = np.random.default_rng(1)
    s = random_lrsum(rng, 3, 3)
    m = to_liouville(s)
    for _ in range(5):
        eta = random_matrix(rng, 3)
        direct = apply_superop(s, eta)
        via_vec = unvec(m @ vec(eta), 3)
        assert rel_err(direct, via_vec) < 1e-12


def test_apply_dim_mismatch():
    with pytest.raises(InputError):
        apply_superop(identity_superop(2), np.eye(3))


def test_to_liouville_identity():
    np.testing.assert_allclose(to_liouville(identity_superop(2)), np.eye(4))


def test_to_liouville_rank_one():
    s = LRSum.from_pairs([(matrix_unit(2, 1, 1), matrix_unit(2, 1, 1))], 2)
    m = to_liouville(s)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(m, expected)


def test_to_liouville_matches_action_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        s = random_lrsum(rng, d, int(rng.integers(1, 4)))
        assert rel_err(to_liouville(s), liouville_by_action(s)) < 1e-12


def signed_zero_matrix(rng, d):
    """Entries drawn from +-0.0 and a few nonzero values in both parts."""
    z = np.empty((d, d), dtype=complex)
    z.real = rng.choice([-0.0, 0.0, 1.5, -2.0], size=(d, d))
    z.imag = rng.choice([-0.0, 0.0, -0.5], size=(d, d))
    return z


def liouville_corpus(rng):
    """d = 1..8 with 0, 1, 3, 65 and 130 terms at scales 1e-12..1e12, each also with a
    real-valued negative first term, and in transpose-dual and adjoint form (F-ordered
    factors); signed-zero factors; the signed decompositions of the counterexample; and
    the reduced, selfadjoint and signed sums of a pipeline operator."""
    for d in range(1, 9):
        for n, scale in zip((0, 1, 3, 65, 130), (1e-12, 1e12, 1.0, 1e-6, 1e6)):
            s = random_lrsum(rng, d, n, scale)
            real = scale * rng.standard_normal((d, d))
            signed = LRSum(d, (LRTerm(real, random_matrix(rng, d, scale), -1),) + s.terms)
            yield from (s, signed, transpose_dual(signed), adjoint(signed))
        zeros = [(signed_zero_matrix(rng, d), signed_zero_matrix(rng, d)) for _ in range(3)]
        yield LRSum(d, (LRTerm(*zeros[0], -1),) + tuple(LRTerm(a, b) for a, b in zeros[1:]))
    for t in (0.1, 0.25, 0.4):
        yield pd_decompose(counterexample_superop(t))[0]
    s = psd_sum(rng, 8, 64)
    yield from (s, reduce_terms(s), selfadjoint_decompose(s), pd_decompose(s)[0])


def test_to_liouville_matches_kron_reference_bitwise():
    """The same bytes as the np.kron loop. The corpus holds products that are -0.0, which
    a sum started from them instead of from zeros would keep. Folding a sign as -a instead
    of -1 * a changes only signed zeros, which a sum started from +0.0 never keeps."""
    count = negative_zero_products = 0
    for s in liouville_corpus(np.random.default_rng(64)):
        got, ref = to_liouville(s), to_liouville_reference(s)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes(), count
        for t in s.terms:
            kron = np.kron(t.b.T, t.a).view(float)
            negative_zero_products += np.count_nonzero((kron == 0) & np.signbit(kron))
        count += 1
    assert count == 8 * (5 * 4 + 1) + 3 + 4
    assert negative_zero_products > 0


def test_to_liouville_refuses_a_dim_above_the_size_limit():
    """The check comes before the two d^4 buffers: at 10^30 numpy could not allocate them."""
    assert _MAX_LIOUVILLE_DIM == 32
    for dim in (33, 100000, 10**30):
        s = LRSum(dim, ())
        with pytest.raises(InputError, match=rf"^dim {dim} exceeds the Liouville size limit 32$"):
            to_liouville(s)
        assert not s._derived
    assert to_liouville(identity_superop(8)).shape == (64, 64)


def test_to_liouville_makes_no_kron_call(monkeypatch):
    rng = np.random.default_rng(65)
    s = LRSum(3, (LRTerm(random_matrix(rng, 3), random_matrix(rng, 3), -1),)
              + random_lrsum(rng, 3, 3).terms)
    ref = to_liouville_reference(s)

    def no_kron(*args, **kwargs):
        raise AssertionError("to_liouville called np.kron")
    monkeypatch.setattr(np, "kron", no_kron)
    assert to_liouville(s).tobytes() == ref.tobytes()


@pytest.mark.parametrize("variant", ["left", "right"])
def test_from_liouville_round_trip(variant):
    rng = np.random.default_rng(3)
    for d in (2, 3, 4, 5):
        m = random_matrix(rng, d * d)
        s = from_liouville(m, variant)
        assert len(s) <= d * d
        assert rel_err(to_liouville(s), m) <= 1e-10


def test_from_liouville_left_units_on_left():
    rng = np.random.default_rng(4)
    m = random_matrix(rng, 9)
    s = from_liouville(m, "left")
    for t in s.terms:
        assert np.count_nonzero(t.a) == 1 and np.sum(t.a) == 1


def test_from_liouville_right_units_on_right():
    rng = np.random.default_rng(5)
    m = random_matrix(rng, 9)
    s = from_liouville(m, "right")
    for t in s.terms:
        assert np.count_nonzero(t.b) == 1 and np.sum(t.b) == 1


def test_from_liouville_identity_blocks():
    s = from_liouville(np.eye(4), "left")
    # only the diagonal pairs survive, each with identity coefficient
    assert len(s) == 2
    for t in s.terms:
        np.testing.assert_allclose(t.b, np.eye(2))


def test_from_liouville_single_term_compresses():
    rng = np.random.default_rng(6)
    a, b = random_matrix(rng, 3), random_matrix(rng, 3)
    m = to_liouville(LRSum.from_pairs([(a, b)]))
    s = from_liouville(m, "left")
    assert len(s) <= 9
    assert rel_err(to_liouville(s), m) <= 1e-10


def test_from_liouville_zero():
    s = from_liouville(np.zeros((9, 9)), "left")
    assert len(s) == 0
    np.testing.assert_allclose(apply_superop(s, np.eye(3)), np.zeros((3, 3)))


def test_from_liouville_bad_size():
    with pytest.raises(InputError):
        from_liouville(np.zeros((5, 5)))
    with pytest.raises(InputError):
        from_liouville(np.zeros((4, 4)), "middle")


def test_from_liouville_validates_its_matrix_once(monkeypatch):
    """left_blocks validates the Liouville matrix and from_liouville then checks the variant:
    one as_square_matrix call on the matrix and one per emitted factor, one size check, and
    the errors in the order matrix, size, variant."""
    m = to_liouville(counterexample_superop(0.25))
    calls = count_calls(monkeypatch, [(superop, "as_square_matrix"), (superop, "_liouville_dim")])
    s = from_liouville(m)
    assert calls == {"as_square_matrix": 1 + 2 * len(s), "_liouville_dim": 1}
    for bad, message in [([[np.nan]], "^liouville: entries must be finite$"),
                         (np.zeros((5, 5)), "^Liouville matrix size 5 is not a perfect square$"),
                         (np.eye(4), "^variant must be 'left' or 'right', got 'middle'$")]:
        with pytest.raises(InputError, match=message):
            from_liouville(bad, "middle")


def test_adjoint_examples():
    s = identity_superop(2)
    np.testing.assert_allclose(to_liouville(adjoint(s)), np.eye(4))
    s2 = LRSum.from_pairs([(matrix_unit(2, 1, 2), matrix_unit(2, 1, 2))], 2)
    adj = adjoint(s2)
    np.testing.assert_array_equal(adj.terms[0].a, matrix_unit(2, 2, 1))
    np.testing.assert_array_equal(adj.terms[0].b, matrix_unit(2, 2, 1))


def test_adjoint_inner_product_identity():
    rng = np.random.default_rng(7)
    s = random_lrsum(rng, 3, 4)
    s_adj = adjoint(s)
    for _ in range(10):
        rho, eta = random_matrix(rng, 3), random_matrix(rng, 3)
        lhs = frob_inner(apply_superop(s, rho), eta)
        rhs = frob_inner(rho, apply_superop(s_adj, eta))
        assert abs(lhs - rhs) < 1e-12


def test_adjoint_is_conjugate_transpose_and_involution():
    rng = np.random.default_rng(8)
    for _ in range(10):
        s = random_lrsum(rng, 3, 3)
        m = to_liouville(s)
        np.testing.assert_allclose(to_liouville(adjoint(s)), m.conj().T, atol=1e-12)
        np.testing.assert_array_equal(to_liouville(adjoint(adjoint(s))), m)


def test_transpose_dual_preserves_spectrum():
    rng = np.random.default_rng(9)
    s = random_lrsum(rng, 3, 3)
    m = to_liouville(s)
    md = to_liouville(transpose_dual(s))
    np.testing.assert_allclose(
        np.sort_complex(np.linalg.eigvals(md)), np.sort_complex(np.linalg.eigvals(m)), atol=1e-10
    )


def test_composition_homomorphism():
    rng = np.random.default_rng(10)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        s1, s2 = random_lrsum(rng, d, 2), random_lrsum(rng, d, 3)
        eta = random_matrix(rng, d)
        direct = apply_superop(s1, apply_superop(s2, eta))
        via = unvec(to_liouville(s1) @ to_liouville(s2) @ vec(eta), d)
        assert rel_err(direct, via) < 1e-11


def test_reduce_folds_dependent_left_factor():
    rng = np.random.default_rng(11)
    a, b, c = (random_matrix(rng, 3) for _ in range(3))
    s = LRSum.from_pairs([(a, b), (2 * a, c)])
    red = reduce_terms(s)
    assert len(red) == 1
    assert rel_err(to_liouville(red), to_liouville(s)) <= 1e-10


def test_reduce_keeps_independent_terms():
    rng = np.random.default_rng(12)
    s = random_lrsum(rng, 3, 2)
    red = reduce_terms(s)
    assert len(red) == 2
    assert rel_err(to_liouville(red), to_liouville(s)) <= 1e-10


def test_reduce_empty():
    s = LRSum(3, ())
    assert len(reduce_terms(s)) == 0


I2 = np.eye(2)


@pytest.mark.parametrize("pairs, message", [
    # the left factors are dependent, and folding 2 (1e308 I) into the kept right factor
    # overflows: the second pass then dropped the infinite factor, leaving 0 terms
    ([(1e-10 * I2, 1e308 * I2), (2e-10 * I2, 1e308 * I2)],
     "^a folded factor exceeds the float range$"),
    # sigma_max of the two stacked 1e308 I columns is 2e308: an infinite rank threshold
    # dropped every column
    ([(1e308 * I2, 1e-10 * I2), (1e308 * I2, 2e-10 * I2)],
     "^the singular values of a factor family exceed the float range$"),
], ids=["fold", "singular-values"])
def test_reduce_refuses_a_family_beyond_the_float_range(pairs, message):
    """The operator is 3e298 I (x) I, positive definite with a finite Liouville matrix, but its
    reduction leaves the float range: a NumericalError, not the zero operator, and no warning."""
    s = LRSum.from_pairs(pairs)
    assert classify_superop(s).kind is PositivityClass.POSITIVE_DEFINITE
    with pytest.raises(NumericalError, match=message):
        reduce_terms(s)


def test_reduce_output_families_independent():
    rng = np.random.default_rng(13)
    inputs = []
    for _ in range(10):
        d = 3
        base = random_lrsum(rng, d, 2)
        # append dependent copies on both sides
        extra = [
            (base.terms[0].a * 1.5 + base.terms[1].a, random_matrix(rng, d)),
            (random_matrix(rng, d), base.terms[0].b - 2 * base.terms[1].b),
        ]
        inputs.append(LRSum.from_pairs(list((t.a, t.b) for t in base.terms) + extra, d))
    # more terms than d^2: at most d^2 factors of a family can be independent
    inputs.append(random_lrsum(rng, 2, 6))
    for s in inputs:
        red = reduce_terms(s)
        assert rel_err(to_liouville(red), to_liouville(s)) <= 1e-9
        for side in ("a", "b"):
            stack = np.column_stack([vec(getattr(t, side)) for t in red.terms])
            svals = np.linalg.svd(stack, compute_uv=False)
            assert svals[-1] > 1e-9 * svals[0]
        assert len(red) == np.linalg.matrix_rank(
            np.column_stack([vec(t.a) for t in red.terms])
        )


def subset_corpus(rng, dims):
    """Seeded (columns, tol, near) inputs for the rank rule of ``_independent_subset``.

    Besides the empty input and an all-zero stack, there is one case per d in ``dims``, with
    d^2 rows and 1..2d^2+2 columns drawn from a random mix of kinds: fresh columns scaled
    by 1e-6, 1 or 1e6; zero columns; exact or scaled duplicates; combinations of earlier
    columns perturbed by 1e-11..1e-7 relative; and ``near`` columns, combinations plus
    a perturbation orthogonal to the earlier columns of 0.1..10 times tol * sigma_max.
    """
    def cvec(size):
        return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)

    yield [], 1e-9, []
    yield [np.zeros(4, dtype=complex)] * 3, 1e-9, []
    for d in dims:
        n = d * d
        tol = float(rng.choice([1e-9, 1e-6]))
        weights = rng.dirichlet(np.ones(5))
        cols, near, bumps = [], [], []
        for j in range(int(rng.integers(1, 2 * n + 3))):
            kind = int(rng.choice(5, p=weights)) if cols else 0
            if kind == 0:
                cols.append(cvec(n) * 10.0 ** rng.choice([-6, 0, 0, 6]))
                continue
            if kind == 1:
                cols.append(np.zeros(n, dtype=complex))
                continue
            picks = rng.choice(len(cols), size=min(len(cols), int(rng.integers(1, 4))),
                               replace=False)
            if kind == 2:
                scale = 1.0 if rng.random() < 0.5 else cvec(1)[0]
                cols.append(scale * cols[picks[0]])
                continue
            comb = sum(c * cols[i] for c, i in zip(cvec(len(picks)), picks))
            noise = cvec(n)
            if kind == 3:
                rel = 10.0 ** rng.uniform(-11, -7)
                cols.append(comb + rel * np.linalg.norm(comb) * noise / np.linalg.norm(noise))
                continue
            q = np.linalg.qr(np.column_stack(cols))[0]
            noise = noise - q @ (q.conj().T @ noise)
            cols.append(comb)
            if np.linalg.norm(noise) > 1e-8:
                near.append(j)
                bumps.append(10.0 ** rng.uniform(-1, 1) * noise / np.linalg.norm(noise))
        if near:
            smax = np.linalg.svd(np.column_stack(cols), compute_uv=False)[0]
            for j, bump in zip(near, bumps):
                cols[j] = cols[j] + tol * smax * bump
        yield cols, tol, near


def assert_same_subset(got, ref):
    """Same kept list and the same coefficient arrays, bit for bit and in the same key order."""
    assert got[0] == ref[0]
    assert list(got[1]) == list(ref[1])
    for j, sol in ref[1].items():
        assert got[1][j].dtype == sol.dtype and got[1][j].shape == sol.shape
        assert got[1][j].tobytes() == sol.tobytes(), j


def test_independent_subset_matches_reference():
    """The galloping block rule keeps the columns and returns the coefficient bits of
    the one-SVD-per-column rule; the near-threshold columns fall on both sides of the
    threshold, within 10x of it."""
    ratios = []
    dims = [1, 2, 3, 4] * 40 + [5, 6, 7, 8] * 6
    for cols, tol, near in subset_corpus(np.random.default_rng(61), dims):
        ref = independent_subset_reference(cols, tol)
        assert_same_subset(_independent_subset(cols, tol), ref)
        if near:
            stack = np.column_stack(cols)
            threshold = tol * np.linalg.svd(stack, compute_uv=False)[0]
            for j in near:
                before = [k for k in ref[0] if k < j]
                if before and len(before) < stack.shape[0]:
                    smin = np.linalg.svd(stack[:, before + [j]], compute_uv=False)[-1]
                    ratios.append(smin / threshold)
    ratios = np.array(ratios)
    assert np.count_nonzero((ratios > 0.1) & (ratios <= 1)) >= 50
    assert np.count_nonzero((ratios > 1) & (ratios < 10)) >= 50


def rank_reached_corpus(rng):
    """Seeded (columns, tol, rank) stacks that reach their rank before their last column.

    d^2 rows, rank r in 1..d^2-1. Before the rank is reached, r fresh columns (scaled by
    1e-2..1e2) are mixed with zero columns and exact duplicates; after it, a shuffled tail
    of duplicates, scaled duplicates, zero columns and near-threshold columns: small
    combinations of the fresh ones plus 0.5..0.95 times tol * sigma_max along mutually
    orthogonal directions outside their span, so sigma_{r+1} of the stack stays below the
    threshold while each near column's sigma_min test sits at 0.1..1 times it.
    """
    def cvec(size):
        return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)

    for d in [2, 3, 4] * 8:
        n = d * d
        r = int(rng.integers(1, n))
        tol = float(rng.choice([1e-9, 1e-6]))
        fresh = [cvec(n) * 10.0 ** rng.uniform(-2, 2) for _ in range(r)]
        head = []
        for col in fresh:
            while rng.random() < 0.3:
                head.append(np.zeros(n, dtype=complex) if rng.random() < 0.5 or not head
                            else head[int(rng.integers(len(head)))].copy())
            head.append(col)
        threshold = tol * np.linalg.svd(np.column_stack(head), compute_uv=False)[0]
        q = np.linalg.qr(np.column_stack(fresh + [cvec(n) for _ in range(n - r)]))[0]
        tail = []
        for k in range(n - r):
            comb = sum(c * col for c, col in zip(0.3 * cvec(r) / np.sqrt(r), fresh))
            tail.append(comb + rng.uniform(0.5, 0.95) * threshold * q[:, r + k])
        for _ in range(int(rng.integers(1, 6))):
            pick = fresh[int(rng.integers(r))]
            tail += [pick.copy(), cvec(1)[0] * pick, np.zeros(n, dtype=complex)]
        order = rng.permutation(len(tail))
        yield head + [tail[i] for i in order], tol, r


def test_independent_subset_takes_no_svd_once_the_rank_is_reached(monkeypatch):
    """After the first SVD, no rank test sees more columns than the stack's rank: every
    column after the rank is reached goes straight to its lstsq, with the kept list and
    coefficient bits of the one-SVD-per-column rule."""
    cases = list(rank_reached_corpus(np.random.default_rng(64)))
    refs = [independent_subset_reference(cols, tol) for cols, tol, _ in cases]
    ratios = []
    for (cols, tol, _), (kept, _) in zip(cases, refs):
        stack = np.column_stack(cols)
        threshold = tol * np.linalg.svd(stack, compute_uv=False)[0]
        for j in range(kept[-1] + 1, len(cols)):
            smin = np.linalg.svd(stack[:, kept + [j]], compute_uv=False)[-1]
            ratios.append(smin / threshold)
    assert np.count_nonzero((np.array(ratios) > 0.1) & (np.array(ratios) <= 1)) >= 100
    widths, svd = [], np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        widths.append(a.shape[1])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    for (cols, tol, r), ref in zip(cases, refs):
        widths.clear()
        got = _independent_subset(cols, tol)
        assert widths[0] == len(cols) and all(w <= r for w in widths[1:]), (r, widths)
        assert len(ref[0]) == r
        assert_same_subset(got, ref)


def test_independent_subset_full_column_rank_takes_one_svd(monkeypatch):
    """A stack of full column rank keeps every column on the one SVD of the whole stack."""
    rng = np.random.default_rng(65)
    counts = count_linalg(monkeypatch, "svd", "lstsq")
    for d, ncols in [(2, 1), (2, 4), (3, 5), (4, 16), (8, 40)]:
        cols = [random_matrix(rng, d, 10.0 ** rng.uniform(-3, 3)).reshape(-1)
                for _ in range(ncols)]
        counts.update(svd=0, lstsq=0)
        assert _independent_subset(cols, 1e-9) == (list(range(ncols)), {})
        assert counts == {"svd": 1, "lstsq": 0}


def test_reduce_terms_svd_count_d8(monkeypatch):
    """Counts, not wall time: a d = 8, 65-term I (x) I + PSD (x) PSD sum reduces with
    3 SVDs (one column at a time takes 128): the left pass's full stack and one block
    that reaches its rank, then the full-rank right pass; the last left column is
    folded by one lstsq."""
    s = psd_sum(np.random.default_rng(62), 8, 64)
    counts = count_linalg(monkeypatch, "svd", "lstsq")
    red = reduce_terms(s)
    assert counts["svd"] <= 3
    assert counts["lstsq"] == 1
    assert len(red) == 64
    assert rel_err(to_liouville(red), to_liouville(s)) <= 1e-9


def test_reduce_terms_svd_count_dependent_heavy(monkeypatch):
    """Counts: 40 copies of 3 matrices at d = 3 take 3 SVDs in all; once the 3 are kept
    every copy goes to its lstsq with no SVD, and is still folded into the 3 kept terms."""
    rng = np.random.default_rng(63)
    base = [random_matrix(rng, 3) for _ in range(3)]
    s = LRSum.from_pairs([(base[k % 3], random_matrix(rng, 3)) for k in range(120)], 3)
    counts = count_linalg(monkeypatch, "svd")
    red = reduce_terms(s)
    assert counts["svd"] <= 3
    assert len(red) == 3
    assert rel_err(to_liouville(red), to_liouville(s)) <= 1e-9


def test_signed_sum_agrees_with_folded_sum():
    rng = np.random.default_rng(14)
    signed, _ = pd_decompose(counterexample_superop(0.25))
    np.testing.assert_allclose(apply_superop(signed, np.eye(2)), 1.75 * np.eye(2), atol=1e-12)
    lead = LRTerm(random_matrix(rng, 3), random_matrix(rng, 3), -1)
    random_signed = LRSum(3, (lead,) + random_lrsum(rng, 3, 3).terms)
    for s in (signed, random_signed):
        folded = s.as_lrsum()
        assert s.has_negative and not folded.has_negative
        m = to_liouville(folded)
        assert rel_err(to_liouville(s), m) <= 1e-14
        eta = random_matrix(rng, s.dim)
        assert rel_err(apply_superop(s, eta), apply_superop(folded, eta)) <= 1e-14
        rep, rep_folded = classify_superop(s), classify_superop(folded)
        assert rep.kind is rep_folded.kind
        assert rep.lambda_min == pytest.approx(rep_folded.lambda_min, nan_ok=True)
        for op in (adjoint, transpose_dual, reduce_terms):
            assert rel_err(to_liouville(op(s)), to_liouville(op(folded))) <= 1e-12
        assert rel_err(to_liouville(adjoint(s)), m.conj().T) <= 1e-14


def test_selfadjoint_decompose_identity():
    s = selfadjoint_decompose(identity_superop(2))
    for t in s.terms:
        np.testing.assert_allclose(t.a, t.a.conj().T, atol=1e-12)
        np.testing.assert_allclose(t.b, t.b.conj().T, atol=1e-12)
    np.testing.assert_allclose(to_liouville(s), np.eye(4), atol=1e-12)


def test_selfadjoint_decompose_counterexample():
    s0 = counterexample_superop(0.25)
    s = selfadjoint_decompose(s0)
    for t in s.terms:
        assert np.linalg.norm(t.a - t.a.conj().T) < 1e-10
        assert np.linalg.norm(t.b - t.b.conj().T) < 1e-10
    assert rel_err(to_liouville(s), to_liouville(s0)) <= 1e-10


def test_selfadjoint_decompose_rejects_nonselfadjoint():
    s = LRSum.from_pairs([(matrix_unit(2, 1, 2), matrix_unit(2, 1, 2))], 2)
    with pytest.raises(NotSelfadjointError):
        selfadjoint_decompose(s)


@pytest.mark.parametrize("refuse", [selfadjoint_decompose, diag_blocks])
def test_non_selfadjoint_refusal_reports_a_norm_whose_square_overflows(refuse):
    # the Liouville matrix has one entry 1e160, so ||M||_F^2 = 1e320 overflows: the message
    # takes the norms without a warning, which pytest would raise
    a = 1e80 * matrix_unit(2, 1, 2)
    with pytest.raises(NotSelfadjointError) as info:
        refuse(LRSum.from_pairs([(a, a)]))
    assert str(info.value) == (
        "Liouville matrix is not Hermitian: defect 1.414e+160 exceeds tol * norm = 1.000e+151"
    )


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
def test_selfadjoint_decompose_refuses_bad_tol(tol):
    # the bad tol is reported before a Hermiticity verdict, whichever it would be
    non_selfadjoint = LRSum.from_pairs([(matrix_unit(2, 1, 2), matrix_unit(2, 1, 2))], 2)
    for s in (identity_superop(2), non_selfadjoint):
        with pytest.raises(InputError, match=f"^tol must be positive, got {tol}$"):
            selfadjoint_decompose(s, tol)


def test_selfadjoint_decompose_random():
    rng = np.random.default_rng(14)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        m = random_hermitian_liouville(rng, d)
        s = selfadjoint_decompose(from_liouville(m, "left"))
        for t in s.terms:
            assert np.linalg.norm(t.a - t.a.conj().T) <= 1e-10
            assert np.linalg.norm(t.b - t.b.conj().T) <= 1e-10 * max(
                1.0, np.linalg.norm(t.b)
            )
        assert rel_err(to_liouville(s), m) <= 1e-9


def test_classify_identity_superop():
    rep = classify_superop(identity_superop(2))
    assert rep.kind is PositivityClass.POSITIVE_DEFINITE
    assert rep.lambda_min == pytest.approx(1.0)


def test_classify_diagonal_unit_sum_is_psd_singular():
    rep = classify_superop(diagonal_unit_sum(2))
    assert rep.kind is PositivityClass.PSD_SINGULAR


def test_classify_counterexample():
    rep = classify_superop(counterexample_superop(0.25))
    assert rep.kind is PositivityClass.POSITIVE_DEFINITE
    assert rep.lambda_min == pytest.approx(0.25, abs=1e-12)


def test_hermitian_factors_give_hermitian_liouville():
    rng = np.random.default_rng(15)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        s = LRSum.from_pairs(
            [(random_hermitian(rng, d), random_hermitian(rng, d)) for _ in range(3)], d
        )
        m = to_liouville(s)
        assert np.linalg.norm(m - m.conj().T) <= 1e-12 * max(1.0, np.linalg.norm(m))


def test_psd_factors_give_psd_liouville():
    rng = np.random.default_rng(16)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 5))
        s = LRSum.from_pairs([(random_psd(rng, d), random_psd(rng, d)) for _ in range(n)], d)
        lo = np.linalg.eigvalsh(to_liouville(s))[0]
        assert lo >= -1e-10


@pytest.mark.parametrize("mirrored", [False, True])
def test_pd_plus_kernel_disjoint_gives_pd(mirrored):
    rng = np.random.default_rng(17 + mirrored)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 4))
        pd_side = [random_psd(rng, d) / d + 0.2 * np.eye(d) for _ in range(n)]
        psd_side = kernel_disjoint_psd_family(rng, d, n)
        pairs = zip(psd_side, pd_side) if mirrored else zip(pd_side, psd_side)
        s = LRSum.from_pairs(list(pairs), d)
        lo = np.linalg.eigvalsh(to_liouville(s))[0]
        assert lo > 0


def _frozen_copy(x):
    y = np.array(x, dtype=complex)
    y.setflags(write=False)
    return y


def test_lrterm_keeps_only_frozen_factors():
    """A term keeps a factor only when it is a contiguous, read-only complex128 array whose
    memory owner is a read-only ndarray, checked as every factor is; it copies every other."""
    rng = np.random.default_rng(16)
    x, y = random_matrix(rng, 3), random_matrix(rng, 3)
    frozen = _frozen_copy(x)
    term = LRTerm(frozen, frozen.T)
    assert term.a is frozen and term.b.base is frozen  # kept, F-ordered as the copy would be
    assert LRTerm(term.a, term.b).a is term.a
    # writable input: copied and made read-only; writing the input leaves the term as it was
    left, right = x.copy(), y.copy()
    term = LRTerm(left, right)
    assert not (term.a.flags.writeable or term.b.flags.writeable)
    left[0, 0] += 1.0
    right[0, 0] += 1.0
    assert np.array_equal(term.a, x) and np.array_equal(term.b, y)
    # a read-only view of a writable owner: copied, so the owner cannot change the term
    owner = x.copy()
    view = owner[:]
    view.setflags(write=False)
    term = LRTerm(view, y)
    assert not np.shares_memory(term.a, owner)
    owner[1, 2] = 7.0
    assert np.array_equal(term.a, x)
    # an owner that is not an ndarray (frombuffer of bytes): copied
    buffered = np.frombuffer(x.tobytes(), dtype=complex).reshape(3, 3)
    assert not buffered.flags.writeable
    assert LRTerm(buffered, y).a.base is None
    # a frozen matrix with a NaN: still refused
    bad = x.copy()
    bad[2, 0] = np.nan
    with pytest.raises(InputError, match="^a: entries must be finite$"):
        LRTerm(_frozen_copy(bad), y)
    with pytest.raises(InputError, match=r"^b: expected a square matrix, got shape \(3, 2\)$"):
        LRTerm(frozen, _frozen_copy(y[:, :2]))


def test_operator_equality_compares_values():
    s = random_lrsum(np.random.default_rng(15), 3, 4)
    eye = np.eye(2)
    assert identity_superop(2) == identity_superop(2)
    assert s == pickle.loads(pickle.dumps(s))
    assert s == LRSum(3, tuple(LRTerm(t.a.copy(), t.b.copy(), t.sign) for t in s.terms))
    nudged = s.terms[0].a.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0].real, np.inf) + 1j * nudged[0, 0].imag
    assert s != LRSum(3, (LRTerm(nudged, s.terms[0].b),) + s.terms[1:])
    assert s != LRSum(3, s.terms[:-1])
    assert LRTerm(eye, eye, -1) != LRTerm(eye, eye)
    assert identity_superop(2) != identity_superop(3)
    for other in (None, 1, "s", s.terms):
        assert (s == other) is False
        assert (s.terms[0] == other) is False
    for x in (s, s.terms[0]):
        with pytest.raises(TypeError):
            hash(x)


# Known issue 1: the eigenvalue threshold tol * max(1, ||T||_F) never falls below tol, so at
# small scales every lambda_min of these operators lies within it and reads PsdSingular.
_SCALE_LAW_CORPUS = scale_law_corpus(np.random.default_rng(7))
_SCALE_LAW_BREAKS = {
    ("pd-d1", -12), ("indefinite-d1", -12),
    ("pd-d2", -12), ("pd-d2", -9), ("indefinite-d2", -12), ("indefinite-d2", -9),
    ("pd-d3", -12), ("pd-d3", -9), ("indefinite-d3", -12),
    ("pd-d4", -12), ("indefinite-d4", -12), ("indefinite-d4", -9),
}


def _scale_law_cells():
    for name in _SCALE_LAW_CORPUS:
        for exponent in range(-12, 13, 3):
            marks = ()
            if (name, exponent) in _SCALE_LAW_BREAKS:
                marks = pytest.mark.xfail(
                    strict=True, reason="Known issue 1: the threshold floor breaks scale covariance"
                )
            yield pytest.param(name, exponent, marks=marks, id=f"{name}-1e{exponent}")


@pytest.mark.parametrize("name, exponent", _scale_law_cells())
def test_classify_superop_class_is_scale_invariant(name, exponent):
    s = _SCALE_LAW_CORPUS[name]
    scaled = LRSum(s.dim, tuple(LRTerm(10.0**exponent * t.a, t.b, t.sign) for t in s.terms))
    assert classify_superop(scaled).kind is classify_superop(s).kind


@pytest.mark.parametrize("call, message", [
    (lambda: LRTerm(np.eye(2), np.eye(3)), "term factors disagree in dimension: 2 vs 3"),
    (lambda: LRSum(2, (LRTerm(np.eye(2), np.eye(2), -1), LRTerm(np.eye(2), np.eye(2), -1))),
     "at most one negative term is allowed"),
    (lambda: LRSum(2, (LRTerm(np.eye(3), np.eye(3)),)), "term dimension 3 does not match dim 2"),
    (lambda: LRSum.from_pairs([]), "cannot infer dim from an empty pair list"),
], ids=["factor-dims", "two-negatives", "term-dim", "empty-pairs"])
def test_constructor_messages(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message

import numpy as np
import pytest

from hsdecomp import (
    InputError,
    PositivityClass,
    build_inner_product,
    classify_hermitian,
    classify_superop,
    frob_inner,
    frob_norm,
    hermitian_unit,
    identity_superop,
    matrix_unit,
    op_norm,
    pd_decompose,
    reduce_terms,
    unvec,
)
from hsdecomp import counterexample_superop, posdecomp, to_liouville
from hsdecomp.core import (
    _frob_norms,
    _lambda_min_stack,
    fix_phase,
    _positive,
    _positivity_class,
    hermitian_part,
    skew_part,
)
from hsdecomp.superop import left_blocks, selfadjoint_blocks
from helpers import (
    count_linalg,
    frob_inner_loops,
    positive_oracle,
    psd_sum,
    random_hermitian,
    random_matrix,
    random_psd,
    random_unitary,
)


def test_matrix_unit_definition():
    e12 = matrix_unit(2, 1, 2)
    np.testing.assert_array_equal(e12, np.array([[0, 1], [0, 0]], dtype=complex))


def test_matrix_unit_products():
    # E_nm E_jk = delta_mj E_nk
    e12, e21, e11 = matrix_unit(2, 1, 2), matrix_unit(2, 2, 1), matrix_unit(2, 1, 1)
    np.testing.assert_allclose(e12 @ e21, e11)
    np.testing.assert_allclose(e12 @ e12, np.zeros((2, 2)))


def test_matrix_unit_index_errors():
    with pytest.raises(InputError):
        matrix_unit(2, 0, 1)
    with pytest.raises(InputError):
        matrix_unit(2, 1, 3)


def test_frob_inner_unit_relations():
    e12, e21 = matrix_unit(2, 1, 2), matrix_unit(2, 2, 1)
    assert frob_inner(e12, e12) == 1
    assert frob_inner(e12, e21) == 0


def test_frob_inner_conjugate_symmetry_against_loops():
    rng = np.random.default_rng(101)
    for _ in range(20):
        eta, tau = random_matrix(rng, 3), random_matrix(rng, 3)
        val = frob_inner(eta, tau)
        assert abs(val - frob_inner_loops(eta, tau)) < 1e-12
        assert abs(val - np.conj(frob_inner(tau, eta))) < 1e-12


def test_frob_inner_sesquilinear():
    rng = np.random.default_rng(102)
    for d in (2, 4, 6):
        eta, t1, t2 = (random_matrix(rng, d) for _ in range(3))
        al, be = complex(rng.standard_normal(), rng.standard_normal()), complex(
            rng.standard_normal(), rng.standard_normal()
        )
        lhs = frob_inner(eta, al * t1 + be * t2)
        rhs = al * frob_inner(eta, t1) + be * frob_inner(eta, t2)
        assert abs(lhs - rhs) < 1e-12
        # conjugate-linear in the first slot
        lhs = frob_inner(al * t1 + be * t2, eta)
        rhs = np.conj(al) * frob_inner(t1, eta) + np.conj(be) * frob_inner(t2, eta)
        assert abs(lhs - rhs) < 1e-12


def test_frob_inner_dimension_mismatch():
    with pytest.raises(InputError):
        frob_inner(np.eye(2), np.eye(3))


def test_frob_norm_basics():
    assert frob_norm(matrix_unit(2, 1, 1)) == 1.0
    assert frob_norm(np.zeros((3, 3))) == 0.0


def test_frob_norm_basis_independent():
    rng = np.random.default_rng(103)
    eta = random_matrix(rng, 4)
    u = random_unitary(rng, 4)
    # sum of squared column norms of eta @ U for any unitary U
    via_columns = np.sqrt(sum(np.linalg.norm((eta @ u)[:, k]) ** 2 for k in range(4)))
    assert abs(via_columns - frob_norm(eta)) < 1e-12


def test_hermitian_unit_properties():
    assert np.array_equal(hermitian_unit(2, 1, 1), matrix_unit(2, 1, 1))
    h12 = hermitian_unit(2, 1, 2)
    np.testing.assert_array_equal(h12, h12.conj().T)
    assert frob_inner(h12, h12) == pytest.approx(1)
    assert frob_inner(h12, hermitian_unit(2, 2, 1)) == pytest.approx(0)


@pytest.mark.parametrize("d", range(2, 9))
def test_bases_orthonormal(d):
    units = [matrix_unit(d, n, m) for n in range(1, d + 1) for m in range(1, d + 1)]
    hats = [hermitian_unit(d, n, m) for n in range(1, d + 1) for m in range(1, d + 1)]
    for family in (units, hats):
        gram = np.array([[frob_inner(x, y) for y in family] for x in family])
        assert np.max(np.abs(gram - np.eye(d * d))) <= 1e-12


def test_classify_identity():
    rep = classify_hermitian(np.eye(3))
    assert rep.kind is PositivityClass.POSITIVE_DEFINITE
    assert rep.lambda_min == pytest.approx(1.0)
    assert rep.kernel_dim == 0


def test_classify_psd_singular():
    rep = classify_hermitian(matrix_unit(2, 1, 1))
    assert rep.kind is PositivityClass.PSD_SINGULAR
    assert rep.lambda_min == pytest.approx(0.0, abs=1e-12)
    assert rep.kernel_dim == 1


def test_classify_indefinite():
    rep = classify_hermitian(np.diag([1.0, -1.0]))
    assert rep.kind is PositivityClass.INDEFINITE
    assert rep.lambda_min == pytest.approx(-1.0)


def test_classify_non_hermitian_witness():
    t = np.array([[0, 1], [0, 0]], dtype=complex)
    rep = classify_hermitian(t)
    assert rep.kind is PositivityClass.NON_HERMITIAN
    assert np.isnan(rep.lambda_min)
    f = rep.witness
    assert abs(np.imag(f.conj() @ t @ f)) > 1e-3


def test_classify_witness_attains_lambda_min():
    rng = np.random.default_rng(104)
    h = random_matrix(rng, 4)
    h = (h + h.conj().T) / 2
    rep = classify_hermitian(h)
    value = (rep.witness.conj() @ h @ rep.witness).real
    assert value == pytest.approx(rep.lambda_min, abs=1e-10)


def test_classify_unitary_invariance():
    rng = np.random.default_rng(105)
    for _ in range(10):
        h = random_matrix(rng, 4)
        h = (h + h.conj().T) / 2
        u = random_unitary(rng, 4)
        r1 = classify_hermitian(h)
        r2 = classify_hermitian(u @ h @ u.conj().T)
        assert r1.kind is r2.kind
        assert r1.lambda_min == pytest.approx(r2.lambda_min, abs=1e-10)


def test_ideal_property_submultiplicative():
    rng = np.random.default_rng(106)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        a, b, eta = (random_matrix(rng, d) for _ in range(3))
        lhs = frob_norm(b @ eta @ a)
        assert lhs <= op_norm(a) * op_norm(b) * frob_norm(eta) + 1e-12


def mixed_stack(rng, d, scale):
    """PD, PSD-singular, indefinite, nearly Hermitian and non-Hermitian members."""
    h = random_matrix(rng, d)
    members = [
        random_psd(rng, d) + 0.1 * np.eye(d),
        random_psd(rng, d, rank=max(1, d - 1)),
        (h + h.conj().T) / 2,
        (h + h.conj().T) / 2 + 1e-13 * random_matrix(rng, d),
        random_matrix(rng, d),
        np.zeros((d, d)),
    ]
    return scale * np.stack(members)


def stack_layouts(rng, d, scale):
    """One stack of mixed members in five memory layouts, and a left_blocks view."""
    c = np.concatenate([mixed_stack(rng, d, scale) for _ in range(int(rng.integers(1, 12)))])
    yield "C", c
    yield "F blocks", c.transpose(0, 2, 1).copy().transpose(0, 2, 1)
    yield "transposed view", c.transpose(0, 2, 1)
    yield "asfortranarray", np.asfortranarray(c)
    yield "every second", np.repeat(c, 2, axis=0)[::2]
    m = random_hermitian(rng, d * d, scale) + 1e-13 * scale * random_matrix(rng, d * d)
    yield "left_blocks", left_blocks(m)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_lambda_min_stack_matches_classify_bitwise(d, scale):
    """In six layouts: frob_norm sums in each matrix's memory order, as np.linalg.norm does,
    so the stacked norms, thresholds and decisions must follow the layout to keep the
    classifier's bytes."""
    rng = np.random.default_rng(107 + d)
    for _ in range(2):
        for name, stack in stack_layouts(rng, d, scale):
            if d > 1 and name not in ("C", "every second"):
                assert not stack[0].flags.c_contiguous, name
            norms = np.array([frob_norm(t) for t in stack])
            numpy_norms = [np.linalg.norm(np.asarray(t, np.complex128)) for t in stack]
            assert norms.tobytes() == np.array(numpy_norms).tobytes(), name
            assert _frob_norms(stack).tobytes() == norms.tobytes(), name
            lam, threshold = _lambda_min_stack(stack, 1e-9)
            reports = [classify_hermitian(t, 1e-9) for t in stack]
            expected = np.array([r.lambda_min for r in reports])
            assert lam.tobytes() == expected.tobytes(), name
            rule = np.array([1e-9 * max(1.0, n) for n in norms])
            assert threshold.tobytes() == rule.tobytes(), name
            assert [bool(x > t) for x, t in zip(lam, threshold)] == [r.is_pd for r in reports]
            assert [bool(x >= -t) for x, t in zip(lam, threshold)] == [r.is_psd for r in reports]
            if d > 1 and name == "C":
                assert np.isnan(lam[4]) and not reports[4].is_hermitian


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_lambda_min_stack_rejects_non_finite(bad):
    stack = np.stack([np.eye(2), np.eye(2)]).astype(complex)
    stack[1, 0, 1] = bad
    with pytest.raises(InputError, match="T: entries must be finite"):
        _lambda_min_stack(stack, 1e-9)


def test_lambda_min_stack_empty():
    lam, threshold = _lambda_min_stack(np.zeros((0, 3, 3)), 1e-9)
    assert lam.shape == threshold.shape == (0,)
    assert lam.dtype == threshold.dtype == np.float64


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_hermitian_and_skew_parts_of_a_stack_match_a_loop(k):
    """k = 3 = n is the square stack a whole-array transpose gets silently wrong."""
    stack = np.stack([random_matrix(np.random.default_rng(110 + i), 3) for i in range(k)])
    for part in (hermitian_part, skew_part):
        assert part(stack).tobytes() == np.stack([part(t) for t in stack]).tobytes()
    t = stack[0]
    assert skew_part(t).tobytes() == ((t - t.conj().T) / 2).tobytes()


def test_lambda_min_stack_rejects_bad_tol():
    """Also on an empty stack; a non-finite entry is reported before the tol."""
    for stack in (np.eye(2)[None], np.zeros((0, 3, 3))):
        for tol in (0.0, -1.0, np.nan):
            with pytest.raises(InputError, match="tol must be positive"):
                _lambda_min_stack(stack, tol)
    with pytest.raises(InputError, match="T: entries must be finite"):
        _lambda_min_stack(np.full((1, 2, 2), np.inf), 0.0)


@pytest.mark.parametrize("tol, message", [
    (1.0, "tol must be below 1, got 1.0"),
    (1e10, "tol must be below 1, got 10000000000.0"),
    (np.inf, "tol must be below 1, got inf"),
    (np.nan, "tol must be positive, got nan"),
    (0.0, "tol must be positive, got 0.0"),
    (-1.0, "tol must be positive, got -1.0"),
])
def test_library_calls_refuse_a_tol_the_cli_refuses(tol, message):
    """At tol >= 1 every threshold is at least ||T||_F: classify_hermitian(I) came out
    PsdSingular with kernel_dim 2, and reduce_terms(identity_superop(2)) the zero operator."""
    eye, s = np.eye(2), identity_superop(2)
    for call in (lambda: classify_hermitian(eye, tol), lambda: _lambda_min_stack(eye[None], tol),
                 lambda: classify_superop(s, tol), lambda: reduce_terms(s, tol),
                 lambda: pd_decompose(s, tol), lambda: build_inner_product([eye], [eye], tol)):
        with pytest.raises(InputError) as info:
            call()
        assert str(info.value) == message
    with pytest.raises(InputError, match="T: entries must be finite"):
        _lambda_min_stack(np.full((1, 2, 2), np.inf), tol)


def test_a_norm_whose_square_overflows_keeps_the_rule_scale_covariant():
    """||T||_F^2 overflows above about 1.3e154, but ||T||_F does not: the threshold stays
    tol * ||T||_F, so a scaled indefinite matrix stays Indefinite and fails every PSD test."""
    for scale in (1e150, 1e160, 1e300):
        t = np.diag([scale, -scale * 1e-5])
        report = classify_hermitian(t)
        assert report.kind is PositivityClass.INDEFINITE, scale
        lam, threshold = _lambda_min_stack(t[None], 1e-9)
        assert threshold[0] == pytest.approx(1e-9 * scale)
        assert not _positive(t[None], 1e-9, strict=False)[0]
    # the sum of squares overflows at 1e160; the norm is taken again, without a warning
    assert _frob_norms(np.diag([1e160, -1e155])[None])[0] == pytest.approx(1e160)
    assert frob_norm([1e160, -1e155]) == pytest.approx(1e160)


def test_negative_strides_are_read_along_the_contiguous_axis():
    """A view with a reversed axis reads each matrix along the axis of the smaller stride
    magnitude, as a C-ordered copy in that orientation does: a signed comparison would
    read the row-reversed view by columns, a different summation order."""
    stack = np.stack([random_matrix(np.random.default_rng(120 + i), 8) for i in range(40)])
    rows_reversed = stack[:, ::-1]
    columns_reversed = stack.transpose(0, 2, 1)[:, :, ::-1]
    assert rows_reversed.strides[-2] < 0 < rows_reversed.strides[-1]
    assert columns_reversed.strides[-1] < 0 < columns_reversed.strides[-2]
    for view, along in ((rows_reversed, rows_reversed),
                        (columns_reversed, columns_reversed.swapaxes(-1, -2))):
        assert _frob_norms(view).tobytes() == _frob_norms(np.ascontiguousarray(along)).tobytes()


@pytest.mark.parametrize("v, fixed", [
    ([2.0**-38 * 1j, 1.0], [2.0**-38, -1j]),  # 3.6e-12 of the largest: the pivot
    ([2.0**-41 * 1j, 1.0], [2.0**-41 * 1j, 1.0]),  # 4.5e-13: skipped for the next component
])
def test_fix_phase_pivot_is_the_first_component_above_1e_12_of_the_largest(v, fixed):
    assert fix_phase(np.array(v)).tolist() == fixed


@pytest.mark.parametrize("diag, kind", [
    ([1.5e308, -1.0], PositivityClass.PSD_SINGULAR),  # -1 lies inside the 1.5e299 threshold
    ([1.5e308, -1.5e300], PositivityClass.INDEFINITE),
])
def test_an_entry_near_the_float_range_classifies_without_overflow(diag, kind):
    """T + T* overflows at 1.5e308; the Hermitian part is taken as T/2 + T*/2."""
    t = np.diag(diag)
    report = classify_hermitian(t)
    assert report.kind is kind
    assert report.lambda_min == diag[1]
    lam, threshold = _lambda_min_stack(t[None], 1e-9)
    assert lam[0] == diag[1] and threshold[0] == pytest.approx(1.5e299)
    np.testing.assert_array_equal(hermitian_part(t), t)
    np.testing.assert_array_equal(skew_part(t), np.zeros((2, 2)))


def _stacks_tested_by_pd_decompose(s):
    """Copies of the stacks, and their strictness, that ``pd_decompose(s)`` decides by
    ``_positive`` (the beta, alpha and lift stages)."""
    seen, positive = [], posdecomp._positive

    def spy(stack, tol, strict=True):
        seen.append((np.array(stack), strict))
        return positive(stack, tol, strict)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(posdecomp, "_positive", spy)
        pd_decompose(s)
    return seen


def positive_corpus():
    """Named stacks for the Cholesky verdicts: the factors of a d = 8 ``psd_sum`` and the
    stacks ``pd_decompose`` decides on it, the counterexample's selfadjoint blocks and
    decided stacks for t = 0.25 down to 1e-6, mixed members (non-Hermitian ones among them)
    and d = 1, each at every scale of the band 1e-12..1e300."""
    rng = np.random.default_rng(240)
    s = psd_sum(rng, 8, 64)
    base = {"psd-sum-d8 factors": np.array([m for t in s.terms for m in (t.a, t.b)])}
    for i, (stack, _) in enumerate(_stacks_tested_by_pd_decompose(s)):
        base[f"psd-sum-d8 decided {i}"] = stack
    for t in (0.25, 1e-2, 1e-4, 1e-6):
        op = counterexample_superop(t)
        base[f"counterexample {t} blocks"] = selfadjoint_blocks(to_liouville(op))
        for i, (stack, _) in enumerate(_stacks_tested_by_pd_decompose(op)):
            base[f"counterexample {t} decided {i}"] = stack
    for d in (2, 8):
        base[f"mixed d{d}"] = mixed_stack(rng, d, 1.0)
    base["d1"] = np.array([[[x]] for x in (2.0, -3.0, 0.0, 1e-10, -1e-10, 1 + 1j, 1e-3j)])
    for scale in (1e-12, 1e-6, 1.0, 1e6, 1e12, 1e154, 1e300):
        for name, stack in base.items():
            yield f"{name} x {scale:g}", scale * stack


def _near(stack, tol, strict, rng):
    """``stack``'s Hermitian parts, each moved by a multiple of the identity to put lambda_min
    a random few multiples of ``positive_oracle``'s band from the threshold, either side."""
    _, margin, delta = positive_oracle(stack, tol, strict)
    h = hermitian_part(stack)
    shift = np.where(np.isfinite(margin), margin, 0.0) - rng.uniform(-4.0, 4.0, len(h)) * delta
    return h - shift[:, None, None] * np.eye(h.shape[-1])


def test_positive_agrees_with_the_eigvalsh_oracle_outside_its_band():
    """On every stack of ``positive_corpus``, and on its Hermitian parts moved next to each
    threshold, the Cholesky verdicts equal ``positive_oracle``'s wherever lambda_min lies more
    than delta = (n + 2) u (tr|H| + n threshold) from the threshold (u = 2^-53)."""
    rng = np.random.default_rng(241)
    compared, near, verdicts = 0, 0, set()
    for name, stack in positive_corpus():
        for strict in (True, False):
            for stack_ in (stack, _near(stack, 1e-9, strict, rng)):
                got = _positive(stack_, 1e-9, strict)
                expected, margin, delta = positive_oracle(stack_, 1e-9, strict)
                outside = np.abs(margin) > delta
                assert got[outside].tolist() == expected[outside].tolist(), (name, strict)
                compared += int(outside.sum())
                near += int((outside & (np.abs(margin) < 4 * delta)).sum())
                verdicts.update(expected[outside].tolist())
    assert verdicts == {True, False}
    assert compared > 5000 and near > 1000, (compared, near)


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
@pytest.mark.parametrize("d", [1, 2, 5, 8])
@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12, 1e300])
def test_positive_decides_a_relative_1e_6_from_the_threshold(d, scale, tol):
    """lambda_min = threshold (1 +- 1e-6) for the PD test and -threshold (1 -+ 1e-6) for the
    PSD test, the other eigenvalues |lambda_min| + scale r, r in [1, 2], and threshold =
    tol max(1, ||H||_F) solved for by a fixed-point iteration. Diagonal matrices factor
    exactly; a unitary rotation (at tol 1e-3, where 1e-6 of the threshold is far above its
    rounding) does not. Each decides as its side."""
    rng = np.random.default_rng([242, d])
    u = random_unitary(rng, d)
    rest = scale * rng.uniform(1.0, 2.0, d - 1)
    for strict in (True, False):
        for eps, side in ((1e-6, strict), (-1e-6, not strict)):
            sign = 1.0 if strict else -1.0
            lam = 0.0
            for _ in range(8):
                w = np.concatenate([[lam], abs(lam) + rest])
                lam = sign * tol * max(1.0, scale * float(np.linalg.norm(w / scale))) * (1 + eps)
            w = np.concatenate([[lam], abs(lam) + rest])
            stacks = [np.diag(w)[None]]
            if tol == 1e-3:
                stacks.append(((u * w) @ u.conj().T)[None])
            for stack in stacks:
                assert positive_oracle(stack, tol, strict)[0].tolist() == [side]
                assert _positive(stack, tol, strict).tolist() == [side], (strict, eps)


@pytest.mark.parametrize("d", [2, 8])
def test_positive_verdicts_do_not_depend_on_the_neighbours(monkeypatch, d):
    """A stack holding a failing matrix fails its one stacked cholesky; then each matrix is
    factored alone, and decides as it does in a stack of its own."""
    rng = np.random.default_rng(243 + d)
    stack = np.concatenate([mixed_stack(rng, d, 1.0), random_psd(rng, d)[None]])
    for strict in (True, False):
        alone = [_positive(m[None], 1e-9, strict)[0] for m in stack]
        assert set(alone) == {True, False}
        counts = count_linalg(monkeypatch, "cholesky")
        assert _positive(stack, 1e-9, strict).tolist() == alone
        assert counts["cholesky"] == 1 + len(stack)
        counts["cholesky"] = 0
        passing = stack[np.array(alone)]
        assert _positive(passing, 1e-9, strict).all() and counts["cholesky"] == 1


@pytest.mark.parametrize("t, tol, pd, psd", [
    (np.diag([1.5e308, 0.5e308]), 0.5, False, True),  # 1.5e308 + threshold 7.9e307 overflows
    (np.array([[1e308, 0.85e308], [0.85e308, -0.8e308]]), 0.5, False, False),
    (np.diag([1.5e308, -1.0]), 1e-9, False, True),
])
def test_positive_near_the_float_range_decides_without_overflow(t, tol, pd, psd):
    """The factored matrix is (H -+ threshold I) / 2, whose diagonal cannot overflow: an
    infinite diagonal entry would factor as if its row were decoupled, and pass the second
    matrix (lambda_min -1.1e308) as PSD."""
    assert _positive(t[None], tol).tolist() == [pd]
    assert _positive(t[None], tol, strict=False).tolist() == [psd]
    assert positive_oracle(t[None], tol)[0].tolist() == [pd]
    assert positive_oracle(t[None], tol, strict=False)[0].tolist() == [psd]


@pytest.mark.parametrize("t", [
    np.diag([1.5e308, 1.5e308]),
    np.array([[0.0, 1e308], [-1e308, 0.0]]),  # ||T - T*||_F = 2.8e308
    np.array([[1e308 + 1e308j, 0.0], [0.0, 0.0]]),
], ids=["norm", "defect", "complex-defect"])
def test_a_norm_beyond_the_float_range_is_an_input_error(t):
    with pytest.raises(InputError, match="T: Frobenius norm exceeds the float range"):
        classify_hermitian(t)
    with pytest.raises(InputError, match="T: Frobenius norm exceeds the float range"):
        _lambda_min_stack(np.stack([np.eye(2), t]), 1e-9)
    with pytest.raises(InputError, match="tol must be positive"):
        classify_hermitian(t, 0.0)


def test_positivity_class_bands():
    """NaN is NonHermitian; the closed band [-threshold, threshold] is PsdSingular, and the
    class agrees with the stacked PD and PSD tests on both sides of each edge."""
    threshold = 1e-9
    below, above = np.nextafter(-threshold, -1.0), np.nextafter(threshold, 1.0)
    expected = {
        below: PositivityClass.INDEFINITE,
        -threshold: PositivityClass.PSD_SINGULAR,
        0.0: PositivityClass.PSD_SINGULAR,
        threshold: PositivityClass.PSD_SINGULAR,
        above: PositivityClass.POSITIVE_DEFINITE,
    }
    for lam, kind in expected.items():
        assert _positivity_class(lam, threshold) is kind, lam
        assert (kind is PositivityClass.POSITIVE_DEFINITE) == (lam > threshold)
        assert (kind in (PositivityClass.PSD_SINGULAR, PositivityClass.POSITIVE_DEFINITE)) == (
            lam >= -threshold)
    assert _positivity_class(np.nan, threshold) is PositivityClass.NON_HERMITIAN


@pytest.mark.parametrize("call, message", [
    (lambda: matrix_unit(2.5, 1, 1), "dim must be a positive integer, got 2.5"),
    (lambda: matrix_unit(True, 1, 1), "dim must be a positive integer, got True"),
    (lambda: matrix_unit(0, 1, 1), "dim must be a positive integer, got 0"),
    (lambda: matrix_unit(2, 1.5, 1), "index n must be an integer in 1..2, got 1.5"),
    (lambda: matrix_unit(2, 1, 3), "index m must be an integer in 1..2, got 3"),
    (lambda: hermitian_unit(2.0, 1, 2), "dim must be a positive integer, got 2.0"),
    (lambda: identity_superop(2.0), "dim must be a positive integer, got 2.0"),
    (lambda: identity_superop(0), "dim must be a positive integer, got 0"),
    (lambda: unvec(range(4), -2), "dim must be a positive integer, got -2"),
    (lambda: unvec(range(4), 2.0), "dim must be a positive integer, got 2.0"),
    (lambda: unvec([]), "vector of length 0 is not a stacked 1x1 matrix"),
    (lambda: unvec(range(3)), "vector of length 3 is not a stacked 1x1 matrix"),
], ids=["matrix_unit-float-dim", "matrix_unit-bool-dim", "matrix_unit-zero-dim",
        "matrix_unit-float-index", "matrix_unit-index-range", "hermitian_unit-float-dim",
        "identity_superop-float-dim", "identity_superop-zero-dim", "unvec-negative-dim",
        "unvec-float-dim", "unvec-empty", "unvec-length-3"])
def test_dims_and_indices_follow_the_integer_rule(call, message):
    # one rule, core._is_integer: bools and floats are refused as InputError
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("value, message", [
    ("x", "T: not convertible to a complex matrix"),
    ([[1.0, 2.0], [3.0]], "T: not convertible to a complex matrix"),
    (np.ones((2, 3)), "T: expected a square matrix, got shape (2, 3)"),
    (np.ones(4), "T: expected a square matrix, got shape (4,)"),
    (np.zeros((0, 0)), "T: expected a square matrix, got shape (0, 0)"),
], ids=["string", "ragged", "not-square", "vector", "empty"])
def test_as_square_matrix_messages(value, message):
    with pytest.raises(InputError) as info:
        classify_hermitian(value)
    assert str(info.value) == message


import numpy as np
import pytest

from hsdecomp import (
    CertificateInvalidError,
    DegenerateFactorError,
    HsDecompError,
    InputError,
    LRSum,
    NoProgressError,
    NotPositiveDefiniteError,
    NotPositiveError,
    NotSelfadjointError,
    NumericalError,
    PositivityClass,
    SignedLRSum,
    SignedTerm,
    ZetaCertificate,
    classify_hermitian,
    classify_superop,
    counterexample_superop,
    diag_blocks,
    find_zeta_certificate,
    from_liouville,
    frob_inner,
    frob_norm,
    hermitian_unit,
    identity_superop,
    matrix_unit,
    one_sum_positive,
    pd_decompose,
    pencil_eigh,
    pencil_extremes,
    selfadjoint_decompose,
    to_liouville,
    two_sum_pd,
    zeta_check,
    zeta_transform,
)
from hsdecomp import core, pencil, posdecomp, superop
from hsdecomp.pencil import _hermitian_extremes, _pencil_minima
from hsdecomp.posdecomp import (
    _Tracer, _grow_margins, _nonvanishing_vector, _shrink_offset,
    _zeta_conditions, _zeta_parts,
)
from hsdecomp.superop import selfadjoint_blocks
from helpers import (
    SHRINKING_LEFT_STAGE_SEEDS,
    classify_step_reference,
    counterexample_form_oracle,
    counterexample_liouville_oracle,
    count_calls,
    count_linalg,
    find_zeta_certificate_reference,
    liouville_builds,
    pencil_oracle,
    psd_sum,
    random_hermitian,
    random_matrix,
    random_pd,
    random_pd_liouville,
    random_psd,
    random_unitary,
    rel_err,
    exact_pd,
    exact_psd,
    exact_residual,
    replay_one_sum,
    replay_pd_decompose,
    replay_two_sum,
    shrinking_left_stage_inputs,
    stacked_kernel_trivial,
    two_sum_input,
    wire_trace,
    zeta_check_reference,
)

I2 = np.eye(2, dtype=complex)


def is_pd(x, tol=1e-9):
    return classify_hermitian(x, tol).is_pd


def is_psd(x, tol=1e-9):
    return classify_hermitian(x, tol).is_psd


def signed_liouville(s: SignedLRSum):
    return to_liouville(s.as_lrsum())


# ---------------------------------------------------------------- one_sum


def test_one_sum_negated_identity():
    a_hat, b_hat, trace = one_sum_positive(-I2, -I2)
    np.testing.assert_allclose(a_hat, I2, atol=1e-12)
    np.testing.assert_allclose(b_hat, I2, atol=1e-12)
    assert trace.step("rescale").data["alpha"] == pytest.approx(-1.0)


def test_one_sum_scaled_psd():
    rng = np.random.default_rng(30)
    a = 2.0 * random_psd(rng, 3)
    b = 0.5 * random_psd(rng, 3)
    a_hat, b_hat, _ = one_sum_positive(a, b)
    assert is_psd(a_hat) and is_psd(b_hat)
    m0 = to_liouville(LRSum.from_pairs([(a, b)]))
    m1 = to_liouville(LRSum.from_pairs([(a_hat, b_hat)]))
    assert rel_err(m1, m0) <= 1e-12


def test_one_sum_pd_stays_pd():
    rng = np.random.default_rng(31)
    a, b = random_pd(rng, 3), random_pd(rng, 3)
    a_hat, b_hat, _ = one_sum_positive(-2.0 * a, -0.5 * b)
    assert is_pd(a_hat) and is_pd(b_hat)


def test_one_sum_rejects_indefinite():
    x = matrix_unit(2, 1, 2) + matrix_unit(2, 2, 1)
    with pytest.raises(NotPositiveError):
        one_sum_positive(x, x)


def test_one_sum_rejects_zero():
    with pytest.raises(NotPositiveError):
        one_sum_positive(np.zeros((2, 2)), I2)


def test_one_sum_validates_each_factor_once(monkeypatch):
    """The one-term operator validates a and b and one_sum_positive reads them back from it:
    two as_square_matrix calls, and the messages name the factors "a" and "b"."""
    calls = count_calls(monkeypatch, [(superop, "as_square_matrix"),
                                      (posdecomp, "as_square_matrix")])
    one_sum_positive(I2, 2 * I2)
    assert calls == {"as_square_matrix": 2}
    for a, b, message in [([[np.nan]], I2, "^a: entries must be finite$"),
                          (I2, [[1.0, 2.0]], r"^b: expected a square matrix, got shape \(1, 2\)$"),
                          (I2, np.eye(3), "^term factors disagree in dimension: 2 vs 3$")]:
        with pytest.raises(InputError, match=message):
            one_sum_positive(a, b)


def test_one_sum_zero_test_reads_the_stored_norm_pass(monkeypatch):
    """The zero test ||L||_F <= tol reads the norm that the classify step's rule pass stored
    on the operator: one norm pass of the Liouville matrix, and no frob_norm of it."""
    shapes = []
    frob = posdecomp.frob_norm
    monkeypatch.setattr(posdecomp, "frob_norm", lambda x: shapes.append(np.shape(x)) or frob(x))
    passes = count_calls(monkeypatch, [(superop, "_rule_norms")])
    rng = np.random.default_rng(39)
    one_sum_positive(random_pd(rng, 3), random_pd(rng, 3))
    assert passes == {"_rule_norms": 1}
    assert (9, 9) not in shapes


def test_stored_rule_norm_is_the_frob_norm_of_the_liouville_matrix_bitwise():
    rng = np.random.default_rng(41)
    for d in range(1, 5):
        for scale in (1e-200, 1e-9, 1.0, 1e150):
            s = LRSum.from_pairs([(scale * random_matrix(rng, d), random_matrix(rng, d))])
            for op in (s, superop.transpose_dual(s)):
                norm = superop._liouville_rule_norms(op, 1e-9)[0][0]
                assert norm.tobytes() == np.float64(frob_norm(to_liouville(op))).tobytes()


# ---------------------------------------------------------------- two_sum


def test_nonvanishing_vector_reads_the_hermitian_part():
    """x = [[1, 2], [0, 1]] has Hermitian part [[1, 1], [1, 1]], whose extreme direction
    (1, 1)/sqrt(2) gives <f, x f> = 2; eigh of x itself reads one triangle, the identity."""
    f, value = _nonvanishing_vector(np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex), 1e-9)
    assert value == pytest.approx(2.0, abs=1e-15)
    np.testing.assert_allclose(np.abs(f), [2**-0.5, 2**-0.5], atol=1e-15)


def check_two_sum_output(signed, m_ref, tol=1e-9):
    assert len(signed.terms) == 2
    assert all(t.sign == 1 for t in signed.terms)
    assert all(is_psd(t.a) for t in signed.terms)
    assert all(is_pd(t.b) for t in signed.terms)
    assert stacked_kernel_trivial([t.a for t in signed.terms])
    assert rel_err(signed_liouville(signed), m_ref) <= tol


def test_two_sum_symmetric_identity():
    signed, trace = two_sum_pd(I2, I2, I2, I2)
    check_two_sum_output(signed, 2 * np.eye(4))
    step = trace.step("right_pencil")
    assert step.data["t"] < step.data["t0"]


def test_two_sum_scrambled_recovers_structure():
    rng = np.random.default_rng(32)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        a1, b1, a2, b2 = (random_pd(rng, d) for _ in range(4))
        c = -3.0
        m_ref = to_liouville(LRSum.from_pairs([(a1, b1), (a2, b2)], d))
        signed, trace = two_sum_pd(a1 * c, b1 / c, a2, b2)
        check_two_sum_output(signed, m_ref)
        step = trace.step("right_pencil")
        assert step.data["t"] < step.data["t0"]
        assert step.data["lambda_min_combined_a"] > 0
        assert step.data["lambda_min_offset_b"] > 0


def test_two_sum_tests_pd_right_factors_once(monkeypatch):
    """Right factors PD from the start: stage 1 breaks on its first test and does
    not test the same stack again after its loop."""
    rng = np.random.default_rng(35)
    a1, b1, a2, b2 = (random_pd(rng, 3) for _ in range(4))
    stacks = []
    positive = posdecomp._positive

    def spy(stack, *args, **kwargs):
        stacks.append(np.array(stack))
        return positive(stack, *args, **kwargs)

    monkeypatch.setattr(posdecomp, "_positive", spy)
    signed, trace = two_sum_pd(a1, b1, a2, b2)
    check_two_sum_output(signed, to_liouville(LRSum.from_pairs([(a1, b1), (a2, b2)], 3)))
    assert not trace.has("fold_right")
    assert np.array_equal(stacks[0], np.stack([b1, b2]))
    assert len({s.tobytes() for s in stacks}) == len(stacks)


def test_two_sum_gauge_mixed():
    rng = np.random.default_rng(33)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        pairs = [(random_pd(rng, d), random_pd(rng, d)) for _ in range(2)]
        g = random_matrix(rng, 2)
        while abs(np.linalg.det(g)) < 0.3:
            g = random_matrix(rng, 2)
        gi = np.linalg.inv(g).T
        a_mix = [g[0, 0] * pairs[0][0] + g[0, 1] * pairs[1][0],
                 g[1, 0] * pairs[0][0] + g[1, 1] * pairs[1][0]]
        b_mix = [gi[0, 0] * pairs[0][1] + gi[0, 1] * pairs[1][1],
                 gi[1, 0] * pairs[0][1] + gi[1, 1] * pairs[1][1]]
        m_ref = to_liouville(LRSum.from_pairs(list(zip(a_mix, b_mix)), d))
        signed, _ = two_sum_pd(a_mix[0], b_mix[0], a_mix[1], b_mix[1])
        check_two_sum_output(signed, m_ref)


def test_two_sum_rejects_indefinite():
    x = matrix_unit(2, 1, 2) + matrix_unit(2, 2, 1)
    with pytest.raises(NotPositiveDefiniteError):
        two_sum_pd(x, x, 0.1 * I2, 0.1 * I2)


def test_two_sum_degenerate_term_falls_back():
    rng = np.random.default_rng(34)
    a, b = random_pd(rng, 2), random_pd(rng, 2)
    signed, trace = two_sum_pd(a, b, np.zeros((2, 2)), I2)
    m_ref = to_liouville(LRSum.from_pairs([(a, b)], 2))
    assert rel_err(signed_liouville(signed), m_ref) <= 1e-9
    assert all(is_pd(t.b) for t in signed.terms)
    assert trace.has("one_sum_fallback") or all(is_psd(t.a) for t in signed.terms)


def test_two_sum_left_factor_vanished_falls_back():
    """a1 = 0 leaves the negative right factor b1 = -I to fold with a vanished left factor;
    the survivor (I, I) is rescaled alone and padded with a zero term."""
    signed, trace = two_sum_pd(np.zeros((2, 2)), -I2, I2, I2)
    assert [(t.sign, t.a.tolist(), t.b.tolist()) for t in signed.terms] == [
        (1, I2.tolist(), I2.tolist()), (1, np.zeros((2, 2)).tolist(), I2.tolist()),
    ]
    assert [s.name for s in trace.steps] == ["classify", "one_sum_fallback"]
    assert wire_trace(trace)["steps"][-1]["data"] == {
        "note": "left factor vanished", "sub_steps": ["classify", "rescale"],
        "f0": [[1.0, 0.0], [0.0, 0.0]], "alpha": [1.0, 0.0],
    }
    assert np.array_equal(signed_liouville(signed), np.eye(4))


def test_two_sum_left_factor_at_the_vanishing_threshold_vanishes():
    """A left factor whose norm equals the vanishing threshold, tol max(1, ||a||_F) over the
    left factors, reads as zero, as a matrix within its threshold reads as singular."""
    t = core._threshold(frob_norm(I2), 1e-9)
    p1 = np.diag([t, 0.0])
    assert frob_norm(p1) == t
    _, trace = two_sum_pd(p1, -I2, I2, I2)
    assert trace.step("one_sum_fallback").data["note"] == "left factor vanished"
    _, trace = two_sum_pd(np.diag([2 * t, 0.0]), -I2, I2, I2)
    assert not trace.has("one_sum_fallback")


def _two_sum_outcome(a1, b1, a2, b2):
    """The error type ``two_sum_pd`` raises, or the relative Liouville error of its output."""
    try:
        signed, _ = two_sum_pd(a1, b1, a2, b2)
    except HsDecompError as exc:
        return type(exc)
    return rel_err(signed_liouville(signed), to_liouville(LRSum.from_pairs([(a1, b1), (a2, b2)])))


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("c", [1e6, 1e9, 1e12, 1e100])
def test_two_sum_is_invariant_under_a_factor_split(side, c):
    """(c a, b) and (a, c b) are the same operator as (a, b) scaled by c, so on every draw
    ``two_sum_pd`` returns that operator within 1e-10 or refuses as it refuses (a, b)
    (Known issue 18: a left factor must not read as vanished against the right factors)."""
    rng = np.random.default_rng(5)
    pd = 0
    for _ in range(100):
        a1, b1, a2, b2 = two_sum_input(rng)
        base = _two_sum_outcome(a1, b1, a2, b2)
        scaled = (_two_sum_outcome(a1, c * b1, a2, c * b2) if side == "right"
                  else _two_sum_outcome(c * a1, b1, c * a2, b2))
        if isinstance(base, type):
            assert scaled is base
        else:
            pd += 1
            assert base <= 1e-10 and not isinstance(scaled, type) and scaled <= 1e-10
    assert pd >= 20


def test_shrink_offset_accepts_a_pair_and_stalls_at_the_floor(monkeypatch):
    base, step = np.stack([2.0 * I2, I2]), np.stack([-I2, -I2])
    t, eps, shrinks, stack = _shrink_offset(1.0, base, step, 1e-9, _Tracer(), "right_pencil")
    assert (t, eps, shrinks) == (0.875, 0.125, 0)
    assert np.array_equal(stack, np.stack([2.0 * I2 - t * I2, I2 - t * I2]))
    # a second matrix that is never positive definite: one _positive call per try, 38 tries
    # from eps = 2^-3 down to 2^-40, then the floor; each failing try factors the stack and
    # then each of its two matrices alone, and no try makes an eigensolve
    counts = count_linalg(monkeypatch, "eigh", "cholesky")
    tracer = _Tracer()
    tracer.add("before")
    with pytest.raises(NoProgressError, match=r"^right_pencil: offset search below floor") as info:
        _shrink_offset(1.0, np.stack([2.0 * I2, -I2]), np.stack([-I2, 0 * I2]), 1e-9, tracer,
                       "right_pencil")
    assert counts == {"eigh": 0, "cholesky": 3 * 38}
    steps = info.value.trace.steps
    assert [s.name for s in steps] == ["before", "right_pencil"]
    assert steps[-1].data == {"t0": 1.0, "eps": 2.0**-41, "shrinks": 38, "failed": True}


def two_sum_corpus():
    """(label, terms): ten scrambled PD pairs at d = 3, and the inputs whose left pencil
    shrinks its offset."""
    rng = np.random.default_rng(35)
    for i in range(10):
        a1, b1, a2, b2 = (random_pd(rng, 3) for _ in range(4))
        yield f"scrambled-{i}", [(a1 * -2.0, b1 / -2.0), (a2, b2)]
    for seed, terms in zip(SHRINKING_LEFT_STAGE_SEEDS, shrinking_left_stage_inputs()):
        yield f"shrinking-left-{seed}", terms


def test_two_sum_trace_replay():
    """The input pairs and the trace after a JSON round trip determine the output exactly,
    each traced g0 gives its beta1, and one ulp off the traced t gives another output."""
    for label, terms in two_sum_corpus():
        signed, trace = two_sum_pd(*terms[0], *terms[1])
        trace_obj = wire_trace(trace)
        assert replay_two_sum(terms, trace_obj) == signed, label
        if label.startswith("scrambled"):  # b1 is negative definite, so the right stage folds
            fold = next(s["data"] for s in trace_obj["steps"] if s["name"] == "fold_right")
            g0 = fold["g0"]
            fold["g0"] = [[1.0, 0.0]] + [[0.0, 0.0]] * (len(g0) - 1)
            with pytest.raises(AssertionError):
                replay_two_sum(terms, trace_obj)
            fold["g0"] = g0
        if label.startswith("shrinking"):
            assert trace.step("left_pencil").data["shrinks"] > 0, label
        pencil = next(s["data"] for s in trace_obj["steps"] if s["name"] == "right_pencil")
        pencil["t"] = float(np.nextafter(pencil["t"], 1.0))
        assert replay_two_sum(terms, trace_obj) != signed, label


def fallback_corpus():
    """(label, terms) of two-sum inputs that take the one-sum fallback: a vanished left factor
    after a swap, or a vanished second term, of real and complex survivors."""
    rng = np.random.default_rng(290)
    yield "left-vanished", [(np.zeros((2, 2)), -I2), (I2, I2)]
    for i in range(4):
        d = int(rng.integers(2, 4))
        a, b = random_pd(rng, d) * (1 - 2j), random_pd(rng, d) / (1 - 2j)
        zero, other = np.zeros((d, d)), random_pd(rng, d)
        yield f"left-vanished-{i}", [(a, b), (zero, -other)]
        yield f"second-vanished-{i}", [(-a, -b), (zero, other)]


def test_two_sum_one_sum_fallback_replays_from_its_trace():
    """The one_sum_fallback step records the f0 and alpha of its rescale, so the input pairs
    and the JSON trace determine the output exactly, and one ulp off alpha gives another."""
    notes = set()
    for label, terms in fallback_corpus():
        signed, trace = two_sum_pd(*terms[0], *terms[1])
        trace_obj = wire_trace(trace)
        fallback = trace_obj["steps"][-1]
        assert fallback["name"] == "one_sum_fallback", label
        notes.add(fallback["data"]["note"])
        assert replay_two_sum(terms, trace_obj) == signed, label
        alpha = fallback["data"]["alpha"]
        alpha[0] = float(np.nextafter(alpha[0], np.inf))
        assert replay_two_sum(terms, trace_obj) != signed, label
    assert notes == {"left factor vanished", "second term vanished"}


def test_one_sum_replays_from_its_json_trace():
    rng = np.random.default_rng(36)
    for kind in ("real", "complex", "mirror"):
        for _ in range(5):
            terms = scrambled_pairs(rng, int(rng.integers(1, 5)), kind)
            a_hat, b_hat, trace = one_sum_positive(*terms[0])
            a_re, b_re = replay_one_sum(*terms[0], wire_trace(trace))
            assert (a_re.tobytes(), b_re.tobytes()) == (a_hat.tobytes(), b_hat.tobytes())


@pytest.mark.parametrize("s", [
    *(pytest.param(psd_sum(np.random.default_rng(seed), 8, 64), id=f"psd-d8-{seed}")
      for seed in range(4)),
    *(pytest.param(counterexample_superop(t), id=f"counterexample-{t}")
      for t in (0.25, 1e-4, 1e-6)),
    # every off-diagonal block dropped, nothing lifted
    pytest.param(identity_superop(3), id="identity-d3"),
])
def test_pd_decompose_replays_from_its_json_trace(s):
    """The input operator and the trace after a JSON round trip determine the output exactly:
    the replay reads every chosen scalar from the wire form, and one ulp off the traced t
    gives another output."""
    signed, trace = pd_decompose(s)
    trace_obj = wire_trace(trace)
    assert replay_pd_decompose(s, trace_obj) == signed
    pencil = next(step["data"] for step in trace_obj["steps"] if step["name"] == "diag_pencil")
    pencil["t"] = float(np.nextafter(pencil["t"], 1.0))
    assert replay_pd_decompose(s, trace_obj) != signed


@pytest.mark.parametrize("t, pd", [
    (I2, True),
    (np.diag([1.0, 5e-324]), True),  # a subnormal eigenvalue: below every tol, exactly PD
    (-I2, False),
    (np.diag([1.0, 0.0]), False),
    (np.ones((2, 2)), False),
    (np.array([[1.0, 2.0], [0.0, 1.0]]), False),  # T + T* = [[2, 2], [2, 2]]
], ids=["identity", "subnormal", "minus-identity", "diag-1-0", "ones", "shear"])
def test_exact_pd_decides_each_cell(t, pd):
    assert exact_pd(t) is pd


def pd_decompose_claims(signed):
    """The factors pd_decompose claims positive definite: a_1, a_2 and every right factor."""
    return [signed.terms[0].a, signed.terms[1].a, *(t.b for t in signed.terms)]


EXACT_CLAIM_CORPUS = [
    *(pytest.param(psd_sum(np.random.default_rng(60 + d), d, d * d), id=f"psd-d{d}")
      for d in (2, 3, 4)),
    *(pytest.param(counterexample_superop(t), id=f"counterexample-{t}")
      for t in (0.25, 1e-4, 1e-6)),
    *(pytest.param(psd_sum(np.random.default_rng(seed), 8, 64), id=f"psd-d8-{seed}")
      for seed in (0, 1)),
]


@pytest.mark.parametrize("s", EXACT_CLAIM_CORPUS)
def test_every_pd_claim_of_pd_decompose_is_exactly_pd(s):
    signed, _ = pd_decompose(s)
    claims = pd_decompose_claims(signed)
    assert len(claims) == len(signed.terms) + 2
    assert all(exact_pd(x) for x in claims)


@pytest.mark.parametrize("s", EXACT_CLAIM_CORPUS)
def test_every_psd_claim_of_pd_decompose_is_exactly_psd(s):
    """The left factors after a_2 are claimed PSD: the diagonal units and the lifted
    off-diagonal Hermitian units."""
    signed, _ = pd_decompose(s)
    assert all(exact_psd(t.a) for t in signed.terms[2:])


def test_every_right_factor_of_two_sum_is_exactly_pd():
    for label, terms in two_sum_corpus():
        signed, _ = two_sum_pd(*terms[0], *terms[1])
        assert all(exact_pd(t.b) for t in signed.terms), label


def test_every_left_factor_of_two_sum_is_exactly_psd():
    for label, terms in two_sum_corpus():
        signed, _ = two_sum_pd(*terms[0], *terms[1])
        assert all(exact_psd(t.a) for t in signed.terms), label


@pytest.mark.parametrize("t, psd", [
    (I2, True),
    (np.diag([1.0, 0.0]), True),
    (np.zeros((2, 2)), True),
    (np.ones((2, 2)), True),  # rank one
    (np.array([[1.0, 2.0], [0.0, 1.0]]), True),  # T + T* = [[2, 2], [2, 2]]
    (np.array([[1.0, 1j], [0.0, 1.0]]), True),  # T + T* = [[2, i], [-i, 2]]
    (-I2, False),
    (np.diag([1.0, -5e-324]), False),  # a subnormal negative eigenvalue: below every tol
    (np.array([[0.0, 1.0], [1.0, 0.0]]), False),  # zero diagonal, nonzero remainder
    (np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 1.0, 0]]), False),  # the same after one pivot
], ids=["identity", "diag-1-0", "zero", "ones", "shear", "complex", "minus-identity",
        "subnormal-negative", "swap", "swap-after-a-pivot"])
def test_exact_psd_decides_each_cell(t, psd):
    assert exact_psd(t) is psd


def one_sum_corpus():
    """(label, a, b, pd): PD pairs scaled by (c, 1/c), real, complex and mirrored, and rank-one
    factors v v* of small integers, exactly PSD, beside a PD factor, under scalings c."""
    for kind in ("real", "complex", "mirror"):
        rng = np.random.default_rng(["real", "complex", "mirror"].index(kind) + 37)
        for i in range(10):
            yield f"{kind}-{i}", *scrambled_pairs(rng, int(rng.integers(2, 6)), kind)[0], True
    rng = np.random.default_rng(62)
    rank_one = np.outer([1.0, 2.0, -1.0], [1.0, 2.0, -1.0])
    for c in (1.0, -3.0, 0.6 + 0.8j, 2 - 1j, 1j):
        pd = random_pd(rng, 3)
        yield f"rank-one-left-{c}", c * rank_one, pd / c, False
        yield f"rank-one-right-{c}", c * pd, rank_one / c, False


def test_one_sum_positive_claims_hold_exactly():
    """Both factors are claimed PSD, and PD when the operator is."""
    for label, a, b, pd in one_sum_corpus():
        a_hat, b_hat, _ = one_sum_positive(a, b)
        assert all(exact_psd(x) for x in (a_hat, b_hat)), label
        assert all(exact_pd(x) for x in (a_hat, b_hat)) is pd, label


@pytest.mark.parametrize("c", [
    1.0,
    1e-6,
    pytest.param(6e-10, marks=pytest.mark.xfail(
        raises=DegenerateFactorError, strict=True,
        reason="Known issue 1: the threshold floor tol max(1, ||b||_F) exceeds <f0, b f0> = c")),
    pytest.param(3e-10, marks=pytest.mark.xfail(
        raises=NotPositiveError, strict=True,
        reason="Known issue 1: _classified's absolute zero test reads the operator as zero")),
])
def test_one_sum_positive_is_scale_covariant(c):
    """one_sum_positive(I, c I) is the same operator at every c > 0 up to scale, so it is
    rescaled by alpha = c to the factors (c I, I) at every c."""
    a_hat, b_hat, trace = one_sum_positive(I2, c * I2)
    assert trace.step("rescale").data["alpha"] == c
    assert np.array_equal(a_hat, c * I2) and np.array_equal(b_hat, I2)


def test_two_sum_left_stage_folds_on_the_hermitian_part_of_the_offset_factor():
    """At tol 1e-3 a right factor may carry a skew part of 1e-4: the left stage's f0 is the
    top eigenvector of the Hermitian part of b_2 - t b_1, which eigh alone (one triangle)
    would miss in the fifth digit."""
    rng = np.random.default_rng(40)
    b2 = random_pd(rng, 2) + 1e-4 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    terms = [(I2, I2), (0.3 * np.diag([1.0, -0.5]), b2)]
    _, trace = two_sum_pd(*terms[0], *terms[1], tol=1e-3)
    assert [s.name for s in trace.steps] == ["classify", "right_pencil", "fold_left",
                                            "left_pencil"]
    offset_b = replay_two_sum(terms, wire_trace(trace), until="right_pencil").terms[1].b
    top = np.linalg.eigh(core.hermitian_part(offset_b))[1][:, -1]
    assert trace.step("fold_left").data["f0"].tobytes() == top.tobytes()


def scrambled_pairs(rng, d, kind):
    """Two PD pairs, the first scaled by (c, 1/c): real symmetric factors with c = -3, or
    complex ones with a complex c; "mirror" transposes the complex pairs as --mirror does."""
    pairs = [(random_pd(rng, d), random_pd(rng, d)) for _ in range(2)]
    if kind == "real":
        pairs = [(a.real, b.real) for a, b in pairs]
    c = -3.0 if kind == "real" else complex(*rng.standard_normal(2))
    terms = [(c * pairs[0][0], pairs[0][1] / c), pairs[1]]
    return [(b.T, a.T) for a, b in terms] if kind == "mirror" else terms


def same_bits(x, y) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


@pytest.mark.parametrize("kind", ["real", "complex", "mirror"])
def test_trace_lambda_min_fields_match_classify_bitwise(kind):
    """The lambda_min_* trace fields are classify_hermitian's lambda_min of the factors they
    name; mirrored factors are column-major, as the CLI's --mirror hands them over."""
    rng = np.random.default_rng(["real", "complex", "mirror"].index(kind) + 37)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        terms = scrambled_pairs(rng, d, kind)
        a_hat, b_hat, trace = one_sum_positive(*terms[0])
        data = trace.step("rescale").data
        assert same_bits(data["lambda_min_a"], classify_hermitian(a_hat).lambda_min)
        assert same_bits(data["lambda_min_b"], classify_hermitian(b_hat).lambda_min)

        signed, trace = two_sum_pd(*terms[0], *terms[1])
        data = trace.step("right_pencil").data
        after = replay_two_sum(terms, wire_trace(trace), until="right_pencil")
        combined_a, offset_b = after.terms[0].a, after.terms[1].b
        assert combined_a.tobytes() == signed.terms[0].a.tobytes()
        assert same_bits(data["lambda_min_combined_a"], classify_hermitian(combined_a).lambda_min)
        assert same_bits(data["lambda_min_offset_b"], classify_hermitian(offset_b).lambda_min)
        assert min(data["lambda_min_combined_a"], data["lambda_min_offset_b"]) > 0


def test_one_and_two_sum_make_no_eigvalsh_call(monkeypatch):
    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("np.linalg.eigvalsh called")
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    terms = scrambled_pairs(np.random.default_rng(40), 3, "complex")
    one_sum_positive(*terms[0])
    two_sum_pd(*terms[0], *terms[1])


# ---------------------------------------------------------------- diag blocks


def test_diag_blocks_identity():
    out = diag_blocks(identity_superop(3))
    assert len(out) == 3
    for block, report in out:
        np.testing.assert_allclose(block, np.eye(3), atol=1e-12)
        assert report.kind is PositivityClass.POSITIVE_DEFINITE
        assert report.lambda_min == pytest.approx(1.0)


def test_diag_blocks_counterexample():
    out = diag_blocks(counterexample_superop(0.3))
    assert len(out) == 2
    for _, report in out:
        assert report.is_pd
        assert report.lambda_min >= 0.3 - 1e-9


def test_diag_blocks_psd_singular_fixture():
    s = LRSum.from_pairs(
        [(matrix_unit(2, n, n), matrix_unit(2, n, n)) for n in (1, 2)], 2
    )
    for _, report in diag_blocks(s):
        assert report.lambda_min >= -1e-10


def test_diag_blocks_rejects_non_hermitian():
    s = LRSum.from_pairs([(matrix_unit(2, 1, 2), matrix_unit(2, 1, 2))], 2)
    with pytest.raises(NotSelfadjointError, match="^Liouville matrix is not Hermitian: defect "):
        diag_blocks(s)


def test_diag_blocks_work_counts(monkeypatch):
    """One eigh per diagonal block; the d^2 x d^2 Liouville matrix is only tested for
    Hermiticity, and a non-selfadjoint input is refused before any eigensolve."""
    d = 4
    s = psd_sum(np.random.default_rng(49), d, 3)
    counts = count_linalg(monkeypatch, "eigh")
    assert len(diag_blocks(s)) == d
    assert counts["eigh"] == d
    counts["eigh"] = 0
    s = LRSum.from_pairs([(matrix_unit(d, 1, 2), matrix_unit(d, 1, 2))], d)
    with pytest.raises(NotSelfadjointError):
        diag_blocks(s)
    assert counts["eigh"] == 0


def test_diag_blocks_glb_bound_random():
    rng = np.random.default_rng(36)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        m = random_pd_liouville(rng, d)
        s = from_liouville(m, "left")
        m_a = classify_superop(s).lambda_min
        for _, report in diag_blocks(s):
            assert report.lambda_min >= m_a - 1e-8


# ---------------------------------------------------------------- pd_decompose


def check_pd_output(signed, m_ref, tol=1e-8):
    signs = [t.sign for t in signed.terms]
    assert signs[0] == -1 and all(s == 1 for s in signs[1:])
    assert is_pd(signed.terms[0].a)
    assert is_pd(signed.terms[1].a)
    assert all(is_psd(t.a) for t in signed.terms[2:])
    assert all(is_pd(t.b) for t in signed.terms)
    assert rel_err(signed_liouville(signed), m_ref) <= tol


def test_pd_decompose_identity():
    signed, _ = pd_decompose(identity_superop(2))
    check_pd_output(signed, np.eye(4))


def test_pd_decompose_counterexample():
    s = counterexample_superop(0.25)
    signed, _ = pd_decompose(s)
    check_pd_output(signed, to_liouville(s))


def test_pd_decompose_rejects_indefinite():
    x = matrix_unit(2, 1, 2) + matrix_unit(2, 2, 1)
    with pytest.raises(NotPositiveDefiniteError):
        pd_decompose(LRSum.from_pairs([(x, x)], 2))


def test_pd_decompose_scalar_dimension():
    s = LRSum.from_pairs([(np.array([[2.0]]), np.array([[1.5]]))], 1)
    signed, _ = pd_decompose(s)
    check_pd_output(signed, to_liouville(s), tol=1e-12)


@pytest.mark.parametrize("eps, dropped", [(3.5e-13, [(1, 0)]), (3.5e-14, [(0, 1), (1, 0)])])
def test_pd_decompose_drops_a_remainder_block_below_1e_13_of_the_operator(eps, dropped):
    """I + eps (h_12 (x) X) leaves the remainder block of pair (0, 1) with norm eps sqrt(2)
    and that of (1, 0) zero; the drop threshold is 1e-13 max(1, ||L||_F) = 2e-13."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    s = LRSum.from_pairs([(I2, I2), (eps * hermitian_unit(2, 1, 2), x)])
    signed, trace = pd_decompose(s)
    assert trace.step("margins").data["dropped"] == dropped
    assert len(signed.terms) == 4 - len(dropped)
    check_pd_output(signed, to_liouville(s))


def test_pd_decompose_random():
    rng = np.random.default_rng(37)
    for _ in range(30):
        d = int(rng.integers(2, 4))
        m = random_pd_liouville(rng, d)
        signed, _ = pd_decompose(from_liouville(m, "left"))
        check_pd_output(signed, m)


def test_pd_decompose_trace_replay():
    rng = np.random.default_rng(38)
    d = 3
    m = random_pd_liouville(rng, d)
    s = from_liouville(m, "left")
    signed, trace = pd_decompose(s)
    stack = selfadjoint_blocks(to_liouville(s))
    blocks = {divmod(k, d): stack[k] for k in range(d * d)}
    pen = trace.step("diag_pencil").data
    margins = trace.step("margins").data
    lifts = trace.step("lifts").data
    t, gamma, g11 = pen["t"], pen["gamma"], pen["gamma11"]
    e11, e22 = matrix_unit(d, 1, 1), matrix_unit(d, 2, 2)
    others = [(n, mm) for n in range(d) for mm in range(d) if (n, mm) not in ((0, 0), (1, 1))]
    from hsdecomp import hermitian_unit

    hat = {nm: hermitian_unit(d, nm[0] + 1, nm[1] + 1) for nm in others}
    left_comb = g11 * (e11 + t * e22) + sum(gamma[nm].real * hat[nm] for nm in others)
    right1 = blocks[(0, 0)] / g11
    right2 = blocks[(1, 1)] - t * blocks[(0, 0)]
    rest = {
        nm: blocks[nm] - (gamma[nm] / g11) * blocks[(0, 0)]
        for nm in others
        if nm not in [tuple(p) for p in margins["dropped"]]
    }
    beta, alpha, lam = margins["beta"], margins["alpha"], lifts["lam"]
    right3 = {nm: beta[nm] * right2 + rest[nm] for nm in rest}
    left2 = e22 - sum(beta[nm] * hat[nm] for nm in rest)
    neg_left = alpha * left_comb - left2
    neg_right = right2 + sum(lam[nm] * right3[nm] for nm in lam)
    rebuilt = [(-1, neg_left, neg_right), (1, left_comb, right1 + alpha * right2)]
    for nm in sorted(rest):
        n, mm = nm
        if n != mm:
            rebuilt.append((1, hat[nm] + lam[nm] * neg_left, right3[nm]))
        else:
            rebuilt.append((1, matrix_unit(d, n + 1, n + 1), right3[nm]))
    assert len(rebuilt) == len(signed.terms)
    for (sign, a, b), produced in zip(rebuilt, signed.terms):
        assert sign == produced.sign
        np.testing.assert_allclose(a, produced.a, atol=1e-10)
        np.testing.assert_allclose(b, produced.b, atol=1e-10)


@pytest.mark.parametrize("s", [1e154, 1e200, 1e300])
def test_decompositions_where_the_squared_norms_overflow(s):
    """Every factor norm here is in range but its square is not. An overflowed norm made
    the thresholds infinite: pd_decompose dropped every off-diagonal block, two_sum_pd took
    its one-sum fallback and one_sum_positive found no nonvanishing direction. Liouville
    matrices are compared divided by s, where rel_err's np.linalg.norm does not overflow."""
    rng = np.random.default_rng(5)
    op = LRSum.from_pairs([(s * t.a, t.b) for t in psd_sum(rng, 3, 9).terms], 3)
    a1, b1, a2, b2 = (random_pd(rng, 3) for _ in range(4))
    signed, _ = pd_decompose(op)
    assert rel_err(signed_liouville(signed) / s, to_liouville(op) / s) <= 1e-9
    signed, _ = two_sum_pd(s * a1, b1, s * a2, b2)
    m = to_liouville(LRSum.from_pairs([(s * a1, b1), (s * a2, b2)]))
    assert rel_err(signed_liouville(signed) / s, m / s) <= 1e-9
    a_hat, b_hat, _ = one_sum_positive(a1, s * b1)
    m = to_liouville(LRSum.from_pairs([(a1, s * b1)]))
    assert rel_err(to_liouville(LRSum.from_pairs([(a_hat, b_hat)])) / s, m / s) <= 1e-12


# ---------------------------------------------------------------- zeta


def scalar_fixture():
    return SignedLRSum(2, (SignedTerm(-1, I2, I2), SignedTerm(1, 3 * I2, 2 * I2)))


def test_grow_margins_first_checks_are_stacked_then_grown_in_order(monkeypatch):
    base = np.eye(2)
    # required = -lambda_min(offset, base): 0, 3, -2 and 0
    offsets = np.array([np.diag([0.0, 1.0]), np.diag([-3.0, 1.0]),
                        np.diag([2.0, 3.0]), np.diag([0.0, 5.0])])
    labels = ["first", "second", "third", "fourth"]
    tested = []
    positive = posdecomp._positive

    def spy(stack, *args, **kwargs):
        tested.append(np.array(stack))
        return positive(stack, *args, **kwargs)

    monkeypatch.setattr(posdecomp, "_positive", spy)
    counts = count_linalg(monkeypatch, "eigh", "cholesky")
    # entries 0 and 3 start at 0, where the offset is PSD but not PD, and grow by v -> 2v + 1
    # to 1; entry 1 holds at 6 and entry 2 at 0. One pencil solve (an eigh and the cholesky of
    # its base), one stacked check (a failing cholesky, then one per matrix), two growths.
    values, stack = _grow_margins(base, offsets, True, 1e-9, _Tracer(), labels)
    assert values.tolist() == [1.0, 6.0, 0.0, 1.0]
    assert np.array_equal(stack, values[:, None, None] * base + offsets)
    assert counts == {"eigh": 1, "cholesky": 1 + (1 + 4) + 2}
    assert [len(t) for t in tested] == [4, 1, 1]
    assert np.array_equal(tested[1][0], offsets[0] + base)
    assert np.array_equal(tested[2][0], offsets[3] + base)
    values, stack = _grow_margins(base, offsets, False, 1e-9, _Tracer(), labels)
    assert values.tolist() == [0.0, 6.0, 0.0, 0.0]
    assert np.array_equal(stack, values[:, None, None] * base + offsets)


@pytest.mark.parametrize("offset, grown", [
    # required = -2: the first candidate 0 leaves lambda_min 2 below the threshold 1e-9 *
    # ||offset||_F, about 10, and v -> 2 v + |required| reaches 14 (eigenvalue 16)
    (np.diag([1e10, 2.0]), 14.0),
    # required = 3: the first candidate 6 leaves 3, and one growth 2 * 6 + 3 passes
    (np.diag([-3.0, 1e10]), 15.0),
], ids=["required-below-zero", "required-above-zero"])
def test_grow_margins_grows_by_twice_the_value_plus_the_required_magnitude(offset, grown):
    values, stack = _grow_margins(np.eye(2), offset[None], True, 1e-9, _Tracer(), ["v"])
    assert values.tolist() == [grown]
    assert np.array_equal(stack[0], grown * np.eye(2) + offset)


def test_grow_margins_on_an_empty_stack():
    values, stack = _grow_margins(np.eye(2), np.zeros((0, 2, 2)), True, 1e-9, _Tracer(), [])
    assert values.shape == (0,) and stack.shape == (0, 2, 2)


def test_grow_margins_stall_raises_with_label_and_failed_step():
    base = np.diag([1.0, 1e-12])
    # the first entry grows and passes at 1; (v - 1/4) base keeps lambda_min below the
    # threshold 1e-9 max(1, ||.||_F) at every v, so the second stalls (and the third would)
    offsets = np.array([np.diag([0.0, 1.0]), -0.25 * base, np.zeros((2, 2))])
    tracer = _Tracer()
    tracer.add("before")
    with pytest.raises(NoProgressError, match=r"^beta_\(0, 1\): margin search stalled$") as info:
        _grow_margins(base, offsets, True, 1e-9, tracer,
                      ["beta_(0, 0)", "beta_(0, 1)", "beta_(1, 0)"])
    steps = info.value.trace.steps
    assert [s.name for s in steps] == ["before", "beta_(0, 1)"]
    assert steps[-1].data == {"required": 0.25, "failed": True}
    assert type(steps[-1].data["required"]) is float
    assert isinstance(info.value, NumericalError)


def test_zeta_check_degenerate_negative_term():
    d = SignedLRSum(2, (SignedTerm(-1, np.zeros((2, 2)), 0.5 * I2), SignedTerm(1, I2, I2)))
    assert zeta_check(d, ZetaCertificate((1.0,))).ok


def test_zeta_check_scalar_true():
    res = zeta_check(scalar_fixture(), ZetaCertificate((0.5,)))
    assert res.ok
    assert res.b_margins[0] == pytest.approx(1.5)
    assert res.a_margin == pytest.approx(0.5)


def test_zeta_check_scalar_false():
    res = zeta_check(scalar_fixture(), ZetaCertificate((3.0,)))
    assert not res.ok
    assert res.b_margins[0] == pytest.approx(-1.0)


def test_zeta_check_shape_errors():
    with pytest.raises(InputError):
        zeta_check(scalar_fixture(), ZetaCertificate((0.5, 0.5)))
    all_plus = SignedLRSum(2, (SignedTerm(1, I2, I2),))
    with pytest.raises(InputError):
        zeta_check(all_plus, ZetaCertificate((1.0,)))
    with pytest.raises(InputError):
        ZetaCertificate((0.0,))


def test_zeta_search_shape_errors_name_the_decomposition():
    """The search is given no certificate, so its shape errors speak of the decomposition;
    zeta_check keeps reporting the certificate length."""
    with pytest.raises(InputError, match="^decomposition has no terms$"):
        find_zeta_certificate(SignedLRSum(2, ()))
    lone = SignedLRSum(2, (SignedTerm(-1, I2, I2),))
    with pytest.raises(
        InputError, match="^decomposition has only its negative term, no non-negative terms$"
    ):
        find_zeta_certificate(lone)
    with pytest.raises(InputError, match="^certificate length 1 does not match 0 non-negative"):
        zeta_check(lone, ZetaCertificate((1.0,)))


def test_zeta_transform_scalar():
    out = zeta_transform(scalar_fixture(), ZetaCertificate((0.5,)))
    assert len(out) == 2
    np.testing.assert_allclose(out.terms[0].a, 0.5 * I2, atol=1e-12)
    np.testing.assert_allclose(out.terms[0].b, I2, atol=1e-12)
    np.testing.assert_allclose(out.terms[1].a, 3 * I2, atol=1e-12)
    np.testing.assert_allclose(out.terms[1].b, 1.5 * I2, atol=1e-12)
    assert rel_err(to_liouville(out), signed_liouville(scalar_fixture())) <= 1e-12


def test_zeta_transform_rejects_invalid():
    with pytest.raises(CertificateInvalidError):
        zeta_transform(scalar_fixture(), ZetaCertificate((3.0,)))


def test_zeta_roundtrip_on_identity_decomposition():
    s = identity_superop(2)
    signed, _ = pd_decompose(s)
    cert = find_zeta_certificate(signed)
    assert cert is not None
    out = zeta_transform(signed, cert)
    assert rel_err(to_liouville(out), np.eye(4)) <= 1e-8
    assert all(is_psd(t.a) for t in out.terms)
    assert all(is_pd(t.b) for t in out.terms)
    assert stacked_kernel_trivial([t.a for t in out.terms])


def test_zeta_search_near_identity():
    rng = np.random.default_rng(39)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        h = random_hermitian(rng, d * d)
        h /= np.linalg.norm(h)
        m = np.eye(d * d) + 0.15 * h
        signed, _ = pd_decompose(from_liouville(m, "left"))
        cert = find_zeta_certificate(signed)
        assert cert is not None
        out = zeta_transform(signed, cert)
        assert rel_err(to_liouville(out), m) <= 1e-10


def test_zeta_search_fails_on_counterexample():
    # no all-nonnegative rewrite of this operator can exist, so the
    # search must come back empty for every t
    for t in (0.1, 0.25, 0.4):
        signed, _ = pd_decompose(counterexample_superop(t))
        assert find_zeta_certificate(signed) is None


def test_zeta_certificate_rejects_non_finite():
    with pytest.raises(InputError, match="zetas must be finite"):
        ZetaCertificate((np.inf,))
    with pytest.raises(InputError, match=r"zetas must be finite, got \[1.0, inf\]"):
        ZetaCertificate((1.0, np.inf))
    with pytest.raises(InputError):
        ZetaCertificate((np.nan,))


def test_zeta_search_rejects_no_halvings():
    signed, _ = pd_decompose(identity_superop(2))
    for bad in (0, -3):
        with pytest.raises(InputError, match="max_halvings"):
            find_zeta_certificate(signed, max_halvings=bad)
    assert find_zeta_certificate(signed, max_halvings=1) is not None


def test_zeta_search_rejects_non_integer_halvings():
    signed, _ = pd_decompose(identity_superop(2))
    for bad in (1.5, 2.0, True, "3", None):
        with pytest.raises(InputError, match="max_halvings must be an integer of at least 1"):
            find_zeta_certificate(signed, max_halvings=bad)
    assert find_zeta_certificate(signed, max_halvings=np.int64(1)) is not None


def a_passes_b_fails_fixture():
    """Along the search ray the a-condition holds from k = 12 on, while
    b_2 - zeta_2 b_1 = 2^-k 1e-6 I is below the threshold from k = 10 on."""
    x = (1 - 2.0**-12) * (1 + 1e-6)
    return SignedLRSum(2, (
        SignedTerm(-1, x * I2, I2), SignedTerm(1, I2, 1e-6 * I2), SignedTerm(1, I2, I2),
    ))


def ray_window_fixture():
    """The ray sum S = diag(1/0.7, -1/0.9) is indefinite: -a_1 + c S is PSD only for
    c in [0.7, 0.9], so the a-condition holds at k = 2 and 3 and fails at the limit."""
    return SignedLRSum(2, (
        SignedTerm(-1, np.diag([1.0, -1.0]), I2), SignedTerm(1, np.diag([1 / 0.7, -1 / 0.9]), I2),
    ))


def near_threshold_fixture():
    """At 20 halvings the limit a-matrix is about -5e-9 I: below its threshold 1e-9, but
    within the slack, which scales with ||a_1||_F + zeta ||a_2||_F (about 2.8e3)."""
    x = (1 - 2.0**-20) * 1e3 + 5e-9
    return SignedLRSum(2, (SignedTerm(-1, x * I2, I2), SignedTerm(1, 1e3 * I2, I2)))


def zeta_corpus():
    rng = np.random.default_rng(45)
    for d in (2, 3, 4, 5):
        for _ in range(2):
            h = random_hermitian(rng, d * d)
            m = np.eye(d * d) + rng.uniform(0.02, 0.1) * h / np.linalg.norm(h)
            yield "near-identity", pd_decompose(from_liouville(m, "left"))[0]
        yield "psd-sum", pd_decompose(psd_sum(rng, d, d * d))[0]
    for _ in range(2):
        yield "psd-sum-d8", pd_decompose(psd_sum(rng, 8, 64))[0]
    for t in (0.1, 0.25, 0.4):
        yield "counterexample", pd_decompose(counterexample_superop(t))[0]
    yield "a-passes-b-fails", a_passes_b_fails_fixture()
    yield "ray-window", ray_window_fixture()
    yield "near-threshold", near_threshold_fixture()


def test_zeta_search_matches_reference():
    outcomes = {}
    for label, signed in zeta_corpus():
        for halvings in (1, 5, 20):
            cert = find_zeta_certificate(signed, max_halvings=halvings)
            ref = find_zeta_certificate_reference(signed, max_halvings=halvings)
            assert (cert is None) == (ref is None), label
            if cert is not None:
                assert np.array(cert.zetas).tobytes() == np.array(ref.zetas).tobytes()
        outcomes.setdefault(label, []).append(cert is not None)
    assert all(outcomes["near-identity"])
    assert not any(outcomes["counterexample"] + outcomes["psd-sum"][1:] + outcomes["psd-sum-d8"])
    assert outcomes["a-passes-b-fails"] == [False]
    assert outcomes["ray-window"] == [True]
    assert outcomes["near-threshold"] == [False]


def seed_7_corpus(dims, cs):
    """Operators with Liouville matrix X X* / d^2 + c I, X of d^2 x d^2 entries (N + iN)/sqrt(2),
    drawn from one seed-7 generator, 40 per (d, c) cell, d outer."""
    rng = np.random.default_rng(7)
    for d in dims:
        for c in cs:
            for _ in range(40):
                n = d * d
                x = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
                yield from_liouville(x @ x.conj().T / n + c * np.eye(n))


@pytest.mark.parametrize("dims, cs, hits", [
    ((2,), (2, 8, 16, 32), 121),
    ((2, 3), (0.5, 2, 8), 42),
], ids=["d2-c2-to-32", "d2-d3-c0.5-to-8"])
def test_zeta_search_matches_reference_on_the_seed_7_corpora(dims, cs, hits):
    """Hits at k = 1 to 8 and misses, each decided before or by the walk, as the walk decides."""
    found = 0
    for s in seed_7_corpus(dims, cs):
        signed = pd_decompose(s)[0]
        cert = find_zeta_certificate(signed)
        ref = find_zeta_certificate_reference(signed)
        assert (cert is None) == (ref is None)
        if cert is not None:
            assert np.array(cert.zetas).tobytes() == np.array(ref.zetas).tobytes()
            found += 1
    assert found == hits


def test_zeta_transform_claims_hold_exactly():
    """On every hit of the d = 2 seed-7 corpus the rewrite's claims hold in exact arithmetic:
    every right factor PD, the combined left factor and the others PSD. Its exact Liouville
    residual (max-entry, relative) is at most 4 rho u, rho = sum ||a_n||_F ||b_n||_F / ||L||_F
    the output's growth factor and u = 2^-53; the corpus reaches 1.55 rho u."""
    hits = 0
    for s in seed_7_corpus((2,), (2, 8, 16, 32)):
        signed = pd_decompose(s)[0]
        cert = find_zeta_certificate(signed)
        if cert is None:
            continue
        out = zeta_transform(signed, cert)
        assert all(exact_pd(t.b) for t in out.terms) and all(exact_psd(t.a) for t in out.terms)
        rho = sum(frob_norm(t.a) * frob_norm(t.b) for t in out.terms) / frob_norm(to_liouville(out))
        assert exact_residual(signed, out) <= 4 * rho * 2.0**-53
        hits += 1
    assert hits == 121


@pytest.mark.parametrize("out, residual", [
    (lambda s: s, 0.0),
    # the same operator, each term's factors scaled by 2 and 1/2: exact, so no residual
    (lambda s: LRSum.from_pairs([(2 * t.a, t.b / 2) for t in s.terms]), 0.0),
    # one entry one ulp up: a residual of exactly that ulp over max |L| = 1
    (lambda s: LRSum.from_pairs([(np.diag([1.0, np.nextafter(1.0, 2.0)]), I2)]), 2.0**-52),
    (lambda s: LRSum.from_pairs([(-I2, I2)]), 2.0),
], ids=["same", "rescaled", "one-ulp", "negated"])
def test_exact_residual_decides_each_cell(out, residual):
    s = LRSum.from_pairs([(I2, I2)], 2)
    assert exact_residual(s, out(s)) == residual


def test_ray_window_certificate_is_found_by_the_walk():
    cert = find_zeta_certificate(ray_window_fixture())
    assert cert is not None and cert.zetas == (0.75,)
    assert find_zeta_certificate(ray_window_fixture(), max_halvings=1) is None
    assert not zeta_check(ray_window_fixture(), ZetaCertificate((1 - 2.0**-20,))).ok


def test_near_threshold_miss_is_left_to_the_walk(monkeypatch):
    """The limit fails its own test, but within the slack: after the lead check (a
    cholesky), the pencil (a cholesky and an eigh) and the limit check, the search walks all
    20 halvings, one eigh each."""
    signed = near_threshold_fixture()
    limit = zeta_check(signed, ZetaCertificate((1 - 2.0**-20,)))
    assert -1e-8 < limit.a_margin < -1e-9 and not limit.ok
    counts = count_linalg(monkeypatch, "eigh", "cholesky")
    assert find_zeta_certificate(signed) is None
    assert counts == {"eigh": 2 + 20, "cholesky": 2}


def test_a_passes_b_fails_fixture_exercises_both_branches():
    signed = a_passes_b_fails_fixture()
    zetas = tuple((1 - 2.0**-12) * b for b in (1e-6, 1.0))
    ok, b_margins, a_margin = zeta_check_reference(signed, zetas)
    assert a_margin >= 0 and b_margins[0] > 0 and not ok


def test_zeta_check_matches_reference_bitwise():
    rng = np.random.default_rng(46)
    for label, signed in zeta_corpus():
        lead = signed.terms[0]
        bounds = np.array([pencil_extremes(t.b, lead.b).lambda_min for t in signed.terms[1:]])
        for zetas in (0.5 * bounds, 0.999 * bounds, 1.5 * bounds,
                      rng.uniform(0.01, 2.0, len(bounds))):
            zetas = np.where(zetas > 0, zetas, 1e-3)
            res = zeta_check(signed, ZetaCertificate(tuple(zetas)))
            ok, b_margins, a_margin = zeta_check_reference(signed, zetas)
            assert res.ok == ok, label
            assert np.array(res.b_margins).tobytes() == np.array(b_margins).tobytes()
            assert np.float64(res.a_margin).tobytes() == np.float64(a_margin).tobytes()


def test_non_finite_zeta_difference_is_input_error():
    # the a-condition fails here (-a_1 + zeta * 0 = -I), and the search's
    # a-first order must still report the overflowed b_2 - zeta b_1
    decomp = SignedLRSum(2, (SignedTerm(-1, I2, 10 * I2), SignedTerm(1, 0 * I2, I2)))
    lead, a_n, b_n = _zeta_parts(decomp, 1)
    with np.errstate(over="ignore"):
        with pytest.raises(InputError, match="T: entries must be finite"):
            zeta_check(decomp, ZetaCertificate((1e308,)))
        with pytest.raises(InputError, match="T: entries must be finite"):
            _zeta_conditions(lead, a_n, b_n, np.array([1e308]), 1e-9, a_first=True)


def test_an_overflowing_rewrite_is_input_error_without_a_warning():
    """zeta = 1e308 overflows b_2 - zeta b_1: the check refuses it as an InputError, with no
    RuntimeWarning on the way (one is an exception under warnings-as-errors, as in tier-1)."""
    decomp = SignedLRSum(2, (SignedTerm(-1, I2, 10 * I2), SignedTerm(1, 10 * I2, I2)))
    for call in (zeta_check, zeta_transform):
        with pytest.raises(InputError, match="T: entries must be finite"):
            call(decomp, ZetaCertificate((1e308,)))


def test_overflow_at_the_ray_limit_is_left_to_the_walk():
    """zeta a_2 overflows at the limit (about 1.5 * 1.3e308) but not at k = 2, where the
    walk finds the certificate (its -1 lies within the threshold tol * ||a||_F, about
    4.9e298, as in the reference): the limit check must leave the search to the walk, not
    raise."""
    alpha = 1.3e308
    signed = SignedLRSum(2, (
        SignedTerm(-1, np.diag([0.75 * alpha, 1.0]), I2),
        SignedTerm(1, np.diag([alpha, 0.0]), 1.5 * I2),
    ))
    with np.errstate(over="ignore"):
        cert = find_zeta_certificate(signed)
        assert cert == find_zeta_certificate_reference(signed) == ZetaCertificate((1.125,))


def test_a_norm_beyond_the_float_range_at_the_ray_limit_is_left_to_the_walk():
    """The ray sum 1.5e308 I has finite entries but a norm beyond the float range, so the
    limit check cannot decide; the walk rejects k = 1 (a-matrix diag(0, -1e306)) and finds
    the certificate at k = 2, as the reference does."""
    alpha = 1e308
    signed = SignedLRSum(2, (
        SignedTerm(-1, np.diag([0.75 * alpha, 0.76 * alpha]), I2),
        SignedTerm(1, alpha * I2, 1.5 * I2),
    ))
    cert = find_zeta_certificate(signed)
    assert cert == find_zeta_certificate_reference(signed) == ZetaCertificate((1.125,))


def test_zeta_search_work_counts(monkeypatch):
    """Counts, not wall time: this search has no certificate, and the ray-limit check
    decides the miss before the walk. It factors b_1 twice, once for the lead check and
    once as the pencil base, and makes 2 eigh calls, the pencil's and the limit's."""
    signed, _ = pd_decompose(psd_sum(np.random.default_rng(47), 4, 16))
    counts = count_linalg(monkeypatch, "eigh", "cholesky")
    assert find_zeta_certificate(signed, max_halvings=20) is None
    assert counts == {"eigh": 2, "cholesky": 2}


@pytest.mark.parametrize("make", [
    lambda: counterexample_superop(0.25),
    lambda: psd_sum(np.random.default_rng(50), 8, 64),
], ids=["counterexample", "psd-sum-d8"])
def test_ray_limit_decides_a_miss_in_fixed_work(monkeypatch, make):
    """Counts, not wall time: a miss decided at the end of the ray makes 2 eigh calls
    (the shared pencil, the limit with the ray sum, before the walk) and 2 cholesky calls
    (the lead check of b_1, the pencil base), however many halvings the ray has."""
    signed, _ = pd_decompose(make())
    counts = count_linalg(monkeypatch, "eigh", "cholesky")
    for max_halvings in (20, 60):
        counts.update(eigh=0, cholesky=0)
        assert find_zeta_certificate(signed, max_halvings=max_halvings) is None
        assert counts == {"eigh": 2, "cholesky": 2}


def test_the_walk_ends_at_the_last_distinct_point_of_the_ray(monkeypatch):
    """Counts: 1 - 2^-k is exactly 1.0 from k = 54 on, so an undecided walk stops there. On
    this fixture the limit passes, and the walk makes 11 a-checks that fail (k = 1 to 11)
    and 43 that pass with their stacked b-check (k = 12 to 54): with the pencil and the
    limit, 99 eigh calls at any max_halvings from 54 on."""
    assert 1.0 - 2.0**-53 < 1.0 == 1.0 - 2.0**-54
    signed = a_passes_b_fails_fixture()
    counts = count_linalg(monkeypatch, "eigh", "cholesky")
    for max_halvings in (54, 60, 2000):
        counts.update(eigh=0, cholesky=0)
        assert find_zeta_certificate(signed, max_halvings=max_halvings) is None
        assert counts == {"eigh": 2 + 11 + 2 * 43, "cholesky": 2}


def test_zeta_transform_rewrites_once(monkeypatch):
    """Counts: the transform builds its output from the matrices its check validated."""
    signed = pd_decompose(identity_superop(2))[0]
    cert = find_zeta_certificate(signed)
    calls = count_calls(monkeypatch, [(posdecomp, "_zeta_rewrite")])
    out = zeta_transform(signed, cert)
    assert calls == {"_zeta_rewrite": 1}
    assert rel_err(to_liouville(out), to_liouville(signed)) <= 1e-14


@pytest.mark.parametrize("d", [2, 4, 6])
def test_pd_decompose_work_counts(monkeypatch, d):
    """Counts, not wall time: the eigh and cholesky calls of pd_decompose do not grow
    with the d^2 basis pairs. One eigh classifies the input, one solves the diagonal
    pencil, and the margin and lift stages make one each for beta, alpha and lambda (a
    pencil solve). The four pencil solves each factor their base by cholesky, the three
    stages decide their stacked check by one cholesky each, when no first candidate needs
    growing, and the offset search decides its accepted pair by one cholesky and each
    rejected pair by three (the stack, then each matrix alone)."""
    s = psd_sum(np.random.default_rng(48), d, d * d)
    counts = count_linalg(monkeypatch, "eigh", "eigvalsh", "cholesky")
    signed, trace = pd_decompose(s)
    made = dict(counts)
    check_pd_output(signed, to_liouville(s))
    shrinks = trace.step("diag_pencil").data["shrinks"]
    assert made == {"eigh": 5, "eigvalsh": 0, "cholesky": 4 + 3 + 1 + 3 * shrinks}


@pytest.mark.parametrize("d", [2, 4, 6])
def test_pipeline_builds_the_liouville_matrix_once(monkeypatch, d):
    """Counts: on one LRSum, classify_superop, selfadjoint_decompose and pd_decompose share
    one Liouville matrix, and pd_decompose classifies from the spectrum classify_superop
    stored, one eigh fewer than the 5 of a fresh sum."""
    s = psd_sum(np.random.default_rng(48), d, d * d)
    built = liouville_builds(monkeypatch, (superop, posdecomp))
    classify_superop(s)
    selfadjoint_decompose(s)
    counts = count_linalg(monkeypatch, "eigh", "eigvalsh", "cholesky")
    _, trace = pd_decompose(s)
    assert len(built) == 1
    assert counts == {"eigh": 4, "eigvalsh": 0,
                      "cholesky": 4 + 3 + 1 + 3 * trace.step("diag_pencil").data["shrinks"]}


def test_decompositions_classify_without_classify_hermitian(monkeypatch):
    """Counts: each "classify" step reads one stacked lambda_min and computes no witness, so
    the only phase fixes of a d = 8 pd_decompose are the two witnesses of its diagonal pencil
    solve. The other pencils, two_sum_pd's among them, yield their smallest eigenvalue only."""
    rng = np.random.default_rng(540)
    s = psd_sum(rng, 8, 64)
    pairs = [(random_pd(rng, 3), random_pd(rng, 3)) for _ in range(2)]
    calls = count_calls(monkeypatch, [
        (core, "classify_hermitian"), (posdecomp, "classify_hermitian"),
        (core, "fix_phase"), (pencil, "fix_phase"),
    ])
    pd_decompose(s)
    assert calls == {"classify_hermitian": 0, "fix_phase": 2}
    two_sum_pd(*pairs[0], *pairs[1])
    assert calls == {"classify_hermitian": 0, "fix_phase": 2}
    one_sum_positive(*pairs[0])
    assert calls["classify_hermitian"] == 0


def classify_corpus():
    """48 two-pair inputs: PD, PSD (every left factor kills e_1), indefinite and
    non-Hermitian left factors, scaled, over PD right factors, at d = 1..4."""
    rng = np.random.default_rng(541)

    def psd(d):
        a = random_psd(rng, d)
        a[0, :] = a[:, 0] = 0.0
        return a

    lefts = {"pd": lambda d: random_pd(rng, d), "psd": psd,
             "indefinite": lambda d: random_hermitian(rng, d),
             "non-hermitian": lambda d: random_matrix(rng, d)}
    for kind, left in lefts.items():
        for d in (1, 2, 3, 4):
            for scale in (1e-12, 1.0, 1e12):
                yield f"{kind}-d{d}-{scale:g}", [(scale * left(d), random_pd(rng, d)) for _ in "12"]


@pytest.mark.parametrize("decompose", ["pd_decompose", "two_sum_pd", "one_sum_positive"])
def test_classify_step_matches_the_classify_hermitian_reference(decompose):
    """The traced kind and lambda_min bits, or the error type and message, equal those of
    the old "classify" step built on classify_hermitian; one-sum adds a zero operator."""
    corpus = list(classify_corpus())
    if decompose == "one_sum_positive":
        corpus.append(("zero", [(np.zeros((2, 2)), np.eye(2))]))
    outcomes = set()
    for label, pairs in corpus:
        if decompose == "pd_decompose":
            call, strict = lambda: pd_decompose(LRSum.from_pairs(pairs)), True
        elif decompose == "two_sum_pd":
            call, strict = lambda: two_sum_pd(*pairs[0], *pairs[1]), True
        else:
            pairs = pairs[:1]
            call, strict = lambda: one_sum_positive(*pairs[0]), False
        m = to_liouville(LRSum.from_pairs(pairs))
        try:
            kind, lam = classify_step_reference(m, strict)
        except NumericalError as want:
            with pytest.raises(NumericalError) as got:
                call()
            assert (type(got.value), str(got.value)) == (type(want), str(want)), label
            outcomes.add(str(want))
            continue
        step = call()[-1].step("classify")
        assert (step.data["kind"], step.data["lambda_min"].hex()) == (kind, lam.hex()), label
        outcomes.add(kind)
    assert len(outcomes) >= 4


# ---------------------------------------------------------------- counterexample


def test_counterexample_range():
    with pytest.raises(InputError):
        counterexample_superop(0.0)
    with pytest.raises(InputError):
        counterexample_superop(0.5)


def test_counterexample_frozen_values():
    s = counterexample_superop(0.25)
    e12, e11 = matrix_unit(2, 1, 2), matrix_unit(2, 1, 1)
    from hsdecomp import apply_superop

    assert frob_inner(e12, apply_superop(s, e12)) == pytest.approx(0.25)
    assert frob_inner(e11, apply_superop(s, e11)) == pytest.approx(1.0)


@pytest.mark.parametrize("t", [0.1, 0.25, 0.4])
def test_counterexample_matches_hand_built_liouville(t):
    m = to_liouville(counterexample_superop(t))
    oracle = counterexample_liouville_oracle(t)
    assert rel_err(m, oracle) <= 1e-14
    assert np.linalg.eigvalsh(oracle)[0] == pytest.approx(t, abs=1e-10)


@pytest.mark.parametrize("t", [0.1, 0.25, 0.4])
def test_counterexample_quadratic_form_identity(t):
    rng = np.random.default_rng(40)
    s = counterexample_superop(t)
    from hsdecomp import apply_superop

    for _ in range(200):
        eta = random_matrix(rng, 2)
        lhs = frob_inner(eta, apply_superop(s, eta))
        assert abs(lhs.imag) < 1e-12
        assert lhs.real == pytest.approx(counterexample_form_oracle(t, eta), abs=1e-12)


# ---------------------------------------------------------------- pencil oracle


def test_pencil_against_oracle():
    rng = np.random.default_rng(41)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        b = random_hermitian(rng, d)
        c = random_pd(rng, d)
        w, v = pencil_eigh(b, c)
        np.testing.assert_allclose(w, pencil_oracle(b, c), atol=1e-10)
        # eigenvector equation b v = w c v
        for k in range(d):
            resid = b @ v[:, k] - w[k] * (c @ v[:, k])
            assert np.linalg.norm(resid) < 1e-9 * max(1, np.linalg.norm(b))


def test_pencil_dimension_mismatch_is_input_error():
    for solve in (pencil_eigh, pencil_extremes):
        with pytest.raises(InputError, match="^dimension mismatch: 2 vs 3$"):
            solve(np.eye(2), np.eye(3))


def test_pencil_d1():
    w, v = pencil_eigh([[3.0]], [[4.0]])
    np.testing.assert_allclose(w, pencil_oracle(np.array([[3.0]]), np.array([[4.0]])), rtol=1e-15)
    np.testing.assert_allclose(v, [[0.5]], rtol=1e-15)
    ext = pencil_extremes([[3.0]], [[4.0]])
    assert ext.lambda_min == ext.lambda_max == pytest.approx(0.75, rel=1e-15)
    np.testing.assert_array_equal(ext.v_min, [1.0])


def test_pencil_ill_conditioned_base():
    # cond(C) = 1e8: first-order perturbation theory bounds the eigenvalue
    # error by about eps * cond(C) * max|w| for any backward-stable solver.
    rng = np.random.default_rng(42)
    eps = np.finfo(float).eps
    for _ in range(10):
        d = int(rng.integers(2, 9))
        u = random_unitary(rng, d)
        c = (u * np.logspace(0, -8, d)) @ u.conj().T
        b = random_hermitian(rng, d)
        w, v = pencil_eigh(b, c)
        ref = pencil_oracle(b, c)
        np.testing.assert_allclose(w, ref, rtol=0, atol=10 * eps * 1e8 * np.abs(ref).max())
        np.testing.assert_allclose(v.conj().T @ c @ v, np.eye(d), atol=1e-7)
        for k in range(d):
            resid = np.linalg.norm(b @ v[:, k] - w[k] * (c @ v[:, k]))
            scale = (np.linalg.norm(b, 2) + abs(w[k]) * np.linalg.norm(c, 2)) * np.linalg.norm(v[:, k])
            assert resid <= 1e-7 * scale


@pytest.mark.parametrize("s", [1e-12, 1e12])
def test_pencil_scale_invariant(s):
    rng = np.random.default_rng(43)
    for _ in range(10):
        d = int(rng.integers(1, 9))
        b = random_hermitian(rng, d)
        c = random_pd(rng, d)
        w = pencil_eigh(b, c)[0]
        w_scaled = pencil_eigh(s * b, s * c)[0]
        np.testing.assert_allclose(w_scaled, w, rtol=0, atol=1e-12 * np.abs(w).max())
        np.testing.assert_allclose(w_scaled, pencil_oracle(s * b, s * c), rtol=0,
                                   atol=1e-12 * np.abs(w).max())


@pytest.mark.parametrize("c", [
    np.zeros((2, 2)),
    np.diag([1.0, 0.0]),
    np.diag([1.0, -1.0]),
    np.diag([-1.0, -2.0, -3.0]),
    np.diag([1.0, 1e-320]),  # Cholesky succeeds, the reduced matrix overflows
])
def test_pencil_rejects_singular_or_indefinite_base(c):
    with pytest.raises(NumericalError, match="^pencil base matrix is"):
        pencil_eigh(np.eye(len(c)), c)
    with pytest.raises(NumericalError, match="^pencil base matrix is"):
        pencil_extremes(np.eye(len(c)), c)


@pytest.mark.parametrize("d", [1, 2, 5, 8])
@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_pencil_minima_match_pencil_extremes_bitwise(d, scale):
    rng = np.random.default_rng(48 + d)
    c = scale * random_pd(rng, d)
    bs = [scale * random_hermitian(rng, d) for _ in range(6)] + [random_matrix(rng, d)]
    got = np.array(list(_pencil_minima(np.stack(bs), c)))
    expected = np.array([pencil_extremes(b, c).lambda_min for b in bs])
    assert got.tobytes() == expected.tobytes()
    assert list(_pencil_minima([], c)) == []


@pytest.mark.parametrize("c", [
    np.zeros((2, 2)),
    np.diag([1.0, 0.0]),
    np.diag([1.0, -1.0]),
    np.diag([1.0, 1e-320]),
])
def test_pencil_minima_reject_singular_or_indefinite_base(c):
    with pytest.raises(NumericalError, match="^pencil base matrix is"):
        list(_pencil_minima(np.stack([np.eye(2), 2 * np.eye(2)]), c))


def test_pencil_minima_raise_at_the_failing_pencil():
    c = np.diag([1.0, 1e-300])
    minima = _pencil_minima(np.stack([np.diag([1.0, 0.0]), np.diag([1.0, 1e10])]), c)
    assert next(minima) == pencil_extremes(np.diag([1.0, 0.0]), c).lambda_min
    with pytest.raises(NumericalError, match="overflowed"):
        next(minima)


@pytest.mark.parametrize("b, c, message", [
    (np.full((2, 2), np.nan), I2, "b: entries must be finite"),
    (I2, np.array([[1.0, np.inf], [0.0, 1.0]]), "c: entries must be finite"),
    ([[1, "a"], [1, 1]], I2, "b: not convertible to a complex matrix"),
    (np.ones((2, 3)), I2, "b: expected a square matrix, got shape (2, 3)"),
    (I2, np.ones(2), "c: expected a square matrix, got shape (2,)"),
], ids=["nan-b", "inf-c", "unconvertible-b", "non-square-b", "vector-c"])
def test_public_pencils_refuse_bad_input_with_their_messages(b, c, message):
    """The public pencils check their inputs before the solve body, which takes its inputs
    as given (``test_pencil_dimension_mismatch_is_input_error`` covers mismatched sizes)."""
    for solve in (pencil_eigh, pencil_extremes):
        with pytest.raises(InputError) as info:
            solve(b, c)
        assert str(info.value) == message


@pytest.mark.parametrize("d", [1, 2, 5, 16])
def test_pencil_extremes_equals_the_hermitian_entry_bitwise(d):
    """On Hermitian input (a Hermitian part, which the Hermitization leaves as it is), the
    public call returns the bits of the internal entry it calls, also on read-only input."""
    rng = np.random.default_rng(46 + d)
    for scale in (1e-12, 1.0, 1e12):
        b = core.hermitian_part(scale * random_matrix(rng, d))
        c = core.hermitian_part(scale * random_pd(rng, d))
        public = pencil_extremes(b, c)
        b.setflags(write=False)
        c.setflags(write=False)
        entry = _hermitian_extremes(b, c)
        for field in ("lambda_min", "lambda_max", "v_min", "v_max"):
            got, expected = (np.asarray(getattr(x, field)) for x in (public, entry))
            assert got.tobytes() == expected.tobytes(), (scale, field)


def test_pencil_extremes_witnesses_match_pencil_eigh():
    rng = np.random.default_rng(44)
    for d in (1, 2, 5, 16):
        b = random_hermitian(rng, d)
        c = random_pd(rng, d)
        w, v = pencil_eigh(b, c)
        ext = pencil_extremes(b, c)
        assert ext.lambda_min == w[0] and ext.lambda_max == w[-1]
        np.testing.assert_array_equal(ext.v_min, v[:, 0] / np.linalg.norm(v[:, 0]))
        np.testing.assert_array_equal(ext.v_max, v[:, -1] / np.linalg.norm(v[:, -1]))


@pytest.mark.parametrize("call, message", [
    (lambda: ZetaCertificate(()), "certificate needs at least one zeta"),
    (lambda: list(_pencil_minima(np.stack([I2, np.full((2, 2), np.nan)]), I2)),
     "b: entries must be finite"),
], ids=["no-zetas", "non-finite-pencil"])
def test_zeta_and_pencil_input_messages(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("lead_b, b_2", [
    (matrix_unit(2, 1, 1), I2),  # b_1 is not positive definite
    (I2, -I2),  # the pencil bound of b_2 against b_1 is -1
], ids=["b1-not-pd", "bound-not-positive"])
def test_zeta_search_gives_up_before_the_walk(lead_b, b_2, monkeypatch):
    signed = SignedLRSum(2, (SignedTerm(-1, I2, lead_b), SignedTerm(1, I2, b_2)))
    calls = count_calls(monkeypatch, [(posdecomp, "_zeta_conditions")])
    assert find_zeta_certificate(signed) is None
    assert find_zeta_certificate_reference(signed) is None
    assert calls == {"_zeta_conditions": 0}

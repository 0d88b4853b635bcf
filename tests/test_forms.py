import numpy as np
import pytest

from hsdecomp import (
    Form,
    FormKind,
    HypothesisViolatedError,
    InputError,
    LRSum,
    NotInnerProductError,
    build_inner_product,
    classify_form,
    counterexample_superop,
    equivalence_constants,
    eval_form,
    form_norm,
    frob_inner,
    frob_norm,
    identity_superop,
    matrix_unit,
    one_sum_positive,
    op_norm,
    pd_decompose,
    find_zeta_certificate,
    pencil_extremes,
    to_liouville,
    transpose_dual,
    two_sum_pd,
    unvec,
    zeta_transform,
)
from hsdecomp import core, forms, pencil, superop
from helpers import (
    build_inner_product_error_reference,
    classify_form_reference,
    count_linalg,
    liouville_builds,
    positive_oracle,
    psd_sum,
    random_hermitian,
    random_lrsum,
    random_matrix,
    random_pd,
    random_psd,
    rel_err,
)

I2 = np.eye(2, dtype=complex)
I3 = np.eye(3, dtype=complex)


def frobenius_form(d):
    return Form(identity_superop(d))


def test_eval_form_identity_is_frobenius():
    rng = np.random.default_rng(50)
    phi = frobenius_form(3)
    for _ in range(10):
        eta, tau = random_matrix(rng, 3), random_matrix(rng, 3)
        assert eval_form(phi, eta, tau) == pytest.approx(frob_inner(eta, tau), abs=1e-12)


@pytest.mark.parametrize("eta, tau, message", [
    ([[np.nan, 0], [0, 1]], np.eye(2), "eta: entries must be finite"),
    (np.eye(2), [[np.nan, 0], [0, 1]], "tau: entries must be finite"),
    (np.eye(3), np.eye(2), "dimension mismatch: form dim 2, eta dim 3"),
    (np.eye(2), np.eye(3), "dimension mismatch: form dim 2, tau dim 3"),
], ids=["eta-nan", "tau-nan", "eta-dim", "tau-dim"])
def test_eval_form_names_the_bad_argument(eta, tau, message):
    with pytest.raises(InputError) as info:
        eval_form(Form(identity_superop(2)), eta, tau)
    assert str(info.value) == message


def test_eval_form_beyond_the_float_range_is_not_finite():
    # the image A(tau) = 1e600 I is not an argument: it is not validated, and no warning escapes
    big = 1e200 * np.eye(2)
    value = eval_form(Form(LRSum.from_pairs([(big, big)])), big, big)
    assert not np.isfinite(value)


def test_eval_form_counterexample_unit():
    phi = Form(counterexample_superop(0.25))
    e12 = matrix_unit(2, 1, 2)
    assert eval_form(phi, e12, e12) == pytest.approx(0.25)


def test_eval_form_conjugate_symmetry_for_hermitian_op():
    rng = np.random.default_rng(51)
    phi = Form(counterexample_superop(0.3))
    for _ in range(10):
        eta, tau = random_matrix(rng, 2), random_matrix(rng, 2)
        assert eval_form(phi, eta, tau) == pytest.approx(
            np.conj(eval_form(phi, tau, eta)), abs=1e-12
        )


def test_classify_form_identity():
    fc = classify_form(frobenius_form(2))
    assert fc.kind is FormKind.DEFINITE_INNER_PRODUCT
    assert fc.lambda_min == pytest.approx(1.0)
    assert fc.is_inner_product


def test_classify_form_psd_singular_is_only_hermitian():
    s = LRSum.from_pairs(
        [(matrix_unit(2, n, n), matrix_unit(2, n, n)) for n in (1, 2)], 2
    )
    fc = classify_form(Form(s))
    assert fc.kind is FormKind.HERMITIAN
    assert not fc.is_inner_product
    # a nonzero matrix with vanishing form value witnesses the failure
    e12 = matrix_unit(2, 1, 2)
    assert eval_form(Form(s), e12, e12) == 0


def test_classify_form_counterexample():
    fc = classify_form(Form(counterexample_superop(0.25)))
    assert fc.kind is FormKind.DEFINITE_INNER_PRODUCT
    assert fc.lambda_min == pytest.approx(0.25)


def test_classify_form_general():
    s = LRSum.from_pairs([(matrix_unit(2, 1, 2), matrix_unit(2, 1, 2))], 2)
    assert classify_form(Form(s)).kind is FormKind.GENERAL


def test_form_norm_is_liouville_operator_norm():
    rng = np.random.default_rng(52)
    s = LRSum.from_pairs([(random_matrix(rng, 3), random_matrix(rng, 3)) for _ in range(2)], 3)
    phi = Form(s)
    m = to_liouville(s)
    assert form_norm(phi) == pytest.approx(op_norm(m))
    # sampled |phi(eta, tau)| over unit pairs never exceeds the norm, and
    # the top singular pair attains it
    u, sv, vh = np.linalg.svd(m)
    from hsdecomp import unvec

    eta = unvec(u[:, 0], 3)
    tau = unvec(vh[0].conj(), 3)
    attained = abs(eval_form(phi, eta, tau))
    assert attained == pytest.approx(form_norm(phi), abs=1e-10)
    for _ in range(50):
        eta = random_matrix(rng, 3)
        tau = random_matrix(rng, 3)
        eta /= frob_norm(eta)
        tau /= frob_norm(tau)
        assert abs(eval_form(phi, eta, tau)) <= form_norm(phi) + 1e-10


def test_build_inner_product_frobenius():
    phi = build_inner_product([I3], [I3])
    fc = classify_form(phi)
    assert fc.kind is FormKind.DEFINITE_INNER_PRODUCT


def test_build_inner_product_two_terms():
    phi = build_inner_product(
        [matrix_unit(2, 1, 1), matrix_unit(2, 2, 2)], [I2, 2 * I2]
    )
    assert classify_form(phi).kind is FormKind.DEFINITE_INNER_PRODUCT


def test_build_inner_product_rejects_joint_kernel():
    with pytest.raises(HypothesisViolatedError) as err:
        build_inner_product(
            [matrix_unit(2, 1, 1), matrix_unit(2, 1, 1)], [I2, I2]
        )
    assert "kernel" in str(err.value)


def test_build_inner_product_rejects_non_psd_left():
    bad = np.diag([1.0, -1.0])
    with pytest.raises(HypothesisViolatedError) as err:
        build_inner_product([I2, bad], [I2, I2])
    assert err.value.index == 1


def test_build_inner_product_rejects_non_pd_right():
    with pytest.raises(HypothesisViolatedError) as err:
        build_inner_product([I2, I2], [I2, matrix_unit(2, 1, 1)])
    assert err.value.index == 1


def test_build_inner_product_names_first_failing_factor_and_its_class():
    """The factor families are checked as stacks; the error still names the first
    failing factor and its class."""
    skew = matrix_unit(2, 1, 2)
    with pytest.raises(HypothesisViolatedError, match=r"^left factor 1 is not positive "
                       r"semidefinite \(classifies NonHermitian\)$") as err:
        build_inner_product([I2, skew, np.diag([1.0, -1.0])], [I2, I2, I2])
    assert err.value.index == 1
    with pytest.raises(HypothesisViolatedError, match=r"^right factor 0 is not positive "
                       r"definite \(classifies PsdSingular\)$") as err:
        build_inner_product([I2, I2], [matrix_unit(2, 1, 1), -I2])
    assert err.value.index == 0


def test_build_inner_product_rejects_length_mismatch():
    with pytest.raises(InputError):
        build_inner_product([I2], [I2, I2])


def test_built_form_satisfies_axioms():
    rng = np.random.default_rng(53)
    for _ in range(5):
        d = int(rng.integers(2, 4))
        count = int(rng.integers(1, 4))
        a_list = [random_psd(rng, d) + 0.05 * np.eye(d) for _ in range(count)]
        b_list = [random_pd(rng, d) for _ in range(count)]
        phi = build_inner_product(a_list, b_list)
        for _ in range(10):
            eta, tau, rho = (random_matrix(rng, d) for _ in range(3))
            al = complex(rng.standard_normal(), rng.standard_normal())
            # conjugate symmetry
            assert eval_form(phi, eta, tau) == pytest.approx(
                np.conj(eval_form(phi, tau, eta)), abs=1e-12
            )
            # right-linearity
            lhs = eval_form(phi, eta, tau + al * rho)
            rhs = eval_form(phi, eta, tau) + al * eval_form(phi, eta, rho)
            assert lhs == pytest.approx(rhs, abs=1e-10)
            # positivity
            val = eval_form(phi, eta, eta)
            assert abs(val.imag) < 1e-12 * max(1.0, abs(val))
            assert val.real > 0


def test_equivalence_identical_forms():
    res = equivalence_constants(frobenius_form(2), frobenius_form(2))
    assert res.c_lo == pytest.approx(1.0)
    assert res.c_hi == pytest.approx(1.0)


def test_equivalence_scaled_form():
    scaled = Form(LRSum.from_pairs([(4 * I2, I2)], 2))
    res = equivalence_constants(frobenius_form(2), scaled)
    assert res.c_lo == pytest.approx(2.0)
    assert res.c_hi == pytest.approx(2.0)


def test_equivalence_counterexample_constants_and_witnesses():
    phi1 = frobenius_form(2)
    phi2 = Form(counterexample_superop(0.25))
    res = equivalence_constants(phi1, phi2)
    # pencil against the identity: eigenvalues of the 4x4 Liouville matrix
    assert res.c_lo == pytest.approx(0.5, abs=1e-10)
    assert res.c_hi == pytest.approx(np.sqrt(1.75), abs=1e-10)

    def ratio(eta):
        n1 = np.sqrt(eval_form(phi1, eta, eta).real)
        n2 = np.sqrt(eval_form(phi2, eta, eta).real)
        return n2 / n1

    assert ratio(res.witness_lo) == pytest.approx(res.c_lo, abs=1e-9)
    assert ratio(res.witness_hi) == pytest.approx(res.c_hi, abs=1e-9)
    rng = np.random.default_rng(54)
    for _ in range(1000):
        r = ratio(random_matrix(rng, 2))
        assert res.c_lo - 1e-9 <= r <= res.c_hi + 1e-9


def test_equivalence_rejects_non_inner_product():
    indef = Form(LRSum.from_pairs([(np.diag([1.0, -1.0]), I2)], 2))
    with pytest.raises(NotInnerProductError):
        equivalence_constants(frobenius_form(2), indef)


def test_one_and_two_term_forms_rebuild_via_decompositions():
    rng = np.random.default_rng(55)
    # m = 1: a one-term definite inner product, factors scrambled negative
    a, b = random_pd(rng, 3), random_pd(rng, 3)
    phi = Form(LRSum.from_pairs([(-a, -b)], 3))
    assert classify_form(phi).is_inner_product
    a_hat, b_hat, _ = one_sum_positive(-a, -b)
    rebuilt = Form(build_inner_product([a_hat], [b_hat]).op)
    assert rel_err(to_liouville(rebuilt.op), to_liouville(phi.op)) <= 1e-9
    # m = 2: two-term definite inner product
    a1, b1, a2, b2 = (random_pd(rng, 2) for _ in range(4))
    phi2 = Form(LRSum.from_pairs([(-2 * a1, -0.5 * b1), (a2, b2)], 2))
    assert classify_form(phi2).is_inner_product
    signed, _ = two_sum_pd(-2 * a1, -0.5 * b1, a2, b2)
    rebuilt2 = build_inner_product(
        [t.a for t in signed.terms], [t.b for t in signed.terms]
    )
    assert rel_err(to_liouville(rebuilt2.op), to_liouville(phi2.op)) <= 1e-9


def test_definite_form_decomposes_and_transforms():
    rng = np.random.default_rng(56)
    from helpers import random_hermitian
    from hsdecomp import from_liouville

    h = random_hermitian(rng, 4)
    h /= np.linalg.norm(h)
    m = np.eye(4) + 0.2 * h
    phi = Form(from_liouville(m, "left"))
    assert classify_form(phi).kind is FormKind.DEFINITE_INNER_PRODUCT
    signed, _ = pd_decompose(phi.op)
    cert = find_zeta_certificate(signed)
    assert cert is not None
    nonneg = zeta_transform(signed, cert)
    phi_new = Form(nonneg)
    for _ in range(20):
        eta, tau = random_matrix(rng, 2), random_matrix(rng, 2)
        assert eval_form(phi_new, eta, tau) == pytest.approx(
            eval_form(phi, eta, tau), abs=1e-9
        )


# ------------------------------------------------------------ error paths


def general_form(d=2):
    return Form(LRSum.from_pairs([(matrix_unit(d, 1, d), matrix_unit(d, 1, d))], d))


def test_equivalence_names_first_form_when_both_fail():
    indef = Form(LRSum.from_pairs([(np.diag([1.0, -1.0]), I2)], 2))
    with pytest.raises(NotInnerProductError,
                       match=r"^first form classifies Hermitian, not an inner product$"):
        equivalence_constants(indef, general_form())


def test_equivalence_names_second_form_with_its_class():
    with pytest.raises(NotInnerProductError,
                       match=r"^second form classifies General, not an inner product$"):
        equivalence_constants(frobenius_form(2), general_form())


def test_equivalence_rejects_mismatched_dimensions():
    with pytest.raises(InputError, match=r"^form dimensions disagree: 2 vs 3$"):
        equivalence_constants(frobenius_form(2), frobenius_form(3))


def test_build_inner_product_reports_left_factor_before_right():
    with pytest.raises(HypothesisViolatedError, match=r"^left factor 0 is not positive "
                       r"semidefinite \(classifies Indefinite\)$") as err:
        build_inner_product([np.diag([1.0, -1.0]), I2], [I2, matrix_unit(2, 1, 1)])
    assert err.value.index == 0
    assert err.value.reason == "left factor not PSD"


def test_build_inner_product_reports_joint_kernel_before_right():
    e11 = matrix_unit(2, 1, 1)
    with pytest.raises(HypothesisViolatedError, match=r"^left factors have a joint kernel "
                       r"\(stacked rank 1 < 2\)$") as err:
        build_inner_product([e11, e11], [I2, -I2])
    assert err.value.index is None
    assert err.value.reason == "joint kernel nontrivial"


# ------------------------------------------------------------ parity with the full classifier


def class_corpus(rng, d, scale=1.0, mirror=False):
    """LR-sums whose Liouville matrices are PD, PSD-singular, indefinite and non-Hermitian."""
    signs = np.diag([(-1.0) ** (k + 1) for k in range(d)])  # d = 1: negative definite
    sums = [
        psd_sum(rng, d, 2),
        LRSum.from_pairs([(random_psd(rng, d, d - 1), random_pd(rng, d))], d),
        LRSum.from_pairs([(signs, random_pd(rng, d)),
                          (0.01 * random_hermitian(rng, d), random_hermitian(rng, d))], d),
        random_lrsum(rng, d, 2),
    ]
    sums = [LRSum.from_pairs([(scale * t.a, t.b) for t in s.terms], d) for s in sums]
    return [transpose_dual(s) if mirror else s for s in sums]


def bits(x) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_classify_form_matches_full_classifier_bitwise(d, scale, mirror):
    rng = np.random.default_rng(500 + d)
    kinds = set()
    for s in class_corpus(rng, d, scale, mirror):
        fc, ref = classify_form(Form(s)), classify_form_reference(Form(s))
        assert fc.kind is ref.kind
        assert type(fc.lambda_min) is float
        assert bits(fc.lambda_min) == bits(ref.lambda_min)
        kinds.add(fc.kind)
    assert FormKind.GENERAL in kinds and FormKind.HERMITIAN in kinds
    if scale >= 1.0:
        assert FormKind.DEFINITE_INNER_PRODUCT in kinds


def equivalence_reference(phi1, phi2, tol=1e-9):
    for name, phi in (("first", phi1), ("second", phi2)):
        fc = classify_form_reference(phi, tol)
        if not fc.is_inner_product:
            raise NotInnerProductError(
                f"{name} form classifies {fc.kind.value}, not an inner product"
            )
    if phi1.dim != phi2.dim:
        raise InputError(f"form dimensions disagree: {phi1.dim} vs {phi2.dim}")
    ext = pencil_extremes(to_liouville(phi2.op), to_liouville(phi1.op))
    return (float(np.sqrt(max(ext.lambda_min, 0.0))), float(np.sqrt(max(ext.lambda_max, 0.0))),
            unvec(ext.v_min, phi1.dim), unvec(ext.v_max, phi1.dim))


def outcome(fn, *args):
    try:
        return fn(*args)
    except (InputError, NotInnerProductError) as exc:
        return type(exc), str(exc)


def test_equivalence_constants_match_full_classifier_on_corpus():
    rng = np.random.default_rng(510)
    forms_by_dim = {d: [Form(s) for s in class_corpus(rng, d) + class_corpus(rng, d, 1e3)]
                    for d in (2, 3)}
    pool = forms_by_dim[2] + forms_by_dim[3]
    accepted = 0
    for phi1 in pool:
        for phi2 in pool:
            got = outcome(equivalence_constants, phi1, phi2)
            ref = outcome(equivalence_reference, phi1, phi2)
            if isinstance(ref, tuple) and isinstance(ref[0], type):
                assert got == ref
                continue
            accepted += 1
            assert bits(got.c_lo) == bits(ref[0]) and bits(got.c_hi) == bits(ref[1])
            assert got.witness_lo.tobytes() == ref[2].tobytes()
            assert got.witness_hi.tobytes() == ref[3].tobytes()
    assert accepted >= 8


def factor_corpus(rng, d, count):
    """Factor families that break each hypothesis of build_inner_product, alone and together."""
    good_a = [random_psd(rng, d) + 0.05 * np.eye(d) for _ in range(count)]
    good_b = [random_pd(rng, d) for _ in range(count)]
    bad_a = [np.diag([1.0] + [-1.0] * (d - 1)), random_matrix(rng, d),
             random_hermitian(rng, d)]
    bad_b = [random_psd(rng, d, d - 1), -random_pd(rng, d), random_matrix(rng, d)]
    kernel = random_psd(rng, d, d - 1)
    families = [(good_a, good_b)]
    for i in range(count):
        for x in bad_a:
            families.append((good_a[:i] + [x] + good_a[i + 1:], good_b))
        for y in bad_b:
            families.append((good_a, good_b[:i] + [y] + good_b[i + 1:]))
            families.append(([kernel] * count, good_b[:i] + [y] + good_b[i + 1:]))
            families.append((good_a[:i] + [bad_a[0]] + good_a[i + 1:],
                             good_b[:i] + [y] + good_b[i + 1:]))
    families.append(([kernel] * count, good_b))
    return families


def test_build_inner_product_errors_match_full_classifier_on_corpus():
    rng = np.random.default_rng(520)
    reasons = set()
    for d, count in ((2, 1), (2, 3), (3, 2), (4, 3)):
        for a_list, b_list in factor_corpus(rng, d, count):
            ref = build_inner_product_error_reference(a_list, b_list)
            if ref is None:
                build_inner_product(a_list, b_list)
                continue
            with pytest.raises(HypothesisViolatedError) as err:
                build_inner_product(a_list, b_list)
            assert type(err.value) is HypothesisViolatedError
            assert (str(err.value), err.value.index, err.value.reason) == ref
            reasons.add(ref[2])
    assert reasons == {"left factor not PSD", "joint kernel nontrivial", "right factor not PD"}


def _to_the_band(x, strict, side, tol=1e-9):
    """The Hermitian part of ``x`` moved by a multiple of the identity so that its lambda_min
    lies ``side`` times delta above the PD (``strict``) or PSD threshold, delta being
    ``positive_oracle``'s Cholesky band; the shift is retaken while the threshold it moves
    settles."""
    h = core.hermitian_part(x)
    for _ in range(3):
        _, (margin,), (delta,) = positive_oracle(h[None], tol, strict)
        h = h - (margin - side * delta) * np.eye(len(h))
    return h


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_build_inner_product_decides_as_the_reference_next_to_each_threshold(d):
    """Factors moved to 4 delta either side of their threshold (left factors the PSD one,
    right factors the PD one), in families with and without a joint kernel: acceptance, and
    a refusal's type, message, index and reason, are those of the reference, which
    classifies each factor by ``classify_hermitian``."""
    rng = np.random.default_rng([560, d])
    outcomes = set()
    for trial in range(48):
        count = int(rng.integers(1, 4))
        if trial % 4 == 3:  # every left factor vanishes on one vector
            v = random_matrix(rng, d)[:, :1]
            p = np.eye(d) - v @ v.conj().T / np.vdot(v, v)
            a_list = [p @ random_psd(rng, d) @ p for _ in range(count)]
        else:
            a_list = [random_psd(rng, d, int(rng.integers(1, d + 1))) for _ in range(count)]
        b_list = [random_pd(rng, d) for _ in range(count)]
        for family, strict in ((a_list, False), (b_list, True)):
            for i in np.flatnonzero(rng.random(count) < 0.5):
                family[i] = _to_the_band(family[i], strict, rng.choice([-4.0, 4.0]))
                _, (margin,), (delta,) = positive_oracle(family[i][None], 1e-9, strict)
                assert 2 * delta < abs(margin) < 6 * delta
        ref = build_inner_product_error_reference(a_list, b_list)
        if ref is None:
            build_inner_product(a_list, b_list)
            outcomes.add("accepted")
            continue
        with pytest.raises(HypothesisViolatedError) as err:
            build_inner_product(a_list, b_list)
        assert type(err.value) is HypothesisViolatedError
        assert (str(err.value), err.value.index, err.value.reason) == ref
        outcomes.add(ref[2])
    assert outcomes == {"accepted", "left factor not PSD", "joint kernel nontrivial",
                        "right factor not PD"}


# ------------------------------------------------------------ work counts


def spy(monkeypatch, targets):
    """Count calls of each (module, name); returns the live counts by name."""
    counts = {}
    for module, name in targets:
        counts.setdefault(name, 0)
        fn = getattr(module, name)

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    return counts


FORM_SPIES = ((forms, "to_liouville"), (core, "classify_hermitian"),
              (core, "fix_phase"), (pencil, "fix_phase"))


def test_equivalence_constants_work_counts(monkeypatch):
    """Each Liouville matrix is built, Hermitized and decided once; the pencil solve takes
    the two stored Hermitian parts as they are, with no check, copy or Hermitization, and
    its two witnesses are the only phase fixes."""
    rng = np.random.default_rng(530)
    phi1, phi2 = Form(psd_sum(rng, 4, 3)), Form(psd_sum(rng, 4, 2))
    linalg = count_linalg(monkeypatch, "eigh", "eigvalsh", "cholesky")
    built = liouville_builds(monkeypatch, (forms, superop))
    calls = spy(monkeypatch, FORM_SPIES + ((superop, "hermitian_part"),))
    unchecked = spy(monkeypatch, ((pencil, "as_square_matrix"), (pencil, "hermitian_part")))
    equivalence_constants(phi1, phi2)
    assert len(built) == 2
    assert calls == {"to_liouville": 0, "classify_hermitian": 0, "fix_phase": 2,
                     "hermitian_part": 2}
    assert unchecked == {"as_square_matrix": 0, "hermitian_part": 0}
    assert linalg == {"eigh": 3, "eigvalsh": 0, "cholesky": 1}


def test_build_inner_product_work_counts(monkeypatch):
    """Accepted factors take one stacked Cholesky and no eigensolve; a refused factor takes
    one eigh, for the class its message names."""
    rng = np.random.default_rng(531)
    a_list = [random_psd(rng, 3) + 0.05 * np.eye(3) for _ in range(3)]
    b_list = [random_pd(rng, 3) for _ in range(3)]
    linalg = count_linalg(monkeypatch, "eigh", "eigvalsh", "cholesky", "svd")
    calls = spy(monkeypatch, FORM_SPIES)
    build_inner_product(a_list, b_list)
    assert linalg == {"eigh": 0, "eigvalsh": 0, "cholesky": 1, "svd": 1}
    assert calls["classify_hermitian"] == 0
    linalg.update(dict.fromkeys(linalg, 0))
    with pytest.raises(HypothesisViolatedError, match="^right factor 1 .*Indefinite"):
        build_inner_product(a_list, [b_list[0], -b_list[1], b_list[2]])
    assert linalg == {"eigh": 1, "eigvalsh": 0, "cholesky": 1 + 6, "svd": 1}


def test_classify_form_work_counts(monkeypatch):
    phi = Form(psd_sum(np.random.default_rng(532), 3, 2))
    linalg = count_linalg(monkeypatch, "eigh", "eigvalsh")
    built = liouville_builds(monkeypatch, (forms, superop))
    calls = spy(monkeypatch, FORM_SPIES[1:])
    classify_form(phi)
    assert len(built) == 1
    assert calls == {"classify_hermitian": 0, "fix_phase": 0}
    assert linalg == {"eigh": 1, "eigvalsh": 0}


def test_equivalence_constants_reads_classified_forms(monkeypatch):
    """Counts: once both forms are classified, their Liouville matrices and spectra are
    stored, so the only eigensolve left is the pencil's and no matrix is built."""
    rng = np.random.default_rng(533)
    phi1, phi2 = Form(psd_sum(rng, 4, 3)), Form(psd_sum(rng, 4, 2))
    classify_form(phi1)
    classify_form(phi2)
    stored = [to_liouville(phi1.op), to_liouville(phi2.op)]
    linalg = count_linalg(monkeypatch, "eigh", "eigvalsh")
    after = liouville_builds(monkeypatch, (forms, superop))
    equivalence_constants(phi1, phi2)
    assert linalg == {"eigh": 1, "eigvalsh": 0}
    assert len(after) == 2 and all(m is x for m, x in zip(after, stored))


@pytest.mark.parametrize("a_list, b_list, message", [
    ([], [], "at least one factor pair is required"),
    ([I2, I3], [I2, I3], "factor pair 1 has inconsistent dimension"),
    ([I2, I2], [I2, I3], "factor pair 1 has inconsistent dimension"),
], ids=["empty", "pair-of-another-dim", "right-factor-of-another-dim"])
def test_build_inner_product_shape_messages(a_list, b_list, message):
    with pytest.raises(InputError) as info:
        build_inner_product(a_list, b_list)
    assert str(info.value) == message

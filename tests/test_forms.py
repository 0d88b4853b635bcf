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
    to_liouville,
    two_sum_pd,
    zeta_transform,
)
from helpers import random_matrix, random_pd, random_psd, rel_err

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

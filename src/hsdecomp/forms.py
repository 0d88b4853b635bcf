"""Sesquilinear forms on the matrix space.

Every continuous sesquilinear form is tr(eta* A tau) for a superoperator
A, with the form Hermitian / an inner product / a definite inner product
exactly when A is selfadjoint / positive / positive definite. In finite
dimension positive and positive definite coincide for everywhere-defined
operators, so ``FormKind`` has no bare inner-product kind: definite
operators give DefiniteInnerProduct, and a PSD operator with kernel is
only Hermitian (some nonzero eta has zero form value).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    PositivityClass,
    _positive,
    _positivity_class,
    as_square_matrix,
    classify_hermitian,
    op_norm,
)
from .exceptions import HypothesisViolatedError, InputError, NotInnerProductError
from .pencil import _hermitian_extremes
from .superop import (
    LRSum,
    _hermitian_liouville,
    _operator_lambda_min,
    apply_superop,
    to_liouville,
    unvec,
)

__all__ = [
    "FormKind",
    "FormClass",
    "Form",
    "eval_form",
    "classify_form",
    "form_norm",
    "build_inner_product",
    "EquivalenceResult",
    "equivalence_constants",
]


class FormKind(enum.Enum):
    GENERAL = "General"
    HERMITIAN = "Hermitian"
    DEFINITE_INNER_PRODUCT = "DefiniteInnerProduct"


@dataclass(frozen=True, slots=True)
class FormClass:
    kind: FormKind
    lambda_min: float

    @property
    def is_inner_product(self) -> bool:
        return self.kind is FormKind.DEFINITE_INNER_PRODUCT


@dataclass(frozen=True, slots=True)
class Form:
    """The sesquilinear form (eta, tau) -> tr(eta* op(tau))."""

    op: LRSum

    @property
    def dim(self) -> int:
        return self.op.dim


def eval_form(phi: Form, eta, tau) -> complex:
    """Evaluate the form; conjugate-linear in ``eta``, linear in ``tau``.

    A value beyond the float range comes out infinite (or NaN), without a warning.
    """
    eta, tau = as_square_matrix(eta, "eta"), as_square_matrix(tau, "tau")
    for name, x in (("eta", eta), ("tau", tau)):
        if x.shape[0] != phi.dim:
            raise InputError(f"dimension mismatch: form dim {phi.dim}, {name} dim {x.shape[0]}")
    return complex(np.vdot(eta, apply_superop(phi.op, tau)))


_FORM_KINDS = {
    PositivityClass.NON_HERMITIAN: FormKind.GENERAL,
    PositivityClass.INDEFINITE: FormKind.HERMITIAN,
    PositivityClass.PSD_SINGULAR: FormKind.HERMITIAN,
    PositivityClass.POSITIVE_DEFINITE: FormKind.DEFINITE_INNER_PRODUCT,
}


def classify_form(phi: Form, tol: float = DEFAULT_TOL) -> FormClass:
    """Map the representing operator's positivity class to a form class.

    NonHermitian -> General, Indefinite -> Hermitian, PSD with kernel ->
    Hermitian (not an inner product: kernel vectors have vanishing form),
    PositiveDefinite -> DefiniteInnerProduct. No witness is computed.
    """
    lam, threshold = _operator_lambda_min(phi.op, tol)
    return FormClass(_FORM_KINDS[_positivity_class(lam, threshold)], float(lam))


def form_norm(phi: Form) -> float:
    """Norm of the form = operator norm of its Liouville matrix."""
    return op_norm(to_liouville(phi.op))


def build_inner_product(a_list, b_list, tol: float = DEFAULT_TOL) -> Form:
    """Assemble a (definite) inner product from validated factor families.

    Requires every left factor positive semidefinite with jointly trivial
    kernel (the vertically stacked factors have full column rank) and
    every right factor positive definite. With finitely many terms the
    right factors' greatest lower bounds are bounded away from zero, so
    the resulting form is automatically a definite inner product.

    Both positivity hypotheses are decided by one ``core._positive`` call on the stacked
    factors, PSD for the left ones and PD for the right ones; a refused factor's class,
    named in the message, is then ``classify_hermitian``'s.

    Raises
    ------
    HypothesisViolatedError
        Carrying the index of the offending factor and the reason.
    """
    a_list = [as_square_matrix(a, f"a[{i}]") for i, a in enumerate(a_list)]
    b_list = [as_square_matrix(b, f"b[{i}]") for i, b in enumerate(b_list)]
    if len(a_list) != len(b_list):
        raise InputError(
            f"factor lists disagree in length: {len(a_list)} vs {len(b_list)}"
        )
    if not a_list:
        raise InputError("at least one factor pair is required")
    dim = a_list[0].shape[0]
    for i, (a, b) in enumerate(zip(a_list, b_list)):
        if a.shape[0] != dim or b.shape[0] != dim:
            raise InputError(f"factor pair {i} has inconsistent dimension")
    ok = _positive(np.stack(a_list + b_list), tol, np.repeat([False, True], len(a_list)))
    bad = np.flatnonzero(~ok[:len(a_list)])
    if bad.size:
        i = int(bad[0])
        raise HypothesisViolatedError(
            f"left factor {i} is not positive semidefinite "
            f"(classifies {classify_hermitian(a_list[i], tol).kind.value})",
            index=i,
            reason="left factor not PSD",
        )
    svals = np.linalg.svd(np.vstack(a_list), compute_uv=False)
    rank = int(np.count_nonzero(svals > tol * svals[0]))
    if rank < dim:
        raise HypothesisViolatedError(
            f"left factors have a joint kernel (stacked rank {rank} < {dim})",
            index=None,
            reason="joint kernel nontrivial",
        )
    bad = np.flatnonzero(~ok[len(a_list):])
    if bad.size:
        i = int(bad[0])
        raise HypothesisViolatedError(
            f"right factor {i} is not positive definite "
            f"(classifies {classify_hermitian(b_list[i], tol).kind.value})",
            index=i,
            reason="right factor not PD",
        )
    return Form(LRSum.from_pairs(zip(a_list, b_list), dim))


@dataclass(frozen=True, slots=True)
class EquivalenceResult:
    """Tight norm-equivalence constants between two inner-product forms.

    c_lo ||eta||_1 <= ||eta||_2 <= c_hi ||eta||_1 with both bounds
    attained at the returned witness matrices. The operator-norm bounds
    ||T1||^(-1/2) and ||T2||^(1/2) (m1 = m2 T1, m2 = m1 T2) are the same
    extreme pencil values, so they equal c_lo and c_hi.
    """

    c_lo: float
    c_hi: float
    witness_lo: np.ndarray
    witness_hi: np.ndarray


def equivalence_constants(
    phi1: Form, phi2: Form, tol: float = DEFAULT_TOL
) -> EquivalenceResult:
    """Tight equivalence constants between the norms of two inner products.

    Both forms must classify as (definite) inner products. The constants
    are the square roots of the extreme eigenvalues of the pencil of the
    second Liouville matrix against the first; pencil eigenvectors,
    unstacked to matrices, attain them. The pencil is solved on the Hermitian
    parts the two operators store.
    """
    for name, phi in (("first", phi1), ("second", phi2)):
        fc = classify_form(phi, tol)
        if not fc.is_inner_product:
            raise NotInnerProductError(
                f"{name} form classifies {fc.kind.value}, not an inner product"
            )
    if phi1.dim != phi2.dim:
        raise InputError(f"form dimensions disagree: {phi1.dim} vs {phi2.dim}")
    ext = _hermitian_extremes(_hermitian_liouville(phi2.op), _hermitian_liouville(phi1.op))
    c_lo = float(np.sqrt(max(ext.lambda_min, 0.0)))
    c_hi = float(np.sqrt(max(ext.lambda_max, 0.0)))
    return EquivalenceResult(
        c_lo=c_lo,
        c_hi=c_hi,
        witness_lo=unvec(ext.v_min, phi1.dim),
        witness_hi=unvec(ext.v_max, phi1.dim),
    )

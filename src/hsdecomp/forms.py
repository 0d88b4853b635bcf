"""Sesquilinear forms on the matrix space.

Every continuous sesquilinear form is tr(eta* A tau) for a superoperator
A, with the form Hermitian / an inner product / a definite inner product
exactly when A is selfadjoint / positive / positive definite. In finite
dimension positive and positive definite coincide for everywhere-defined
operators, so the classifier reports DefiniteInnerProduct for definite
operators and never a bare InnerProduct; a PSD operator with kernel is
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
    as_square_matrix,
    classify_hermitian,
    frob_inner,
    op_norm,
)
from .exceptions import HypothesisViolatedError, InputError, NotInnerProductError
from .pencil import pencil_extremes
from .superop import LRSum, apply_superop, to_liouville, unvec

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
    INNER_PRODUCT = "InnerProduct"
    DEFINITE_INNER_PRODUCT = "DefiniteInnerProduct"


@dataclass(frozen=True, slots=True)
class FormClass:
    kind: FormKind
    lambda_min: float

    @property
    def is_inner_product(self) -> bool:
        return self.kind in (FormKind.INNER_PRODUCT, FormKind.DEFINITE_INNER_PRODUCT)


@dataclass(frozen=True, slots=True)
class Form:
    """The sesquilinear form (eta, tau) -> tr(eta* op(tau))."""

    op: LRSum

    @property
    def dim(self) -> int:
        return self.op.dim


def eval_form(phi: Form, eta, tau) -> complex:
    """Evaluate the form; conjugate-linear in ``eta``, linear in ``tau``."""
    return frob_inner(eta, apply_superop(phi.op, tau))


def classify_form(phi: Form, tol: float = DEFAULT_TOL) -> FormClass:
    """Map the representing operator's positivity class to a form class.

    NonHermitian -> General, Indefinite -> Hermitian, PSD with kernel ->
    Hermitian (not an inner product: kernel vectors have vanishing form),
    PositiveDefinite -> DefiniteInnerProduct.
    """
    report = classify_hermitian(to_liouville(phi.op), tol)
    if report.kind is PositivityClass.NON_HERMITIAN:
        kind = FormKind.GENERAL
    elif report.kind is PositivityClass.POSITIVE_DEFINITE:
        kind = FormKind.DEFINITE_INNER_PRODUCT
    else:
        kind = FormKind.HERMITIAN
    return FormClass(kind, report.lambda_min)


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
    bad = np.flatnonzero(~_positive(np.stack(a_list), tol, strict=False))
    if bad.size:
        i = int(bad[0])
        raise HypothesisViolatedError(
            f"left factor {i} is not positive semidefinite "
            f"(classifies {classify_hermitian(a_list[i], tol).kind.value})",
            index=i,
            reason="left factor not PSD",
        )
    stacked = np.vstack(a_list)
    svals = np.linalg.svd(stacked, compute_uv=False)
    rank = int(np.count_nonzero(svals > tol * svals[0])) if svals[0] > 0 else 0
    if rank < dim:
        raise HypothesisViolatedError(
            f"left factors have a joint kernel (stacked rank {rank} < {dim})",
            index=None,
            reason="joint kernel nontrivial",
        )
    bad = np.flatnonzero(~_positive(np.stack(b_list), tol))
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
    unstacked to matrices, attain them.
    """
    for name, phi in (("first", phi1), ("second", phi2)):
        fc = classify_form(phi, tol)
        if not fc.is_inner_product:
            raise NotInnerProductError(
                f"{name} form classifies {fc.kind.value}, not an inner product"
            )
    if phi1.dim != phi2.dim:
        raise InputError(f"form dimensions disagree: {phi1.dim} vs {phi2.dim}")
    m1 = to_liouville(phi1.op)
    m2 = to_liouville(phi2.op)
    ext = pencil_extremes(m2, m1)
    c_lo = float(np.sqrt(max(ext.lambda_min, 0.0)))
    c_hi = float(np.sqrt(max(ext.lambda_max, 0.0)))
    return EquivalenceResult(
        c_lo=c_lo,
        c_hi=c_hi,
        witness_lo=unvec(ext.v_min, phi1.dim),
        witness_hi=unvec(ext.v_max, phi1.dim),
    )

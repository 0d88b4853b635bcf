"""Generalized Hermitian eigenvalue pencils (B, C) with C positive definite.

The pencil is reduced to a standard Hermitian problem by the Cholesky
factorization of C, as LAPACK ``zhegv`` does (Golub & Van Loan, *Matrix
Computations*, §8.7): with C = L L*, the pencil eigenvalues are those of
L⁻¹ B L⁻*, and an eigenvector y of that matrix gives v = L⁻* y with
v* C v = 1. Only numpy is used. On top of the solve sits the deterministic
eigenvector phase convention used throughout the package.

``pencil_extremes`` validates and Hermitizes its inputs, then hands them to
``_hermitian_extremes``, the one solve body for extreme values;
``forms.equivalence_constants`` calls that body directly on the Hermitian
Liouville matrices its two operators store.

Several pencils that share the base C are solved together by
``_pencil_minima``: it factors C and forms L⁻¹ once, runs one batched
``eigh`` over the stack of L⁻¹ B_i L⁻*, and yields the smallest eigenvalue
of each pencil, bit for bit what ``pencil_extremes(B_i, C).lambda_min``
returns.

The pencil eigenvalues are the stationary values of <f, B f> / <f, C f>; in
particular the smallest one is the largest scalar s with B - s C still
positive semidefinite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_square_matrix, fix_phase, hermitian_part
from .exceptions import InputError, NumericalError

__all__ = ["PencilExtremes", "pencil_eigh", "pencil_extremes"]


@dataclass(frozen=True, slots=True)
class PencilExtremes:
    lambda_min: float
    lambda_max: float
    v_min: np.ndarray
    v_max: np.ndarray


_COMPLEX = np.complex128

_OVERFLOW = "pencil base matrix is numerically singular: eigenvalues overflowed"


def _reduced_eigh(b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigen-decompose L⁻¹ B L⁻* (C = L L*) for a Hermitian B or a stack of them.

    Returns (w, y, L⁻¹); w may be non-finite, which callers report.
    """
    try:
        l_inv = np.linalg.solve(np.linalg.cholesky(c), np.eye(c.shape[0]))
        with np.errstate(over="ignore", invalid="ignore"):  # callers check w for overflow
            w, y = np.linalg.eigh(l_inv @ b @ l_inv.conj().T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"pencil base matrix is not positive definite: {exc}") from exc
    return w, y, l_inv


def _checked(b, c) -> tuple[np.ndarray, np.ndarray]:
    """The Hermitian parts of ``b`` and ``c``, each validated as a finite square matrix, of
    one size."""
    b = hermitian_part(as_square_matrix(b, "b"))
    c = hermitian_part(as_square_matrix(c, "c"))
    if b.shape != c.shape:
        raise InputError(f"dimension mismatch: {b.shape[0]} vs {c.shape[0]}")
    return b, c


def _solve(b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending pencil eigenvalues and C-orthonormal eigenvectors, unphased, of Hermitian
    ``b`` and ``c`` of one size (not checked)."""
    w, y, l_inv = _reduced_eigh(b, c)
    if not np.isfinite(w).all():
        raise NumericalError(_OVERFLOW)
    return w, l_inv.conj().T @ y


def _pencil_minima(bs, c):
    """Yield the smallest eigenvalue of each pencil (bs[i], c), sharing one factor of c.

    Everything is computed at the first step. A non-finite input or a bad
    base raises there; a pencil whose eigenvalues overflowed raises at its
    own step, where ``pencil_extremes`` would have raised. An empty ``bs``
    computes nothing.
    """
    if len(bs) == 0:
        return
    bs = np.asarray(bs, dtype=_COMPLEX)
    if not np.isfinite(bs).all():
        raise InputError("b: entries must be finite")
    c = hermitian_part(as_square_matrix(c, "c"))
    w, _, _ = _reduced_eigh(hermitian_part(bs), c)
    for w_i in w:
        if not np.isfinite(w_i).all():
            raise NumericalError(_OVERFLOW)
        yield float(w_i[0])


def pencil_eigh(b, c) -> tuple[np.ndarray, np.ndarray]:
    """All pencil eigenvalues (ascending) and phase-fixed eigenvectors.

    Both inputs are Hermitized before the solve; ``c`` must be positive
    definite for the generalized problem to be well posed. The eigenvectors
    are C-orthonormal: v* C v = I.
    """
    w, v = _solve(*_checked(b, c))
    v = np.column_stack([fix_phase(v[:, i]) for i in range(v.shape[1])])
    return w, v


def pencil_extremes(b, c) -> PencilExtremes:
    """Extreme pencil eigenvalues with unit-norm witnesses.

    Only the two extreme eigenvectors are phase-fixed; each witness equals
    the normalized first or last column of ``pencil_eigh``.
    """
    return _hermitian_extremes(*_checked(b, c))


def _hermitian_extremes(b: np.ndarray, c: np.ndarray) -> PencilExtremes:
    """``pencil_extremes`` of Hermitian ``b`` and ``c`` of one size, taken as given: no copy,
    check or Hermitization, for matrices that already are, such as the Hermitian Liouville
    matrices an operator stores."""
    w, v = _solve(b, c)
    v_min = fix_phase(v[:, 0])
    v_max = fix_phase(v[:, -1])
    return PencilExtremes(
        float(w[0]), float(w[-1]),
        v_min / np.linalg.norm(v_min), v_max / np.linalg.norm(v_max),
    )

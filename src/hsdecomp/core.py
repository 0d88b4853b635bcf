"""Finite-dimensional Hilbert-Schmidt primitives.

The model space is C^d; the d x d complex matrices carry the trace inner
product tr(x* y), conjugate-linear in the LEFT argument. This module owns
the matrix-unit bases, the Frobenius geometry, and the Hermitian
positivity classifier that every other module delegates to.

Conventions
-----------
- Basis indices are 1-based: ``matrix_unit(d, n, m)`` has its single 1 in
  row n, column m, for 1 <= n, m <= d.
- One function, ``_tolerance_rule`` on a (k, n, n) stack, decides Hermiticity
  (||T - T*||_F > tol * ||T||_F) and eigenvalue thresholds (tol * max(1, ||T||_F))
  for ``classify_hermitian``, every stacked positivity check and trace
  ``lambda_min_*`` field (``_lambda_min_stack``, NaN where not Hermitian) and
  ``diag_blocks``. Not following it yet: the ``pd_decompose`` drop threshold,
  ``_nonvanishing_vector``, ``_independent_subset``, the one-sum zero and
  two-sum vanishing-factor tests, and ``selfadjoint_decompose``'s inline test.
- Eigenvector output is phase-normalized (first nonzero component real
  positive) so repeated runs produce identical reports.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InputError

__all__ = [
    "DEFAULT_TOL",
    "PositivityClass",
    "PositivityReport",
    "matrix_unit",
    "hermitian_unit",
    "frob_inner",
    "frob_norm",
    "op_norm",
    "hermitian_part",
    "skew_part",
    "fix_phase",
    "classify_hermitian",
    "as_square_matrix",
]

DEFAULT_TOL = 1e-9

_COMPLEX = np.complex128


def as_square_matrix(x, name: str = "matrix") -> np.ndarray:
    """Validate and return ``x`` as a finite square complex matrix (a copy)."""
    try:
        m = np.array(x, dtype=_COMPLEX)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name}: not convertible to a complex matrix") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InputError(f"{name}: expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InputError(f"{name}: entries must be finite")
    return m


def _check_index(dim: int, idx: int, label: str) -> None:
    if not 1 <= idx <= dim:
        raise InputError(f"index {label}={idx} out of range 1..{dim}")


def matrix_unit(dim: int, n: int, m: int) -> np.ndarray:
    """Rank-one matrix unit with a single 1 at row n, column m (1-based)."""
    if dim < 1:
        raise InputError(f"dim must be >= 1, got {dim}")
    _check_index(dim, n, "n")
    _check_index(dim, m, "m")
    e = np.zeros((dim, dim), dtype=_COMPLEX)
    e[n - 1, m - 1] = 1.0
    return e


def hermitian_unit(dim: int, n: int, m: int) -> np.ndarray:
    """Hermitian basis element ((1+i)/2) E_nm + ((1-i)/2) E_mn.

    For n == m this is the plain matrix unit. Over all (n, m) the family
    is an orthonormal basis of the matrix space consisting of selfadjoint
    matrices.
    """
    return (0.5 + 0.5j) * matrix_unit(dim, n, m) + (0.5 - 0.5j) * matrix_unit(dim, m, n)


def _matrix_units(dim: int) -> np.ndarray:
    """Every ``matrix_unit(dim, n, m)`` in a (dim², dim, dim) stack, at k = (n-1)*dim + (m-1)."""
    return np.eye(dim * dim, dtype=_COMPLEX).reshape(dim * dim, dim, dim)


def _hermitian_units(dim: int) -> np.ndarray:
    """Every ``hermitian_unit(dim, n, m)``, stacked like ``_matrix_units``, by its arithmetic."""
    e = _matrix_units(dim)
    return (0.5 + 0.5j) * e + (0.5 - 0.5j) * e.transpose(0, 2, 1)


def frob_inner(eta, tau) -> complex:
    """Trace inner product tr(eta* tau), conjugate-linear in ``eta``."""
    eta = as_square_matrix(eta, "eta")
    tau = as_square_matrix(tau, "tau")
    if eta.shape != tau.shape:
        raise InputError(f"dimension mismatch: {eta.shape[0]} vs {tau.shape[0]}")
    return complex(np.vdot(eta, tau))


def frob_norm(eta) -> float:
    """Frobenius norm; equals sqrt(sum of squared column norms) in any orthonormal basis."""
    return float(np.linalg.norm(np.asarray(eta, dtype=_COMPLEX)))


def op_norm(a) -> float:
    """Operator (spectral) norm: the largest singular value."""
    return float(np.linalg.norm(as_square_matrix(a, "a"), 2))


def hermitian_part(t) -> np.ndarray:
    """(T + T*)/2, of a matrix or of each matrix in a stack."""
    t = np.asarray(t, dtype=_COMPLEX)
    return (t + t.conj().swapaxes(-1, -2)) / 2


def skew_part(t) -> np.ndarray:
    """(T - T*)/2, of a matrix or of each matrix in a stack."""
    t = np.asarray(t, dtype=_COMPLEX)
    return (t - t.conj().swapaxes(-1, -2)) / 2


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a vector so its first nonzero component is real positive."""
    v = np.asarray(v, dtype=_COMPLEX).copy()
    amax = np.max(np.abs(v)) if v.size else 0.0
    if amax == 0.0:
        return v
    idx = int(np.argmax(np.abs(v) > 1e-12 * amax))
    pivot = v[idx]
    if pivot != 0:
        v *= np.conj(pivot) / abs(pivot)
        v[idx] = v[idx].real + 0.0j
    return v


class PositivityClass(enum.Enum):
    NON_HERMITIAN = "NonHermitian"
    INDEFINITE = "Indefinite"
    PSD_SINGULAR = "PsdSingular"
    POSITIVE_DEFINITE = "PositiveDefinite"


@dataclass(frozen=True, slots=True)
class PositivityReport:
    """Outcome of the Hermitian positivity test.

    ``lambda_min`` is the greatest lower bound of the quadratic form (the
    smallest eigenvalue of the Hermitian part); it is NaN when the input
    is not Hermitian. ``witness`` attains lambda_min for Hermitian input
    and certifies non-Hermitianness otherwise.
    """

    kind: PositivityClass
    lambda_min: float
    kernel_dim: int
    witness: np.ndarray

    def __post_init__(self):
        w = np.array(self.witness, dtype=_COMPLEX)
        w.setflags(write=False)
        object.__setattr__(self, "witness", w)

    @property
    def is_hermitian(self) -> bool:
        return self.kind is not PositivityClass.NON_HERMITIAN

    @property
    def is_psd(self) -> bool:
        return self.kind in (PositivityClass.PSD_SINGULAR, PositivityClass.POSITIVE_DEFINITE)

    @property
    def is_pd(self) -> bool:
        return self.kind is PositivityClass.POSITIVE_DEFINITE


def _frob_norms(ts: np.ndarray) -> np.ndarray:
    """``frob_norm`` of each matrix of a complex (k, m, n) stack, bit for bit.

    Like ``ravel(order="K")``, each matrix is read in memory order (the last two
    axes swap when the last has the larger stride); the scalar-output matmul of
    each flattened real and imaginary part makes the ``dot`` call ``frob_norm`` does.
    """
    if abs(ts.strides[-1]) > abs(ts.strides[-2]):
        ts = ts.swapaxes(-1, -2)
    x = ts.reshape(len(ts), 1, ts.shape[-2] * ts.shape[-1])
    sq = x.real @ x.real.swapaxes(-1, -2) + x.imag @ x.imag.swapaxes(-1, -2)
    return np.sqrt(sq[:, 0, 0])


def _tolerance_rule(ts: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The positivity rule on a complex (k, n, n) stack: (non_hermitian, threshold) per matrix.

    T is not Hermitian when ||T - T*||_F exceeds tol * ||T||_F; its eigenvalues are
    thresholded at tol * max(1, ||T||_F). Non-finite entries are reported before a bad tol.
    """
    if not np.isfinite(ts).all():
        raise InputError("T: entries must be finite")
    if not tol > 0:
        raise InputError(f"tol must be positive, got {tol}")
    norms = _frob_norms(ts)
    non_hermitian = _frob_norms(ts - ts.conj().swapaxes(-1, -2)) > tol * norms
    return non_hermitian, tol * np.maximum(1.0, norms)


def _lambda_min_stack(ts, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """lambda_min and eigenvalue threshold of each matrix in a (k, n, n) stack.

    The values are those ``classify_hermitian`` reports, from ``_tolerance_rule`` and one
    batched ``eigh``: lambda_min is NaN where the Hermiticity test fails. A matrix is
    positive definite iff lambda_min > threshold and positive semidefinite iff
    lambda_min >= -threshold (both false for NaN).
    """
    ts = np.asarray(ts, dtype=_COMPLEX)
    non_hermitian, threshold = _tolerance_rule(ts, tol)
    lam = np.linalg.eigh(hermitian_part(ts))[0][:, 0]
    return np.where(non_hermitian, math.nan, lam), threshold


def _positive(stack, tol: float, strict: bool = True) -> np.ndarray:
    """Whether each matrix of a stack is positive definite (``strict``) or semidefinite."""
    lam, threshold = _lambda_min_stack(stack, tol)
    return lam > threshold if strict else lam >= -threshold


def classify_hermitian(t, tol: float = DEFAULT_TOL) -> PositivityReport:
    """Classify a matrix as NonHermitian / Indefinite / PsdSingular / PositiveDefinite.

    The Hermiticity defect ||T - T*||_F is compared against tol * ||T||_F.
    For Hermitian input the eigenvalues of (T + T*)/2 are thresholded at
    tol * max(1, ||T||_F): below -threshold is Indefinite, within it is
    PsdSingular (the kernel dimension counts eigenvalues inside the
    threshold band), above it is PositiveDefinite.
    """
    t = as_square_matrix(t, "T")
    (non_hermitian,), (threshold,) = _tolerance_rule(t[None], tol)
    if non_hermitian:
        w, v = np.linalg.eigh(1j * skew_part(t))
        idx = int(np.argmax(np.abs(w)))
        return PositivityReport(
            PositivityClass.NON_HERMITIAN, math.nan, 0, fix_phase(v[:, idx])
        )
    w, v = np.linalg.eigh(hermitian_part(t))
    lam = float(w[0])
    kernel_dim = int(np.count_nonzero(np.abs(w) <= threshold))
    witness = fix_phase(v[:, 0])
    if lam < -threshold:
        kind = PositivityClass.INDEFINITE
    elif lam <= threshold:
        kind = PositivityClass.PSD_SINGULAR
    else:
        kind = PositivityClass.POSITIVE_DEFINITE
    return PositivityReport(kind, lam, kernel_dim, witness)

"""Finite-dimensional Hilbert-Schmidt primitives.

The model space is C^d; the d x d complex matrices carry the trace inner
product tr(x* y), conjugate-linear in the LEFT argument. This module owns
the matrix-unit bases, the Frobenius geometry, and the Hermitian
positivity classifier that every other module delegates to.

Conventions
-----------
- Basis indices are 1-based: ``matrix_unit(d, n, m)`` has its single 1 in
  row n, column m, for 1 <= n, m <= d.
- One Frobenius norm, ``_frob_norms`` on a (k, m, n) stack (``frob_norm`` calls it): it does
  not overflow below the float range. A library ``tol`` lies in (0, 1) (``_check_tol``): at 1
  or more every Hermitian matrix would classify PsdSingular with a full kernel.
- The positivity rule has a tol-free norm pass, ``_rule_norms`` (||T||_F and ||T - T*||_F of
  a (k, n, n) stack), and a decision, ``_tolerance_rule``, the one function that decides
  Hermiticity (||T - T*||_F > tol * ||T||_F) from those norms at the caller's tol. Every
  eigenvalue threshold, tol * max(1, ||T||_F), is ``_threshold``'s (finite for a finite norm,
  as is the rule's tol * ||T||_F, since tol < 1): the rule's, the ``pd_decompose``
  drop test's (at tol 1e-13), ``_nonvanishing_vector``'s, the two-sum vanishing-factor
  test's and the ray-limit slack's.
  ``_positivity_class`` maps (lambda_min, threshold) to the class for ``classify_hermitian``,
  the decompositions' "classify" steps, ``classify_form`` and ``build_inner_product``'s
  refusal messages. Only ``classify_superop`` (via ``_classify``) and ``diag_blocks`` report
  a witness and kernel; the rest read lambda_min (NaN where not Hermitian), of a matrix stack
  from ``_lambda_min_stack``; a stacked PD or PSD verdict (``_positive``, with one strictness
  for the stack or one per matrix, as ``build_inner_product`` decides its PSD left and PD
  right factors together) is instead a completed Cholesky factorization of
  H - threshold I or H + threshold I after the same rule, which can differ from the class
  only within (n + 2) u (tr|H| + n threshold) of the threshold. Every candidate factor that
  ``pd_decompose`` or ``two_sum_pd`` accepts or rejects, each pencil-offset try among them,
  is decided by ``_positive``; their ``eigh`` calls pick directions and pencil values and
  make the trace's numbers, and accept or reject nothing.
  Operators are classified in ``superop``, from the values an LRSum
  stores: its Liouville matrix, the rule's norm pass of that matrix, its Hermitian part and
  that part's ``eigh``. ``_operator_lambda_min`` reads the spectrum and ``_selfadjoint_liouville``
  refuses a non-selfadjoint operator, each after the rule's decision at the caller's tol;
  ``classify_superop`` passes the stored norms and spectrum to ``_classify``. Different on
  purpose: the one-sum zero test ||M||_F <= tol (absolute), the sigma_max-relative rank tests
  of ``_independent_subset`` and ``build_inner_product``, and ``fix_phase``'s 1e-12 pivot.
- Eigenvector output is phase-normalized (first nonzero component real
  positive) so repeated runs produce identical reports.
"""

from __future__ import annotations

import enum
import math
import numbers
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


def _is_integer(x) -> bool:
    """Whether ``x`` is an integer, numpy's included, and not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_dim(dim) -> int:
    """``dim`` as a Python int; InputError unless it is an integer of at least 1."""
    if not _is_integer(dim) or dim < 1:
        raise InputError(f"dim must be a positive integer, got {dim!r}")
    return int(dim)


def _check_index(dim: int, idx, label: str) -> None:
    if not _is_integer(idx) or not 1 <= idx <= dim:
        raise InputError(f"index {label} must be an integer in 1..{dim}, got {idx!r}")


def matrix_unit(dim: int, n: int, m: int) -> np.ndarray:
    """Rank-one matrix unit with a single 1 at row n, column m (1-based)."""
    dim = _check_dim(dim)
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
    return float(_frob_norms(np.asarray(eta, dtype=_COMPLEX).ravel(order="K")[None, None])[0])


def op_norm(a) -> float:
    """Operator (spectral) norm: the largest singular value."""
    return float(np.linalg.norm(as_square_matrix(a, "a"), 2))


def hermitian_part(t) -> np.ndarray:
    """(T + T*)/2, of a matrix or of each matrix in a stack, as T/2 + (T/2)*: that sum cannot
    overflow, and halving is exact in the normal range, so no other bit moves."""
    h = np.asarray(t, dtype=_COMPLEX) / 2
    return np.add(h, h.conj().swapaxes(-1, -2), out=h)


def skew_part(t) -> np.ndarray:
    """(T - T*)/2, of a matrix or of each matrix in a stack, halved first as ``hermitian_part``."""
    h = np.asarray(t, dtype=_COMPLEX) / 2
    return np.subtract(h, h.conj().swapaxes(-1, -2), out=h)


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a vector so its first nonzero component is real positive."""
    v = np.asarray(v, dtype=_COMPLEX).copy()
    mags = np.abs(v)
    amax = np.max(mags) if v.size else 0.0
    if amax == 0.0:
        return v
    idx = int(np.argmax(mags > 1e-12 * amax))
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
    """The Frobenius norm of each matrix of a complex (k, m, n) stack; the library's only one.

    Like ``ravel(order="K")``, each matrix is read in memory order (the last two
    axes swap when the last has the larger stride); the scalar-output matmul of
    each flattened real and imaginary part makes the ``dot`` call ``np.linalg.norm`` does.
    A norm whose square overflowed is taken again by ``np.hypot``, which squares nothing,
    so no norm below the float range overflows or warns.
    """
    if abs(ts.strides[-1]) > abs(ts.strides[-2]):
        ts = ts.swapaxes(-1, -2)
    x = ts.reshape(len(ts), 1, ts.shape[-2] * ts.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # the caller tests for non-finite norms
        sq = x.real @ x.real.swapaxes(-1, -2) + x.imag @ x.imag.swapaxes(-1, -2)
        norms = np.sqrt(sq[:, 0, 0])
        big = np.isinf(norms)
        if np.count_nonzero(big):
            norms[big] = np.hypot.reduce(np.abs(x[big, 0]), axis=1)
    return norms


def _threshold(norm, tol: float):
    """The eigenvalue threshold tol * max(1, norm) for a Frobenius norm or an array of them."""
    return tol * np.maximum(1.0, norm)


def _check_tol(tol) -> None:
    """InputError unless 0 < ``tol`` < 1: from 1 on, every threshold is at least ||T||_F."""
    if not tol > 0:
        raise InputError(f"tol must be positive, got {tol}")
    if not tol < 1:
        raise InputError(f"tol must be below 1, got {tol}")


def _rule_norms(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The norm pass of the positivity rule on a complex (k, n, n) stack: (||T||_F,
    ||T - T*||_F) per matrix. It holds no tol, so an operator keeps its own (``superop``).

    A non-finite entry or norm comes out as a non-finite norm, which ``_tolerance_rule``
    reports.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite entries are reported there
        skew = ts - ts.conj().swapaxes(-1, -2)
    return _frob_norms(ts), _frob_norms(skew)


def _tolerance_rule(ts: np.ndarray, rule_norms: tuple[np.ndarray, np.ndarray],
                    tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The positivity rule on a complex (k, n, n) stack: (non_hermitian, threshold) per matrix,
    from ``rule_norms``, the stack's ``_rule_norms``.

    T is not Hermitian when ||T - T*||_F exceeds tol * ||T||_F; its eigenvalues are
    thresholded at tol * max(1, ||T||_F). Non-finite entries are reported before a bad tol,
    and a bad tol before a norm beyond the float range.
    """
    norms, defects = rule_norms
    finite = np.isfinite(np.maximum(norms, defects)).all()  # a sum of two could overflow
    if not finite and not np.isfinite(ts).all():
        raise InputError("T: entries must be finite")
    _check_tol(tol)
    if not finite:
        raise InputError("T: Frobenius norm exceeds the float range")
    return defects > tol * norms, _threshold(norms, tol)


def _lambda_min_stack(ts, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """lambda_min and eigenvalue threshold of each matrix in a (k, n, n) stack.

    The values are those ``classify_hermitian`` reports, from ``_tolerance_rule`` and one
    batched ``eigh``: lambda_min is NaN where the Hermiticity test fails. A matrix is
    positive definite iff lambda_min > threshold and positive semidefinite iff
    lambda_min >= -threshold (both false for NaN).
    """
    ts = np.asarray(ts, dtype=_COMPLEX)
    non_hermitian, threshold = _tolerance_rule(ts, _rule_norms(ts), tol)
    w = np.linalg.eigh(hermitian_part(ts))[0]
    return np.where(non_hermitian, math.nan, w[..., 0]), threshold


def _factors(ms: np.ndarray) -> bool:
    """Whether ``np.linalg.cholesky`` completes on a matrix or on every matrix of a stack."""
    try:
        np.linalg.cholesky(ms)
    except np.linalg.LinAlgError:
        return False
    return True


def _positive(stack, tol: float, strict=True) -> np.ndarray:
    """Whether each matrix of a (k, n, n) stack is positive definite (``strict``) or semidefinite;
    ``strict`` is one bool for the whole stack or a (k,) bool array, one per matrix.

    The verdicts of ``_lambda_min_stack`` (lambda_min > threshold, lambda_min >= -threshold),
    decided without an eigensolve: a matrix passes iff ``_tolerance_rule`` finds it Hermitian
    and a Cholesky factorization of H - threshold I (``strict``) or H + threshold I completes,
    H its Hermitian part (Rump, BIT 46, 2006; Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 10). Where lambda_min lies within (n + 2) u (tr|H| + n threshold) of the
    threshold, u = 2^-53, the two may differ: Rump's bound for a completed factorization,
    widened by the rounding of the shift. The factored matrix is halved,
    (H -+ threshold I) / 2, so that no entry overflows (|h_ii| + threshold < 2 ||T||_F); the
    halving is exact in the normal range. One ``cholesky`` takes the whole stack; only when it
    fails on two or more matrices is each factored alone, so a verdict never depends on its
    neighbours, and a lone matrix is not factored twice.
    """
    ts = np.asarray(stack, dtype=_COMPLEX)
    non_hermitian, threshold = _tolerance_rule(ts, _rule_norms(ts), tol)
    h = hermitian_part(ts / 2)
    diag = np.arange(h.shape[-1])
    h[:, diag, diag] -= np.where(strict, threshold / 2, -threshold / 2)[:, None]
    if _factors(h):
        return ~non_hermitian
    return ~non_hermitian & np.array([len(h) > 1 and _factors(m) for m in h], dtype=bool)


def _positivity_class(lam: float, threshold: float) -> PositivityClass:
    """The class of a matrix from its lambda_min (NaN when not Hermitian) and threshold."""
    if math.isnan(lam):
        return PositivityClass.NON_HERMITIAN
    if lam < -threshold:
        return PositivityClass.INDEFINITE
    if lam <= threshold:
        return PositivityClass.PSD_SINGULAR
    return PositivityClass.POSITIVE_DEFINITE


def classify_hermitian(t, tol: float = DEFAULT_TOL) -> PositivityReport:
    """Classify a matrix as NonHermitian / Indefinite / PsdSingular / PositiveDefinite.

    The Hermiticity defect ||T - T*||_F is compared against tol * ||T||_F.
    For Hermitian input the eigenvalues of (T + T*)/2 are thresholded at
    tol * max(1, ||T||_F): below -threshold is Indefinite, within it is
    PsdSingular (the kernel dimension counts eigenvalues inside the
    threshold band), above it is PositiveDefinite.
    """
    t = as_square_matrix(t, "T")
    return _classify(t, _rule_norms(t[None]), tol, lambda: np.linalg.eigh(hermitian_part(t)))


def _classify(t: np.ndarray, rule_norms, tol: float, spectrum) -> PositivityReport:
    """``classify_hermitian`` of the square matrix ``t``, with ``rule_norms`` the
    ``_rule_norms`` of ``t[None]`` and ``spectrum()`` the ``eigh`` of its Hermitian part,
    called only when the rule finds ``t`` Hermitian."""
    (non_hermitian,), (threshold,) = _tolerance_rule(t[None], rule_norms, tol)
    if non_hermitian:
        w, v = np.linalg.eigh(1j * skew_part(t))
        lam, kernel_dim, witness = math.nan, 0, v[:, int(np.argmax(np.abs(w)))]
    else:
        w, v = spectrum()
        lam = float(w[0])
        kernel_dim = int(np.count_nonzero(np.abs(w) <= threshold))
        witness = v[:, 0]
    return PositivityReport(_positivity_class(lam, threshold), lam, kernel_dim, fix_phase(witness))

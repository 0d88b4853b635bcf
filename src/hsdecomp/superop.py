"""Superoperators on the matrix space, in two interchangeable forms.

A superoperator is represented either as an LR-sum -- a finite list of
signed (a, b) pairs acting by eta -> sum_n s_n a_n eta b_n, where at most
the first sign s_1 may be -1 -- or as its dense Liouville matrix acting on
column-stacked matrices.

We use the column-stacking convention throughout:

    vec(eta)[c*d + r] = eta[r, c]          (0-based)
    vec(a eta b) = (b^T kron a) vec(eta)

so the matrix unit with its 1 at (row n, col m) maps to vec index
(m-1)*d + n in 1-based terms. The Liouville matrix is the computational
oracle for every spectral question about a superoperator: Hermiticity,
positivity and greatest lower bounds of the induced quadratic form on
the matrix space are read off its ordinary eigendecomposition.

An LRSum is frozen and each LRTerm holds read-only factors that no caller
can write (copies, or arrays the library has already frozen), so four
values are properties of the operator: the Liouville matrix, the norm
pass of the tolerance rule on it (||L||_F and ||L - L*||_F, from
``core._rule_norms``), its Hermitian part and the ``eigh`` of that part.
Each is computed on first use, then kept read-only on the LRSum (about
192 KB at d = 8), ignored by equality and pickling. They hold no
tolerance; each call applies only its own ``tol``. The pencil of
``forms.equivalence_constants`` reads the stored Hermitian parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, isqrt, nan
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    PositivityReport,
    _check_dim,
    _check_tol,
    _hermitian_units,
    _is_integer,
    _matrix_units,
    _rule_norms,
    _tolerance_rule,
    as_square_matrix,
    _classify,
    frob_norm,
    hermitian_part,
)
from .exceptions import InputError, NotSelfadjointError, NumericalError

__all__ = [
    "LRTerm",
    "LRSum",
    "identity_superop",
    "vec",
    "unvec",
    "apply_superop",
    "to_liouville",
    "from_liouville",
    "adjoint",
    "transpose_dual",
    "reduce_terms",
    "selfadjoint_decompose",
    "classify_superop",
]

_COMPLEX = np.complex128
_MAX_LIOUVILLE_DIM = 32  # a 1024 x 1024 Liouville matrix (16 MiB); README says why


@dataclass(frozen=True, slots=True, eq=False)
class LRTerm:
    """One left-right multiplication summand eta -> sign * a eta b, sign = +-1.

    The sign is an integer, stored as a Python int. Terms are equal when their signs and the
    entries of their factors are; they are not hashable.

    Each factor is checked by ``as_square_matrix`` and stored read-only. A factor that is
    already frozen (contiguous, read-only complex128, its memory owner a read-only ndarray:
    another term's factor, or a row of ``build_inner_product``'s stack) is checked and kept
    as it is; every other input, a writable one or a read-only view of a writable owner, is
    copied, so no caller can change a term after it is built.
    """

    a: np.ndarray
    b: np.ndarray
    sign: int = 1

    def __post_init__(self):
        if not _is_integer(self.sign) or self.sign not in (1, -1):
            raise InputError(f"sign must be +1 or -1, got {self.sign!r}")
        object.__setattr__(self, "sign", int(self.sign))
        a = as_square_matrix(self.a, "a")
        b = as_square_matrix(self.b, "b")
        if a.shape != b.shape:
            raise InputError(
                f"term factors disagree in dimension: {a.shape[0]} vs {b.shape[0]}"
            )
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __eq__(self, other):
        if not isinstance(other, LRTerm):
            return NotImplemented
        return (self.sign == other.sign and np.array_equal(self.a, other.a)
                and np.array_equal(self.b, other.b))

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True, slots=True)
class LRSum:
    """A superoperator eta -> sum_n s_n a_n eta b_n; an empty term list is the zero operator.

    At most one sign s_n is -1, and then it is the first: the shape of the
    negative-leading-term decomposition.
    """

    dim: int
    terms: tuple[LRTerm, ...] = field(default=())
    _derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_dim(self.dim))
        terms = tuple(
            t if isinstance(t, LRTerm) else LRTerm(*t) for t in self.terms
        )
        negatives = [i for i, t in enumerate(terms) if t.sign == -1]
        if len(negatives) > 1:
            raise InputError("at most one negative term is allowed")
        if negatives and negatives[0] != 0:
            raise InputError("the negative term must come first")
        for t in terms:
            if t.dim != self.dim:
                raise InputError(f"term dimension {t.dim} does not match dim {self.dim}")
        object.__setattr__(self, "terms", terms)

    def __reduce__(self):
        return type(self), (self.dim, self.terms)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple], dim: int | None = None) -> "LRSum":
        terms = tuple(LRTerm(a, b) for a, b in pairs)
        if dim is None:
            if not terms:
                raise InputError("cannot infer dim from an empty pair list")
            dim = terms[0].dim
        return cls(dim, terms)

    @property
    def has_negative(self) -> bool:
        return bool(self.terms) and self.terms[0].sign == -1

    def as_lrsum(self) -> "LRSum":
        """The same operator with every sign folded into its left factor."""
        if not self.has_negative:
            return self
        return LRSum(self.dim, tuple(LRTerm(t.sign * t.a, t.b) for t in self.terms))

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[LRTerm]:
        return iter(self.terms)


def identity_superop(dim: int) -> LRSum:
    eye = np.eye(_check_dim(dim), dtype=_COMPLEX)
    return LRSum.from_pairs([(eye, eye)], dim)


def vec(eta) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(eta, dtype=_COMPLEX).reshape(-1, order="F")


def unvec(x, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`; without ``dim``, the length must be d² for a positive d."""
    x = np.asarray(x, dtype=_COMPLEX).reshape(-1)
    dim = max(1, isqrt(x.size)) if dim is None else _check_dim(dim)
    if dim * dim != x.size:
        raise InputError(f"vector of length {x.size} is not a stacked {dim}x{dim} matrix")
    return x.reshape((dim, dim), order="F")


def apply_superop(s: LRSum, eta) -> np.ndarray:
    """Evaluate sum_n s_n a_n eta b_n by direct matrix products.

    An entry beyond the float range comes out infinite (or NaN), without a warning.
    """
    eta = as_square_matrix(eta, "eta")
    if eta.shape[0] != s.dim:
        raise InputError(f"dimension mismatch: operator dim {s.dim}, eta dim {eta.shape[0]}")
    return _apply(s, eta)


def _apply(s: LRSum, eta: np.ndarray) -> np.ndarray:
    """``apply_superop`` of a finite square complex matrix ``eta`` of the operator's
    dimension, which the caller has checked."""
    out = np.zeros((s.dim, s.dim), dtype=_COMPLEX)
    with np.errstate(over="ignore", invalid="ignore"):  # the caller reports a non-finite image
        for t in s.as_lrsum().terms:
            out += t.a @ eta @ t.b
    return out


def to_liouville(s: LRSum) -> np.ndarray:
    """Dense Liouville matrix sum_n s_n (b_n^T kron a_n), summed from zeros in term order.

    The exact products of each term fill one reused buffer with the bits of
    ``np.kron(b.T, a)`` over ``as_lrsum()``: b^T stays the first operand (complex
    products do not commute bitwise) and signs fold into a as ``as_lrsum()`` folds them.
    An entry beyond the float range comes out infinite (or NaN), without a warning; the
    caller reports it. A ``dim`` above ``_MAX_LIOUVILLE_DIM`` is an InputError, raised
    before any buffer is allocated.

    The matrix is built on the first call and kept on ``s``; every call returns it
    read-only, so a caller that writes to it works on a copy.
    """
    return _stored(s, "liouville", lambda: _liouville(s))


def _liouville(s: LRSum) -> np.ndarray:
    d = s.dim
    if d > _MAX_LIOUVILLE_DIM:
        raise InputError(f"dim {d} exceeds the Liouville size limit {_MAX_LIOUVILLE_DIM}")
    out, buf = np.zeros((d, d, d, d), dtype=_COMPLEX), np.empty((d, d, d, d), dtype=_COMPLEX)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in s.terms:
            a = t.sign * t.a if s.has_negative else t.a
            np.multiply(t.b.T[:, None, :, None], a[None, :, None, :], out=buf)
            out += buf
    return out.reshape(d * d, d * d)


def _stored(s: LRSum, key: str, compute):
    """``compute()`` on the first call for ``key``, then the value kept on ``s``: an array or
    a tuple of arrays, each made read-only."""
    value = s._derived.get(key)
    if value is None:
        value = s._derived[key] = compute()
        for x in (value,) if isinstance(value, np.ndarray) else value:
            x.setflags(write=False)
    return value


def _hermitian_liouville(s: LRSum) -> np.ndarray:
    """The Hermitian part of ``to_liouville(s)``, computed once and kept on ``s`` read-only."""
    return _stored(s, "hermitian", lambda: hermitian_part(to_liouville(s)))


def _hermitian_spectrum(s: LRSum) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of ``_hermitian_liouville(s)``, computed once and kept on ``s`` read-only; the
    classifiers call it only once their tolerance rule has passed."""
    return _stored(s, "eigh", lambda: np.linalg.eigh(_hermitian_liouville(s)))


def _liouville_rule_norms(s: LRSum, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``core._rule_norms`` of ``to_liouville(s)``, the tol-free norm pass of the positivity
    rule, taken once and kept on ``s`` read-only; each caller applies its own ``tol``, checked
    here. The factors are finite, so a non-finite norm is an overflow: a NumericalError."""
    _check_tol(tol)
    rule_norms = _stored(s, "rule_norms", lambda: _rule_norms(to_liouville(s)[None]))
    if not (isfinite(rule_norms[0][0]) and isfinite(rule_norms[1][0])):
        raise NumericalError("Liouville matrix exceeds the float range")
    return rule_norms


def _operator_lambda_min(s: LRSum, tol: float) -> tuple[float, float]:
    """``_lambda_min_stack`` of ``to_liouville(s)`` alone, read from the stored norm pass and
    spectrum."""
    (non_hermitian,), (threshold,) = _tolerance_rule(to_liouville(s)[None],
                                                     _liouville_rule_norms(s, tol), tol)
    return (nan if non_hermitian else _hermitian_spectrum(s)[0][0]), threshold


def _selfadjoint_liouville(s: LRSum, tol: float) -> np.ndarray:
    """``to_liouville(s)``; NotSelfadjointError unless it passes the Hermiticity test at ``tol``."""
    m, rule_norms = to_liouville(s), _liouville_rule_norms(s, tol)
    (non_hermitian,), _ = _tolerance_rule(m[None], rule_norms, tol)
    if non_hermitian:
        (norm,), (defect,) = rule_norms
        raise NotSelfadjointError(f"Liouville matrix is not Hermitian: defect {defect:.3e} "
                                  f"exceeds tol * norm = {tol * norm:.3e}")
    return m


def _liouville_dim(m: np.ndarray) -> int:
    d = isqrt(m.shape[0])
    if d * d != m.shape[0]:
        raise InputError(f"Liouville matrix size {m.shape[0]} is not a perfect square")
    return d


def from_liouville(m, variant: str = "left") -> LRSum:
    """Decompose a Liouville matrix into an LR-sum over matrix units.

    Parameters
    ----------
    m : array
        d^2 x d^2 Liouville matrix.
    variant : {"left", "right"}
        "left" produces terms (E_nm, a_nm) with the matrix unit acting on
        the left; "right" produces (a_nm, E_nm) with it acting on the
        right. Either way at most d^2 terms are emitted (coefficient
        blocks that are exactly zero are dropped) and the Liouville
        matrix of the result reproduces the input exactly.

    Notes
    -----
    Under the column-stacking convention each coefficient entry is a
    single entry of ``m``, read through an index permutation; no matrix
    products are needed.
    """
    blocks = left_blocks(m)
    if variant not in ("left", "right"):
        raise InputError(f"variant must be 'left' or 'right', got {variant!r}")
    d = blocks.shape[1]
    if variant == "right":
        # the right-variant block (n, m) collects entry (n, m) of every left-variant block
        blocks = blocks.reshape(d, d, d, d).transpose(2, 3, 0, 1).reshape(d * d, d, d)
    terms = [
        LRTerm(eps, coeff) if variant == "left" else LRTerm(coeff, eps)
        for eps, coeff in zip(_matrix_units(d), blocks)
        if coeff.any()
    ]
    return LRSum(d, tuple(terms))


def left_blocks(m) -> np.ndarray:
    """The left-variant coefficient blocks a_nm[j, k] = M[k*d + n, j*d + m] as a
    (d², d, d) stack, entry k = n*d + m (0-based pairs in row-major order).

    Each block is a column-major view of the stored transposes: the rounding
    of vector products such as f* a_nm f, and so of ``pd_decompose``, depends
    on that layout.
    """
    m = as_square_matrix(m, "liouville")
    d = _liouville_dim(m)
    return m.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d, d).transpose(0, 2, 1)


def selfadjoint_blocks(m) -> np.ndarray:
    """Right factors ((1-i)/2) a_nm + ((1+i)/2) a_mn of the selfadjoint basis
    decomposition, a (d², d, d) stack indexed and laid out like :func:`left_blocks`.

    ``a_nm`` are the left-variant blocks of the Liouville matrix ``m``; entry
    k = n*d + m pairs with the Hermitian basis element (n, m).
    """
    blocks_t = left_blocks(m).transpose(0, 2, 1)
    d = blocks_t.shape[1]
    swapped_t = blocks_t.reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d, d)
    return ((0.5 - 0.5j) * blocks_t + (0.5 + 0.5j) * swapped_t).transpose(0, 2, 1)


def adjoint(s: LRSum) -> LRSum:
    """Adjoint superoperator: term list (a_n*, b_n*), signs kept.

    Satisfies <apply(s, rho), eta> = <rho, apply(adjoint(s), eta)> for the
    trace inner product, equivalently its Liouville matrix is the
    conjugate transpose of the original.
    """
    return LRSum(s.dim, tuple(LRTerm(t.a.conj().T, t.b.conj().T, t.sign) for t in s.terms))


def transpose_dual(s: LRSum) -> LRSum:
    """Swap left/right factor roles via the transpose duality.

    eta -> (s(eta^T))^T has term list (b_n^T, a_n^T), signs kept. The
    transpose map is unitary for the trace inner product, so positivity
    classes and the spectrum are preserved while the roles of the factor
    families are interchanged.
    """
    return LRSum(s.dim, tuple(LRTerm(t.b.T, t.a.T, t.sign) for t in s.terms))


def _independent_subset(columns: Sequence[np.ndarray], tol: float):
    """Greedy maximal independent subset with singular-value rank decisions.

    Returns (kept_indices, coefficients) where ``coefficients[j]`` expands
    a dependent column j over the columns kept before it (``lstsq``). In
    input order, a column is kept if its norm (while none is kept), or
    sigma_min of the kept columns plus it, exceeds the threshold
    tol * sigma_1, sigma_1 >= sigma_2 >= ... being the singular values of
    the full stack; ``rank`` counts those above the threshold.

    Every decision rests on interlacing: dropping columns never raises a
    singular value (Golub & Van Loan, *Matrix Computations*, 4th ed., 8.6).
    Two rules follow from the one SVD of the full stack:

    - Full column rank: if ``rank`` is the number of columns, sigma_min of
      every prefix is at least sigma_min of the full stack, above the
      threshold, so every column is kept with no further SVD.
    - Rank reached: any rank + 1 columns have sigma_min <= sigma_{rank+1}
      <= threshold, so once ``rank`` columns are kept every later column
      is dependent with no SVD and goes straight to its ``lstsq``.

    Before that the tests run on galloping blocks of the next columns,
    clipped to the columns left and to ``rank`` minus the columns kept;
    the first block after the first kept column is that whole bound. A
    passing block is kept whole (each prefix passes too) and doubles; a
    failing block halves, and a failing single column is rejected on the
    very matrix the one-column test uses.
    """
    if not columns:
        return [], {}
    stack = np.column_stack(columns)
    ncols = stack.shape[1]
    svals = np.linalg.svd(stack, compute_uv=False)
    if not isfinite(svals[0]):  # an infinite threshold would drop every column
        raise NumericalError("the singular values of a factor family exceed the float range")
    threshold = tol * float(svals[0])
    rank = int(np.count_nonzero(svals > threshold))
    if rank == ncols:
        return list(range(ncols)), {}
    kept: list[int] = []
    coeffs: dict[int, np.ndarray] = {}
    j, size = 0, 1
    while j < ncols:
        if not kept:
            if frob_norm(stack[:, j]) > threshold:
                kept, size = [j], rank
            else:
                coeffs[j] = np.zeros(0, dtype=_COMPLEX)
            j += 1
            continue
        size = min(size, ncols - j, rank - len(kept))
        block = list(range(j, j + size))
        if size > 0 and np.linalg.svd(stack[:, kept + block], compute_uv=False)[-1] > threshold:
            kept += block
            j += size
            size *= 2
        elif size > 1:
            size //= 2
        else:
            coeffs[j], *_ = np.linalg.lstsq(stack[:, kept], stack[:, j], rcond=None)
            j += 1
    return kept, coeffs


def _fold_dependent(family: list, partners: list, tol: float) -> tuple[list, list]:
    """Keep a maximal independent subset of ``family``; fold the rest into ``partners``.

    A dependent member's partner, times each coefficient of its expansion
    over the kept members, is added to their partners, which preserves the
    sum over the pairs. Returns the kept members and their new partners; NumericalError if a
    new partner leaves the float range.
    """
    kept, coeffs = _independent_subset([vec(x) for x in family], tol)
    folded = {i: np.array(partners[i]) for i in kept}
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite partner is refused below
        for j, sol in coeffs.items():
            for c, i in zip(sol, kept):
                folded[i] = folded[i] + c * partners[j]
    if not np.isfinite(list(folded.values())).all():
        raise NumericalError("a folded factor exceeds the float range")
    return [family[i] for i in kept], [folded[i] for i in kept]


def reduce_terms(s: LRSum, tol: float = DEFAULT_TOL) -> LRSum:
    """Rewrite an LR-sum so both factor families are linearly independent.

    Two elimination passes: dependent left factors are expanded over a
    maximal independent subset and their coefficients folded into the
    right factors, then the same on the right side folding into the left.
    After the first pass the left family is independent, and the second
    pass's left-side updates cannot break that, so both families end up
    independent. Signs are folded into the left factors first. The
    Liouville matrix is preserved up to the rank threshold.
    """
    _check_tol(tol)
    terms = s.as_lrsum().terms
    a, b = _fold_dependent([t.a for t in terms], [t.b for t in terms], tol)
    b, a = _fold_dependent(b, a, tol)
    return LRSum(s.dim, tuple(LRTerm(x, y) for x, y in zip(a, b)))


def selfadjoint_decompose(s: LRSum, tol: float = DEFAULT_TOL) -> LRSum:
    """Rewrite a selfadjoint superoperator with selfadjoint factors.

    Emits one term per basis pair (n, m): the Hermitian basis element on
    the left and the matching combination ((1-i)/2) a_nm + ((1+i)/2) a_mn
    of the basis-decomposition blocks on the right. For a Hermitian
    Liouville matrix the blocks satisfy a_nm* = a_mn, which makes every
    right factor Hermitian; the reconstruction itself is an exact
    algebraic identity. Terms whose right factor is exactly zero are
    dropped.

    Raises
    ------
    InputError
        If ``tol`` is not in (0, 1).
    NumericalError
        If the Liouville matrix exceeds the float range.
    NotSelfadjointError
        If the Liouville matrix fails the Hermiticity test at ``tol``.
    """
    m = _selfadjoint_liouville(s, tol)
    terms = [
        LRTerm(hat, right)
        for hat, right in zip(_hermitian_units(s.dim), selfadjoint_blocks(m))
        if right.any()
    ]
    return LRSum(s.dim, tuple(terms))


def classify_superop(s: LRSum, tol: float = DEFAULT_TOL) -> PositivityReport:
    """Positivity classification of the Liouville matrix.

    For Hermitian input, ``lambda_min`` is the greatest lower bound of the
    quadratic form <eta, s(eta)> over unit-norm eta; the witness is the
    stacked minimizer.
    """
    return _classify(to_liouville(s), _liouville_rule_norms(s, tol), tol,
                     lambda: _hermitian_spectrum(s))

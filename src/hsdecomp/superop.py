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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    PositivityReport,
    as_square_matrix,
    classify_hermitian,
    frob_norm,
    hermitian_unit,
    matrix_unit,
)
from .exceptions import InputError, NotSelfadjointError

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


@dataclass(frozen=True, slots=True)
class LRTerm:
    """One left-right multiplication summand eta -> sign * a eta b, sign = +-1."""

    a: np.ndarray
    b: np.ndarray
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise InputError(f"sign must be +1 or -1, got {self.sign!r}")
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

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise InputError(f"dim must be a positive integer, got {self.dim!r}")
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
    eye = np.eye(dim, dtype=_COMPLEX)
    return LRSum.from_pairs([(eye, eye)], dim)


def vec(eta) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(eta, dtype=_COMPLEX).reshape(-1, order="F")


def unvec(x, dim: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`."""
    x = np.asarray(x, dtype=_COMPLEX).reshape(-1)
    if dim is None:
        dim = isqrt(x.size)
    if dim * dim != x.size:
        raise InputError(f"vector of length {x.size} is not a stacked {dim}x{dim} matrix")
    return x.reshape((dim, dim), order="F")


def apply_superop(s: LRSum, eta) -> np.ndarray:
    """Evaluate sum_n s_n a_n eta b_n by direct matrix products."""
    eta = as_square_matrix(eta, "eta")
    if eta.shape[0] != s.dim:
        raise InputError(f"dimension mismatch: operator dim {s.dim}, eta dim {eta.shape[0]}")
    out = np.zeros((s.dim, s.dim), dtype=_COMPLEX)
    for t in s.as_lrsum().terms:
        out += t.a @ eta @ t.b
    return out


def to_liouville(s: LRSum) -> np.ndarray:
    """Dense Liouville matrix sum_n s_n (b_n^T kron a_n)."""
    n = s.dim * s.dim
    out = np.zeros((n, n), dtype=_COMPLEX)
    for t in s.as_lrsum().terms:
        out += np.kron(t.b.T, t.a)
    return out


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
    m = as_square_matrix(m, "liouville")
    d = _liouville_dim(m)
    if variant not in ("left", "right"):
        raise InputError(f"variant must be 'left' or 'right', got {variant!r}")
    r = m.reshape(d, d, d, d)
    if variant == "left":
        # block[n, m][j, k] = M[k*d + n, j*d + m]
        blocks = r.transpose(1, 3, 2, 0)
    else:
        # block[n, m][j, k] = M[m*d + j, n*d + k]
        blocks = r.transpose(2, 0, 1, 3)
    terms = []
    for n in range(d):
        for mm in range(d):
            coeff = np.ascontiguousarray(blocks[n, mm])
            if not coeff.any():
                continue
            eps = matrix_unit(d, n + 1, mm + 1)
            terms.append(LRTerm(eps, coeff) if variant == "left" else LRTerm(coeff, eps))
    return LRSum(d, tuple(terms))


def left_blocks(m) -> np.ndarray:
    """The d x d x d x d coefficient tensor of the left-variant decomposition."""
    m = as_square_matrix(m, "liouville")
    d = _liouville_dim(m)
    return m.reshape(d, d, d, d).transpose(1, 3, 2, 0)


def selfadjoint_blocks(m: np.ndarray, d: int) -> dict[tuple[int, int], np.ndarray]:
    """Right factors ((1-i)/2) a_nm + ((1+i)/2) a_mn of the selfadjoint basis
    decomposition, keyed by the 0-based basis pair (n, m).

    ``a_nm`` are the left-variant coefficient blocks of the Liouville matrix
    ``m``; each right factor pairs with the Hermitian basis element (n, m).
    """
    blocks = left_blocks(m)
    return {
        (n, mm): (0.5 - 0.5j) * blocks[n, mm] + (0.5 + 0.5j) * blocks[mm, n]
        for n in range(d)
        for mm in range(d)
    }


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
    a dependent column j over the kept ones. Thresholds are absolute at
    tol * (largest singular value of the full stack). Once the kept columns
    span the whole space every further column is dependent; the SVD of a
    wider trial would not show it, as it has only row-count singular values.
    """
    if not columns:
        return [], {}
    stack = np.column_stack(columns)
    svals = np.linalg.svd(stack, compute_uv=False)
    smax = float(svals[0]) if svals.size else 0.0
    threshold = tol * smax
    kept: list[int] = []
    coeffs: dict[int, np.ndarray] = {}
    for j in range(stack.shape[1]):
        if smax == 0.0:
            coeffs[j] = np.zeros(0, dtype=_COMPLEX)
            continue
        if not kept:
            if np.linalg.norm(stack[:, j]) > threshold:
                kept.append(j)
            else:
                coeffs[j] = np.zeros(0, dtype=_COMPLEX)
            continue
        if len(kept) < stack.shape[0] and (
            np.linalg.svd(stack[:, kept + [j]], compute_uv=False)[-1] > threshold
        ):
            kept.append(j)
        else:
            sol, *_ = np.linalg.lstsq(stack[:, kept], stack[:, j], rcond=None)
            coeffs[j] = sol
    return kept, coeffs


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
    if not tol > 0:
        raise InputError(f"tol must be positive, got {tol}")
    terms = list(s.as_lrsum().terms)
    if not terms:
        return s

    kept, coeffs = _independent_subset([vec(t.a) for t in terms], tol)
    new_b = {i: np.array(terms[i].b) for i in kept}
    for j, sol in coeffs.items():
        for c, i in zip(sol, kept):
            new_b[i] = new_b[i] + c * terms[j].b
    terms = [LRTerm(terms[i].a, new_b[i]) for i in kept]
    if not terms:
        return LRSum(s.dim, ())

    kept, coeffs = _independent_subset([vec(t.b) for t in terms], tol)
    new_a = {i: np.array(terms[i].a) for i in kept}
    for j, sol in coeffs.items():
        for c, i in zip(sol, kept):
            new_a[i] = new_a[i] + c * terms[j].a
    terms = [LRTerm(new_a[i], terms[i].b) for i in kept]
    return LRSum(s.dim, tuple(terms))


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
    NotSelfadjointError
        If the Liouville matrix fails the Hermiticity test at ``tol``.
    """
    m = to_liouville(s)
    defect = frob_norm(m - m.conj().T)
    if defect > tol * frob_norm(m):
        raise NotSelfadjointError(
            f"Liouville matrix is not Hermitian: defect {defect:.3e} "
            f"exceeds tol * norm = {tol * frob_norm(m):.3e}"
        )
    d = s.dim
    terms = [
        LRTerm(hermitian_unit(d, n + 1, mm + 1), right)
        for (n, mm), right in selfadjoint_blocks(m, d).items()
        if right.any()
    ]
    return LRSum(d, tuple(terms))


def classify_superop(s: LRSum, tol: float = DEFAULT_TOL) -> PositivityReport:
    """Positivity classification of the Liouville matrix.

    For Hermitian input, ``lambda_min`` is the greatest lower bound of the
    quadratic form <eta, s(eta)> over unit-norm eta; the witness is the
    stacked minimizer.
    """
    return classify_hermitian(to_liouville(s), tol)

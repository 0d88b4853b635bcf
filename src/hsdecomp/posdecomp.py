"""Positivity-structured decompositions of superoperators.

Given a positive (semi)definite superoperator in LR-sum form, the
routines here normalize its factors so the positivity is visible term by
term: one-sum and two-sum rescalings, the diagonal-block necessary
condition, the negative-leading-term decomposition of a positive
definite operator, and the zeta-certificate rewrite that removes the
leading negative term when a certificate exists.

Scalar parameters that the existence arguments merely assert ("large
enough", "small enough") are computed from generalized eigenvalue
pencils: the minimal feasible value with a 2x margin for growth
parameters, and a geometric shrink starting at 1/8 with floor 2^-40 for
the pencil offsets. Each search returns the matrices it accepted, and
those are the output factors; no factor is built a second time. Every
chosen parameter is recorded in a :class:`DecompositionTrace` so a
decomposition can be replayed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import (
    DEFAULT_TOL,
    PositivityClass,
    _frob_norms,
    _hermitian_units,
    _is_integer,
    _lambda_min_stack,
    _positive,
    _positivity_class,
    _threshold,
    as_square_matrix,
    classify_hermitian,
    frob_norm,
    hermitian_part,
    matrix_unit,
    skew_part,
)
from .exceptions import (
    CertificateInvalidError,
    DegenerateFactorError,
    InputError,
    NoProgressError,
    NotPositiveDefiniteError,
    NotPositiveError,
)
from .pencil import _pencil_minima, pencil_extremes
from .superop import (LRSum, LRTerm, _liouville_rule_norms, _operator_lambda_min,
                      _selfadjoint_liouville, left_blocks, selfadjoint_blocks, to_liouville)

__all__ = [
    "SignedTerm",
    "SignedLRSum",
    "ZetaCertificate",
    "ZetaCheckResult",
    "TraceStep",
    "DecompositionTrace",
    "one_sum_positive",
    "two_sum_pd",
    "diag_blocks",
    "pd_decompose",
    "zeta_check",
    "zeta_transform",
    "find_zeta_certificate",
    "counterexample_superop",
]

_COMPLEX = np.complex128

_EPS_START = 0.125
_EPS_FLOOR = 2.0**-40
_DROP_TOL = 1e-13  # pd_decompose drops a remainder block below the threshold at this tol


# The negative-leading-term decomposition is an LRSum whose first term may
# carry sign -1; these names are kept for callers that construct one.
SignedLRSum = LRSum


def SignedTerm(sign: int, a, b) -> LRTerm:
    return LRTerm(a, b, sign)


@dataclass(frozen=True, slots=True)
class ZetaCertificate:
    """Positive scalars, one per non-negative term of a signed sum."""

    zetas: tuple[float, ...]

    def __post_init__(self):
        zetas = tuple(float(z) for z in self.zetas)
        if not zetas:
            raise InputError("certificate needs at least one zeta")
        if any(not z > 0 for z in zetas):
            raise InputError("all zetas must be positive")
        if not all(math.isfinite(z) for z in zetas):
            raise InputError(f"zetas must be finite, got {list(zetas)}")
        object.__setattr__(self, "zetas", zetas)


@dataclass(frozen=True, slots=True)
class ZetaCheckResult:
    """Margins of a certificate check; truthy iff the certificate is valid.

    ``b_margins[n]`` is the smallest eigenvalue of b_{n+2} - zeta b_1
    (each must be positive definite); ``a_margin`` the smallest eigenvalue
    of -a_1 + sum zeta_n a_n (must be positive semidefinite).
    """

    ok: bool
    b_margins: tuple[float, ...]
    a_margin: float

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, slots=True)
class TraceStep:
    name: str
    data: dict[str, Any]


@dataclass(frozen=True, slots=True)
class DecompositionTrace:
    steps: tuple[TraceStep, ...]

    def step(self, name: str) -> TraceStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)

    def has(self, name: str) -> bool:
        return any(s.name == name for s in self.steps)


class _Tracer:
    def __init__(self):
        self._steps: list[TraceStep] = []

    def add(self, name: str, **data) -> None:
        self._steps.append(TraceStep(name, data))

    def freeze(self) -> DecompositionTrace:
        return DecompositionTrace(tuple(self._steps))


def _nonvanishing_vector(x: np.ndarray, tol: float) -> tuple[np.ndarray, complex]:
    """Unit vector f with <f, x f> != 0, preferring the extreme Hermitian direction.

    Falls back to the extreme direction of the skew part when the
    Hermitian part is negligible (purely imaginary numerical range).
    """
    threshold = _threshold(frob_norm(x), tol)
    for part in (hermitian_part(x), 1j * skew_part(x)):
        w, v = np.linalg.eigh(part)
        f = v[:, int(np.argmax(np.abs(w)))]
        value = complex(f.conj() @ x @ f)
        if abs(value) > threshold:
            return f, value
    raise DegenerateFactorError("quadratic form of the factor vanishes numerically")


def _shrink_offset(t0: float, base: np.ndarray, step: np.ndarray, tol: float, tracer: _Tracer,
                   label: str) -> tuple[float, float, int, np.ndarray]:
    """Pick t = (1 - eps) t0 with eps shrinking geometrically until both matrices of the stack
    base + t step are positive definite, decided by one ``_positive`` call per try.

    Returns (t, eps, shrink_count, stack), the accepted stack. Raises NoProgressError below
    the floor.
    """
    eps = _EPS_START
    shrinks = 0
    while True:
        t = (1.0 - eps) * t0
        stack = base + t * step
        if _positive(stack, tol).all():
            return t, eps, shrinks, stack
        eps /= 2.0
        shrinks += 1
        if eps < _EPS_FLOOR:
            tracer.add(label, t0=t0, eps=eps, shrinks=shrinks, failed=True)
            raise NoProgressError(
                f"{label}: offset search below floor {_EPS_FLOOR}", trace=tracer.freeze()
            )


def _grow_margins(base: np.ndarray, offsets: np.ndarray, strict: bool, tol: float,
                  tracer: _Tracer, labels: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Scalars v_i making v_i * base + offsets[i] positive definite (``strict``) or semidefinite.

    With required_i = -lambda_min(offsets[i], base), from one shared-base pencil solve, each
    v_i starts at the minimal pencil-feasible value doubled, 2 max(0, required_i); one stacked
    classifier call tests all of them. Each entry that fails, in index order, grows by
    v -> 2 v + max(1, |required_i|) up to 64 times; a stall is traced as failed and raises
    NoProgressError named ``labels[i]``. Returns the values and the accepted stack
    v_i * base + offsets[i].
    """
    required = -np.fromiter(_pencil_minima(offsets, base), float, len(offsets))
    values = 2.0 * np.maximum(0.0, required)
    stack = values[:, None, None] * base + offsets
    for i in np.flatnonzero(~_positive(stack, tol, strict)):
        bump = max(1.0, abs(required[i]))
        for _ in range(64):
            values[i] = 2.0 * values[i] + bump
            stack[i] = values[i] * base + offsets[i]
            if _positive(stack[i][None], tol, strict)[0]:
                break
        else:
            tracer.add(labels[i], required=float(required[i]), failed=True)
            raise NoProgressError(f"{labels[i]}: margin search stalled", trace=tracer.freeze())
    return values, stack


def _sum_in_order(first: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """first + terms[0] + terms[1] + ..., added left to right as a loop would."""
    return np.add.reduce(np.concatenate([first[None], terms]))


def _classified(s: LRSum, tol: float, strict: bool = True) -> _Tracer:
    """A tracer holding the "classify" step of the operator ``s``.

    Raises NotPositiveDefiniteError unless ``s`` is positive definite (``strict``), or else
    NotPositiveError when ``s`` is zero or, tested after that, not positive semidefinite."""
    lam, threshold = _operator_lambda_min(s, tol)
    kind = _positivity_class(lam, threshold)
    tracer = _Tracer()
    tracer.add("classify", kind=kind.value, lambda_min=float(lam))
    if not strict and _liouville_rule_norms(s, tol)[0][0] <= tol:
        raise NotPositiveError("superoperator is zero")
    if strict and kind is not PositivityClass.POSITIVE_DEFINITE:
        raise NotPositiveDefiniteError(
            f"superoperator classifies {kind.value}, not positive definite"
        )
    if not strict and kind in (PositivityClass.NON_HERMITIAN, PositivityClass.INDEFINITE):
        raise NotPositiveError(f"superoperator classifies {kind.value}, not positive semidefinite")
    return tracer


def one_sum_positive(a, b, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, DecompositionTrace]:
    """Rescale a one-term PSD superoperator so both factors are PSD.

    The superoperator eta -> a eta b must be nonzero and positive
    semidefinite. With f0 a direction on which the quadratic form of b
    does not vanish and alpha = <f0, b f0>, the pair (alpha a, b / alpha)
    represents the same superoperator with both factors positive
    semidefinite -- positive definite whenever the superoperator is.
    """
    s = LRSum.from_pairs([(a, b)])
    a, b = s.terms[0].a, s.terms[0].b
    tracer = _classified(s, tol, strict=False)
    f0, alpha = _nonvanishing_vector(b, tol)
    a_hat = alpha * a
    b_hat = b / alpha
    lam_a, lam_b = _lambda_min_stack(np.stack([a_hat, b_hat]), tol)[0].tolist()
    tracer.add(
        "rescale",
        f0=f0,
        alpha=alpha,
        lambda_min_a=lam_a,
        lambda_min_b=lam_b,
    )
    return a_hat, b_hat, tracer.freeze()


def _one_sum_fallback(
    p: np.ndarray, q: np.ndarray, dim: int, tol: float, tracer: _Tracer, note: str
) -> LRSum:
    """Degenerate two-sum path: one term vanished, rescale the survivor. The step records
    the f0 and alpha of the rescale, so the output can be rebuilt from the trace."""
    a_hat, b_hat, sub = one_sum_positive(p, q, tol)
    rescale = sub.step("rescale").data
    tracer.add("one_sum_fallback", note=note, sub_steps=[s.name for s in sub.steps],
               f0=rescale["f0"], alpha=rescale["alpha"])
    pad = LRTerm(np.zeros((dim, dim), dtype=_COMPLEX), np.eye(dim, dtype=_COMPLEX))
    return LRSum(dim, (LRTerm(a_hat, b_hat), pad))


def two_sum_pd(a1, b1, a2, b2, tol: float = DEFAULT_TOL) -> tuple[LRSum, DecompositionTrace]:
    """Normalize a two-term positive definite superoperator.

    Returns two plus-signed terms with both left factors positive
    semidefinite (jointly of trivial kernel) and both right factors
    positive definite, representing the same superoperator.

    The construction works in three stages:

    1. Fold: while some right factor is not positive definite, pick g0 on
       which the other term's left factor has nonvanishing quadratic form
       and absorb the induced scalar combination, which makes that right
       factor a positive definite combination.
    2. Right pencil: with both right factors positive definite, take
       t0 = smallest eigenvalue of the pencil (b2, b1) and t = (1-eps) t0
       with eps shrinking from 1/8 until both b2 - t b1 and a1 + t a2 are
       positive definite, then regroup as (a1 + t a2, b1), (a2, b2 - t b1).
    3. Left mirror (only when the remaining left factor is not already
       PSD): fold once on the left side to make both left factors
       positive definite, then run the mirrored pencil step on the left
       factors to restore positive definiteness of the disturbed right
       factor.

    Raises
    ------
    NotPositiveDefiniteError
        If the two-term superoperator does not classify positive definite.
    NoProgressError
        If an offset search stalls (carries the partial trace).
    """
    terms = [
        (as_square_matrix(a1, "a1"), as_square_matrix(b1, "b1")),
        (as_square_matrix(a2, "a2"), as_square_matrix(b2, "b2")),
    ]
    dim = terms[0][0].shape[0]
    tracer = _classified(LRSum.from_pairs(terms), tol)
    zero_threshold = _threshold(max(frob_norm(x) for pair in terms for x in pair), tol)

    def near_zero(x) -> bool:
        return frob_norm(x) <= zero_threshold

    # stage 1: make both right factors positive definite
    for _ in range(2):
        bad = np.flatnonzero(~_positive(np.stack([q for _, q in terms]), tol))
        if not bad.size:
            break
        if bad[0] != 0:
            terms.reverse()
            tracer.add("swap")
        (p1, q1), (p2, q2) = terms
        if near_zero(p1):
            return _one_sum_fallback(p2, q2, dim, tol, tracer, "left factor vanished"), tracer.freeze()
        g0, beta1 = _nonvanishing_vector(p1, tol)
        beta2 = complex(g0.conj() @ p2 @ g0)
        terms = [
            (p1 / beta1, beta1 * q1 + beta2 * q2),
            (p2 - (beta2 / beta1) * p1, q2),
        ]
        tracer.add("fold_right", g0=g0, beta1=beta1, beta2=beta2)
    else:  # two folds: test their result; a break has just seen both right factors PD
        if not _positive(np.stack([q for _, q in terms]), tol).all():
            raise NoProgressError("right factors not positive definite after folding",
                                  trace=tracer.freeze())

    (p1, q1), (p2, q2) = terms
    if near_zero(p2):
        return _one_sum_fallback(p1, q1, dim, tol, tracer, "second term vanished"), tracer.freeze()

    # stage 2: right-factor pencil
    t0 = next(_pencil_minima(q2[None], q1))
    t, eps, shrinks, accepted = _shrink_offset(
        t0, np.stack([q2, p1]), np.stack([-q1, p2]), tol, tracer, "right_pencil"
    )
    (offset_b, combined_a), lam = accepted, _lambda_min_stack(accepted, tol)[0]
    terms = [(combined_a, q1), (p2, offset_b)]
    tracer.add(
        "right_pencil",
        t0=t0,
        t=t,
        eps=eps,
        shrinks=shrinks,
        lambda_min_combined_a=float(lam[1]),
        lambda_min_offset_b=float(lam[0]),
    )

    # stage 3: mirrored fix of the remaining left factor
    (p1, q1), (p2, q2) = terms
    if _positive(p2[None], tol, strict=False)[0]:
        tracer.add("left_stage_skipped", reason="second left factor already PSD")
    else:
        w, v = np.linalg.eigh(hermitian_part(q2))
        f0 = v[:, -1]
        delta_u = complex(f0.conj() @ q2 @ f0).real
        delta_g = complex(f0.conj() @ q1 @ f0).real
        combined = delta_u * p2 + delta_g * p1
        q_mixed = q1 - (delta_g / delta_u) * q2
        q_unit = q2 / delta_u
        tracer.add("fold_left", f0=f0, delta_u=delta_u, delta_g=delta_g)
        s0 = next(_pencil_minima(combined[None], p1))
        s_off, eps, shrinks, (left, right) = _shrink_offset(
            s0, np.stack([combined, q_mixed]), np.stack([-p1, q_unit]), tol, tracer, "left_pencil"
        )
        terms = [(p1, right), (left, q_unit)]
        tracer.add("left_pencil", s0=s0, s=s_off, eps=eps, shrinks=shrinks)

    return LRSum.from_pairs(terms, dim), tracer.freeze()


def diag_blocks(s: LRSum, tol: float = DEFAULT_TOL) -> list[tuple[np.ndarray, Any]]:
    """Diagonal coefficient blocks of the basis decomposition, classified.

    For a selfadjoint superoperator the blocks paired with the diagonal
    matrix units inherit its positivity: every block of a PSD operator is
    PSD, and for a positive definite operator each block's greatest lower
    bound is at least the operator's.
    """
    m = _selfadjoint_liouville(s, tol)
    return [(block, classify_hermitian(block, tol)) for block in left_blocks(m)[:: s.dim + 1]]


def pd_decompose(s: LRSum, tol: float = DEFAULT_TOL) -> tuple[LRSum, DecompositionTrace]:
    """Negative-leading-term decomposition of a positive definite superoperator.

    Returns a signed sum -a1 eta b1 + sum_{n>=2} a_n eta b_n representing
    the same superoperator, with a1, a2 positive definite, the remaining
    left factors positive semidefinite, and every right factor positive
    definite.

    The construction proceeds in four stages:

    1. Basis stage: compute the selfadjoint basis decomposition's
       coefficient blocks; the two leading diagonal blocks are positive
       definite with greatest lower bound at least that of the operator.
    2. Pencil stage: t0 = smallest eigenvalue of the pencil of the second
       diagonal block against the first, f its minimizing eigenvector;
       the scalars gamma_nm = <f, block_nm f> assemble a positive
       definite combined left factor once t = (1-eps) t0 is backed off
       until both it and the offset block are positive definite.
    3. Margin stage: scalars beta_nm (and alpha) taken as the minimal
       pencil-feasible values doubled turn every remaining right factor
       positive definite and isolate a single negative term.
    4. Lift stage: scalars lambda_nm make each off-diagonal Hermitian
       basis element plus lambda times the negative term's left factor
       positive semidefinite, absorbing the indefiniteness.

    Stages 3 and 4 test the first candidates of all their scalars with one
    stacked classifier call each and grow only those that fail. Blocks and
    factors are (k, d, d) stacks, k = n*d + m; the trace keys them by (n, m).

    Raises
    ------
    NotPositiveDefiniteError
        If the input does not classify positive definite.
    NoProgressError
        If any margin or offset search stalls (carries the trace).
    """
    tracer = _classified(s, tol)
    m = to_liouville(s)
    d = s.dim
    if d == 1:
        c = m[0, 0].real
        one = np.ones((1, 1), dtype=_COMPLEX)
        signed = LRSum(
            1,
            (
                LRTerm(one, c * one, -1),
                LRTerm(2.0 * one, c * one),
            ),
        )
        tracer.add("scalar_case", value=c)
        return signed, tracer.freeze()

    # basis stage: block k = n*d + m pairs with the Hermitian unit hat[k]
    blocks = selfadjoint_blocks(m)
    hat = _hermitian_units(d)
    diag1, diag2 = blocks[0], blocks[d + 1]
    others = np.delete(np.arange(d * d), [0, d + 1])

    def pairs(ks) -> list[tuple[int, int]]:
        return [divmod(int(k), d) for k in ks]

    # pencil stage
    pen = pencil_extremes(diag2, diag1)
    t0 = pen.lambda_min
    f = pen.v_min
    # one vector dot per block, as f* B f is computed for a single block
    gamma = ((f.conj() @ blocks[others])[:, None, :] @ f)[:, 0]
    gamma11 = complex(f.conj() @ diag1 @ f).real
    e11 = matrix_unit(d, 1, 1)
    e22 = matrix_unit(d, 2, 2)
    gamma_tail = np.add.reduce(gamma.real[:, None, None] * hat[others])
    t, eps, shrinks, (right2, left_comb) = _shrink_offset(
        t0, np.stack([diag2, gamma11 * e11 + gamma_tail]), np.stack([-diag1, gamma11 * e22]), tol,
        tracer, "diag_pencil",
    )
    right1 = diag1 / gamma11
    tracer.add(
        "diag_pencil",
        t0=t0,
        t=t,
        eps=eps,
        shrinks=shrinks,
        f=f,
        gamma11=gamma11,
        gamma=dict(zip(pairs(others), gamma.tolist())),
    )

    # the ratios are divided as Python complex scalars, whose rounding differs from numpy's
    ratios = np.array([g / gamma11 for g in gamma.tolist()])
    rest = blocks[others] - ratios[:, None, None] * diag1
    keep = _frob_norms(rest) > _threshold(frob_norm(m), _DROP_TOL)
    rest, kept = rest[keep], others[keep]

    # margin stage: stacked first checks for all beta, then alpha
    beta, right3 = _grow_margins(
        right2, rest, True, tol, tracer, [f"beta_{p}" for p in pairs(kept)]
    )
    left2 = _sum_in_order(e22, -(beta[:, None, None] * hat[kept]))
    (alpha,), (neg_left,) = _grow_margins(left_comb, -left2[None], True, tol, tracer, ["alpha"])
    alpha = float(alpha)
    tracer.add("margins", beta=dict(zip(pairs(kept), beta.tolist())), alpha=alpha,
               dropped=pairs(others[~keep]))

    # lift stage: stacked first checks for all off-diagonal lambda
    off = kept // d != kept % d
    lifted = kept[off]
    lefts = hat[kept]  # a diagonal Hermitian unit is the matrix unit E_nn
    lam, lefts[off] = _grow_margins(
        neg_left, hat[lifted], False, tol, tracer, [f"lambda_{p}" for p in pairs(lifted)]
    )
    tracer.add("lifts", lam=dict(zip(pairs(lifted), lam.tolist())))

    neg_right = _sum_in_order(right2, lam[:, None, None] * right3[off])
    out = [LRTerm(neg_left, neg_right, -1), LRTerm(left_comb, right1 + alpha * right2)]
    out += [LRTerm(a, b) for a, b in zip(lefts, right3)]
    return LRSum(d, tuple(out)), tracer.freeze()


_RAY_END = 54  # 1 - 2^-k rounds to 1.0 from k = 54 on, so the ray has no later distinct point


def _zeta_parts(decomp: LRSum, n_zetas: int) -> tuple[LRTerm, np.ndarray, np.ndarray]:
    """The negative leading term of ``decomp`` and the stacks of the left and the right factors
    of the others. Raises InputError unless ``decomp`` is a negative term followed by
    ``n_zetas`` > 0 others."""
    if not decomp.terms:
        raise InputError("decomposition has no terms")
    if not decomp.has_negative:
        raise InputError("decomposition must have a negative leading term")
    lead, *rest = decomp.terms
    if n_zetas != len(rest):
        raise InputError(
            f"certificate length {n_zetas} does not match "
            f"{len(rest)} non-negative terms"
        )
    if not rest:
        raise InputError("decomposition has only its negative term, no non-negative terms")
    return lead, np.stack([t.a for t in rest]), np.stack([t.b for t in rest])


def _zeta_rewrite(lead: LRTerm, a_n, b_n, zetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factors a certificate rewrites: -a_1 + sum zeta_n a_n, summed in
    term order, and the stack of b_n - zeta_n b_1."""
    scaled = zetas[:, None, None]
    return _sum_in_order(-lead.a, scaled * a_n), b_n - scaled * lead.b


def _zeta_conditions(
    lead: LRTerm, a_n: np.ndarray, b_n: np.ndarray, zetas: np.ndarray, tol: float,
    a_first: bool = False,
) -> tuple[ZetaCheckResult, tuple[np.ndarray, np.ndarray]]:
    """The two certificate conditions at ``zetas`` and the rewritten factors they were
    checked on, (combined, b_diffs) of ``_zeta_rewrite``.

    ``a_n`` and ``b_n`` stack the factors of the non-negative terms.
    b_margins holds the lambda_min of each b_n - zeta_n b_1, from one
    stacked classifier call; a_margin that of -a_1 + sum zeta_n a_n, summed
    in term order. With ``a_first`` the b-conditions are classified only
    when the a-condition holds (b_margins is empty otherwise); a non-finite
    b_n - zeta_n b_1 raises InputError either way.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the checks below refuse non-finite sums
        rewritten = combined, b_diffs = _zeta_rewrite(lead, a_n, b_n, zetas)
    if not np.isfinite(b_diffs).all():
        raise InputError("T: entries must be finite")
    (a_margin,), (a_threshold,) = _lambda_min_stack(combined[None], tol)
    a_ok = bool(a_margin >= -a_threshold)
    if a_first and not a_ok:
        return ZetaCheckResult(False, (), float(a_margin)), rewritten
    b_margins, b_thresholds = _lambda_min_stack(b_diffs, tol)
    ok = a_ok and bool(np.all(b_margins > b_thresholds))
    return ZetaCheckResult(ok, tuple(b_margins.tolist()), float(a_margin)), rewritten


def zeta_check(
    decomp: LRSum, certificate: ZetaCertificate, tol: float = DEFAULT_TOL
) -> ZetaCheckResult:
    """Validate a zeta certificate against a negative-leading decomposition.

    Valid iff every b_n - zeta_n b_1 (n >= 2) is positive definite and
    -a_1 + sum_n zeta_n a_n is positive semidefinite, all at ``tol``.
    """
    zetas = certificate.zetas
    return _zeta_conditions(*_zeta_parts(decomp, len(zetas)), np.array(zetas), tol)[0]


def zeta_transform(
    decomp: LRSum, certificate: ZetaCertificate, tol: float = DEFAULT_TOL
) -> LRSum:
    """Rewrite a certified negative-leading decomposition with no negative term.

    The leading term is replaced by (-a_1 + sum zeta_n a_n, b_1) and each
    remaining pair (a_n, b_n) by (a_n, b_n - zeta_n b_1). The Liouville matrix is
    unchanged in exact arithmetic only: the rounding of those sums moves it, by an exact
    residual that ``test_zeta_transform_claims_hold_exactly`` bounds by c rho u.
    """
    zetas = certificate.zetas
    lead, a_n, b_n = _zeta_parts(decomp, len(zetas))
    result, (combined, b_diffs) = _zeta_conditions(lead, a_n, b_n, np.array(zetas), tol)
    if not result.ok:
        raise CertificateInvalidError("zeta certificate failed validation", report=result)
    return LRSum.from_pairs([(combined, lead.b), *zip(a_n, b_diffs)], decomp.dim)


def _misses_at_ray_limit(lead: LRTerm, a_n: np.ndarray, b_n: np.ndarray, bounds: np.ndarray,
                         zetas: np.ndarray, tol: float) -> bool:
    """Whether the a-condition fails at every zeta = (1 - 2^-k) bounds up to the last, ``zetas``.

    The argument and the slack are given in ``find_zeta_certificate``. False (undecided) when
    the limit margin is NaN or within the slack, or when a matrix at the limit is not finite
    or has a norm beyond the float range; then the walk runs and raises any InputError it would.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are tested below
        combined, b_diffs = _zeta_rewrite(lead, a_n, b_n, zetas)
        ray_sum = (bounds[:, None, None] * a_n).sum(axis=0)
        scale = frob_norm(lead.a) + float(zetas @ _frob_norms(a_n))  # inf: an infinite slack
    if not np.isfinite(b_diffs).all():
        return False
    try:  # the rule rejects combined or ray_sum if not finite or of too large a norm
        (a_margin, s_margin), _ = _lambda_min_stack(np.stack([combined, ray_sum]), tol)
    except InputError:
        return False
    rounding = 8.0 * (len(a_n) + len(lead.a)) * np.finfo(float).eps * scale
    # a NaN s_margin (S not Hermitian) makes the slack NaN and leaves the miss undecided
    slack = _threshold(scale + rounding, tol) + np.maximum(0.0, -s_margin) + rounding
    return bool(a_margin < -slack)


def find_zeta_certificate(
    decomp: LRSum, tol: float = DEFAULT_TOL, max_halvings: int = 20
) -> ZetaCertificate | None:
    """Search for a valid certificate along the pencil-feasible ray.

    For each non-negative term the pencil of b_n against b_1 bounds the
    feasible zeta_n from above; the search walks zeta_n = (1 - 2^-k) of
    that bound for k = 1..max_halvings and returns the first certificate
    that validates, or None. Failure along this ray means the search
    family is exhausted; it does not prove that no certificate exists.
    In floats 1 - 2^-k is 1.0 from k = 54 on, so the walk visits at most 54
    distinct points and ends at k = min(max_halvings, 54).

    All bounds come from one shared-base pencil solve against b_1. At each
    k the a-condition (one d x d matrix) is tested first and the stacked
    b-conditions only when it holds. The result is the one a loop of
    ``zeta_check`` over k would return.

    A miss is decided at the end of the ray before the walk. Every
    candidate's a-matrix is -a_1 + c_k S, with c_k = 1 - 2^-k and the ray sum
    S = sum bounds_n a_n. When S is PSD (the left factors of decompositions
    produced here are) lambda_min cannot fall as k grows, so one stacked
    ``eigh`` of the limit's a-matrix and S settles the search: the walk is
    skipped when the limit margin is below minus a slack. The slack is the
    largest threshold any k could use, the rule's own (``core._threshold``,
    tol max(1, ·)) of the norm bound ||a_1||_F + sum zeta_n ||a_n||_F at the
    limit zetas (plus its rounding), plus the negative part of
    lambda_min(S), plus the rounding of the sums and of ``eigh``, 8 (N + d) u
    times that norm sum, for N non-negative terms. In every other case (a NaN
    margin, a limit that passes or a margin within the slack) the walk runs,
    so a certificate and an undecided miss come out as before.

    Skipping the walk skips no InputError it would raise. The walk raises one
    when some b_n - zeta_n b_1 or -a_1 + sum zeta_n a_n at a k is not finite or
    has a norm beyond the float range. The first is linear in zeta, so its
    entries at any k lie between those at zeta = 0 (b_n) and at the limit: if
    the limit's are finite, so are every k's. The second's norm is bounded by
    the slack's norm sum, so a finite slack, which a decided miss needs, bounds
    it at every k; the limit check leaves every other case undecided.

    Raises
    ------
    InputError
        If ``max_halvings`` is not an integer >= 1 or the decomposition has the wrong shape.
    """
    if not _is_integer(max_halvings) or max_halvings < 1:
        raise InputError(f"max_halvings must be an integer of at least 1, got {max_halvings!r}")
    lead, a_n, b_n = _zeta_parts(decomp, len(decomp.terms) - 1)
    if not _positive(lead.b[None], tol)[0]:
        return None
    bounds = []
    for bound in _pencil_minima(b_n, lead.b):
        if not bound > 0:
            return None
        bounds.append(bound)
    bounds = np.array(bounds)
    ray = (1.0 - 0.5 ** np.arange(1, min(max_halvings, _RAY_END) + 1))[:, None] * bounds
    if _misses_at_ray_limit(lead, a_n, b_n, bounds, ray[-1], tol):
        return None
    for zetas in ray:
        if _zeta_conditions(lead, a_n, b_n, zetas, tol, a_first=True)[0].ok:
            return ZetaCertificate(tuple(zetas))
    return None


def counterexample_superop(t: float) -> LRSum:
    """The 2x2 positive definite operator admitting no all-nonnegative LR-sum.

    For t in (0, 1/2) the operator sends eta to

        (eta_11 + (1-t) eta_22) E_11 + t eta_12 E_12
        + t eta_21 E_21 + (eta_22 + (1-t) eta_11) E_22

    whose quadratic form is t ||eta||^2 + (1-t) |eta_11 + eta_22|^2, so it
    is positive definite with greatest lower bound exactly t. Each
    coefficient read eta_nm is realized as the composition
    E_{an} eta E_{mb}.
    """
    t = float(t)
    if not 0.0 < t < 0.5:
        raise InputError(f"t must lie in (0, 1/2), got {t}")
    e = lambda n, m: matrix_unit(2, n, m)
    pairs = [
        (e(1, 1), e(1, 1)),
        ((1 - t) * e(1, 2), e(2, 1)),
        (t * e(1, 1), e(2, 2)),
        (t * e(2, 2), e(1, 1)),
        (e(2, 2), e(2, 2)),
        ((1 - t) * e(2, 1), e(1, 2)),
    ]
    return LRSum.from_pairs(pairs, 2)

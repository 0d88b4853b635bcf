"""Shared samplers and independent oracles for the test suite.

The oracles here deliberately avoid the library code paths they check:
the Liouville oracle builds the matrix column by column from the action
on basis matrices (no Kronecker products), the inner-product oracle is a
double loop, and the pencil oracle goes through an explicit inverse
square root. The zeta references are the per-matrix certificate check and
search, the independent-subset reference is the one-SVD-per-column rank
test, ``to_liouville_reference`` is the ``np.kron`` loop,
``rows_to_matrix_reference`` is the per-entry wire parser, and
``classify_form_reference`` is the form classifier built on
``classify_hermitian``, and ``classify_step_reference`` is the "classify"
step of the decompositions built on it, that the library routines must
reproduce bit for bit. ``replay_pd_decompose``, ``replay_two_sum`` and
``replay_one_sum`` rebuild a decomposition's output from its input and the JSON
form of its trace alone. ``exact_pd`` decides a positive definiteness claim in
exact rational arithmetic. ``positive_oracle``
decides the stacked PD and PSD verdicts by ``np.linalg.eigvalsh``, and states the
band around the threshold outside which the library's Cholesky verdicts must agree.
"""

import json
import math
from fractions import Fraction

import numpy as np

from hsdecomp import (
    FormClass,
    FormKind,
    InputError,
    LRSum,
    LRTerm,
    NotPositiveDefiniteError,
    NotPositiveError,
    PositivityClass,
    ZetaCertificate,
    apply_superop,
    classify_hermitian,
    counterexample_superop,
    frob_norm,
    from_liouville,
    matrix_unit,
    pencil_extremes,
    to_liouville,
    vec,
)
from hsdecomp.core import _hermitian_units
from hsdecomp.serialize import canonical_dumps, trace_to_obj
from hsdecomp.superop import selfadjoint_blocks

COMPLEX = np.complex128


def random_matrix(rng, d, scale=1.0):
    return scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)


def random_hermitian(rng, d, scale=1.0):
    x = random_matrix(rng, d, scale)
    return (x + x.conj().T) / 2


def random_unitary(rng, d):
    q, r = np.linalg.qr(random_matrix(rng, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_psd(rng, d, rank=None):
    rank = d if rank is None else rank
    x = (rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))) / np.sqrt(2)
    return x @ x.conj().T


def random_pd(rng, d, floor=0.2):
    return random_psd(rng, d) / d + floor * np.eye(d)


def psd_sum(rng, d, n_pairs):
    """I (x) I plus PSD (x) PSD pairs of random rank, scaled by 1/(d+1)."""
    pairs = [(np.eye(d), np.eye(d))]
    for _ in range(n_pairs):
        ra, rb = (int(r) for r in rng.integers(1, d + 1, size=2))
        pairs.append((random_psd(rng, d, ra) / (d + 1), random_psd(rng, d, rb) / (d + 1)))
    return LRSum.from_pairs(pairs, d)


def kernel_disjoint_psd_family(rng, d, count):
    """PSD matrices, each rank deficient, with jointly trivial kernel."""
    while True:
        mats = [random_psd(rng, d, rank=int(rng.integers(1, d))) for _ in range(count)]
        stacked = np.vstack(mats)
        svals = np.linalg.svd(stacked, compute_uv=False)
        if svals[-1] > 1e-8 * svals[0]:
            return mats


def random_lrsum(rng, d, n_terms, scale=1.0):
    return LRSum.from_pairs(
        [(random_matrix(rng, d, scale), random_matrix(rng, d, scale)) for _ in range(n_terms)], d
    )


def random_hermitian_liouville(rng, d, scale=1.0):
    return random_hermitian(rng, d * d, scale)


def random_pd_liouville(rng, d, margin=(0.3, 1.5)):
    h = random_hermitian(rng, d * d)
    lo = np.linalg.eigvalsh(h)[0]
    return h + (abs(lo) + rng.uniform(*margin)) * np.eye(d * d)


def scale_law_corpus(rng) -> dict:
    """Named operators for the scale law: a positive definite, a PSD-singular (rank one short)
    and an indefinite Liouville matrix (a positive definite one less twice its lambda_min) at
    each d = 1..4, and ``counterexample_superop(1e-9)``."""
    out = {}
    for d in range(1, 5):
        n = d * d
        out[f"pd-d{d}"] = from_liouville(random_pd_liouville(rng, d))
        out[f"psd-singular-d{d}"] = from_liouville(random_psd(rng, n, rank=n - 1))
        m = random_pd_liouville(rng, d)
        out[f"indefinite-d{d}"] = from_liouville(m - 2 * np.linalg.eigvalsh(m)[0] * np.eye(n))
    out["counterexample-1e-9"] = counterexample_superop(1e-9)
    return out


def liouville_by_action(s: LRSum) -> np.ndarray:
    """Independent Liouville oracle: columns are the stacked images of basis matrices."""
    d = s.dim
    m = np.zeros((d * d, d * d), dtype=COMPLEX)
    for n in range(1, d + 1):
        for mm in range(1, d + 1):
            unit = matrix_unit(d, n, mm)
            col = (mm - 1) * d + (n - 1)
            m[:, col] = vec(apply_superop(s, unit))
    return m


def to_liouville_reference(s: LRSum) -> np.ndarray:
    """The ``np.kron`` loop over ``as_lrsum()`` that ``to_liouville`` replaced."""
    n = s.dim * s.dim
    out = np.zeros((n, n), dtype=COMPLEX)
    for t in s.as_lrsum().terms:
        out += np.kron(t.b.T, t.a)
    return out


def frob_inner_loops(eta, tau) -> complex:
    d = eta.shape[0]
    total = 0.0 + 0.0j
    for r in range(d):
        for c in range(d):
            total += np.conj(eta[r, c]) * tau[r, c]
    return total


def pencil_oracle(b, c) -> np.ndarray:
    """Generalized eigenvalues via an explicit inverse square root of c."""
    b = (b + b.conj().T) / 2
    c = (c + c.conj().T) / 2
    w, v = np.linalg.eigh(c)
    c_isqrt = (v / np.sqrt(w)) @ v.conj().T
    return np.linalg.eigvalsh(c_isqrt @ b @ c_isqrt)


def stacked_kernel_trivial(mats, tol=1e-9) -> bool:
    stacked = np.vstack(mats)
    svals = np.linalg.svd(stacked, compute_uv=False)
    return bool(svals[0] > 0 and svals[-1] > tol * svals[0])


def rel_err(m, ref) -> float:
    denom = max(np.linalg.norm(ref), 1e-300)
    return float(np.linalg.norm(m - ref) / denom)


def counterexample_liouville_oracle(t: float) -> np.ndarray:
    """Hand-built Liouville matrix of the d=2 counterexample operator.

    Reads the defining display directly: basis images are
    E11 -> E11 + (1-t) E22, E22 -> E22 + (1-t) E11, E12 -> t E12,
    E21 -> t E21, written in stacked coordinates (column-major order
    E11, E21, E12, E22).
    """
    m = np.zeros((4, 4), dtype=COMPLEX)
    m[0, 0] = 1.0
    m[3, 0] = 1.0 - t
    m[3, 3] = 1.0
    m[0, 3] = 1.0 - t
    m[1, 1] = t
    m[2, 2] = t
    return m


def counterexample_form_oracle(t: float, eta) -> float:
    """The displayed quadratic form t ||eta||^2 + (1-t) |eta_11 + eta_22|^2."""
    return float(
        t * (np.abs(eta) ** 2).sum() + (1 - t) * abs(eta[0, 0] + eta[1, 1]) ** 2
    )


def zeta_check_reference(decomp, zetas, tol=1e-9):
    """(ok, b_margins, a_margin) from one classify_hermitian call per matrix."""
    lead, rest = decomp.terms[0], decomp.terms[1:]
    b_reports = [classify_hermitian(t.b - z * lead.b, tol) for z, t in zip(zetas, rest)]
    combined = -lead.a
    for z, t in zip(zetas, rest):
        combined = combined + z * t.a
    a_report = classify_hermitian(combined, tol)
    ok = all(r.is_pd for r in b_reports) and a_report.is_psd
    return ok, tuple(r.lambda_min for r in b_reports), a_report.lambda_min


def find_zeta_certificate_reference(decomp, tol=1e-9, max_halvings=20):
    """The certificate search as one pencil per term and one full check per halving."""
    lead_b = decomp.terms[0].b
    if not classify_hermitian(lead_b, tol).is_pd:
        return None
    bounds = []
    for term in decomp.terms[1:]:
        bound = pencil_extremes(term.b, lead_b).lambda_min
        if not bound > 0:
            return None
        bounds.append(bound)
    for k in range(1, max_halvings + 1):
        candidate = ZetaCertificate(tuple((1.0 - 2.0**-k) * b for b in bounds))
        if zeta_check_reference(decomp, candidate.zetas, tol)[0]:
            return candidate
    return None


def independent_subset_reference(columns, tol):
    """The one-SVD-per-column greedy independent subset that ``_independent_subset`` replaced."""
    if not columns:
        return [], {}
    stack = np.column_stack(columns)
    svals = np.linalg.svd(stack, compute_uv=False)
    smax = float(svals[0]) if svals.size else 0.0
    threshold = tol * smax
    kept = []
    coeffs = {}
    for j in range(stack.shape[1]):
        if smax == 0.0:
            coeffs[j] = np.zeros(0, dtype=COMPLEX)
            continue
        if not kept:
            if np.linalg.norm(stack[:, j]) > threshold:
                kept.append(j)
            else:
                coeffs[j] = np.zeros(0, dtype=COMPLEX)
            continue
        if len(kept) < stack.shape[0] and (
            np.linalg.svd(stack[:, kept + [j]], compute_uv=False)[-1] > threshold
        ):
            kept.append(j)
        else:
            sol, *_ = np.linalg.lstsq(stack[:, kept], stack[:, j], rcond=None)
            coeffs[j] = sol
    return kept, coeffs


def _entry_to_complex(entry, where: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
    ):
        raise InputError(f"{where}: entries must be [re, im] number pairs")
    re, im = float(entry[0]), float(entry[1])
    if not (math.isfinite(re) and math.isfinite(im)):
        raise InputError(f"{where}: entries must be finite")
    return complex(re, im)


def rows_to_matrix_reference(rows, dim: int | None = None, where: str = "matrix") -> np.ndarray:
    """The per-entry parser that ``serialize.rows_to_matrix`` replaced."""
    if not isinstance(rows, list) or not rows:
        raise InputError(f"{where}: expected a non-empty array of rows")
    n = len(rows)
    if dim is not None and n != dim:
        raise InputError(f"{where}: expected {dim} rows, got {n}")
    out = np.zeros((n, n), dtype=np.complex128)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"{where}: row {r} must have {n} entries")
        for c, entry in enumerate(row):
            out[r, c] = _entry_to_complex(entry, f"{where}[{r}][{c}]")
    return out


def count_linalg(monkeypatch, *names):
    """Count the calls of the named numpy.linalg functions; returns the live counts."""
    counts = dict.fromkeys(names, 0)

    def counting(name):
        fn = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(np.linalg, name, counting(name))
    return counts


def count_calls(monkeypatch, targets):
    """Count the calls of each (module, name) in ``targets``, summed by name; returns the
    live counts."""
    counts = {}
    for module, name in targets:
        counts.setdefault(name, 0)

        def wrapper(*args, _fn=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    return counts


def liouville_builds(monkeypatch, modules):
    """Wrap the ``to_liouville`` that each module binds; returns the live list of the distinct
    matrices it returned, one per build, since a stored matrix comes back as the same object."""
    built = []
    for module in modules:
        def wrapper(s, _fn=module.to_liouville):
            m = _fn(s)
            if not any(m is x for x in built):
                built.append(m)
            return m
        monkeypatch.setattr(module, "to_liouville", wrapper)
    return built


def classify_form_reference(phi, tol=1e-9):
    """The form classifier as one full ``classify_hermitian`` call on the Liouville matrix."""
    report = classify_hermitian(to_liouville(phi.op), tol)
    if report.kind is PositivityClass.NON_HERMITIAN:
        kind = FormKind.GENERAL
    elif report.kind is PositivityClass.POSITIVE_DEFINITE:
        kind = FormKind.DEFINITE_INNER_PRODUCT
    else:
        kind = FormKind.HERMITIAN
    return FormClass(kind, report.lambda_min)


def build_inner_product_error_reference(a_list, b_list, tol=1e-9):
    """(message, index, reason) of the first hypothesis ``build_inner_product`` rejects, or None.

    One ``classify_hermitian`` call per factor: left factors PSD, then the stacked
    rank of the left factors, then right factors PD.
    """
    a_list = [np.asarray(a, dtype=COMPLEX) for a in a_list]
    b_list = [np.asarray(b, dtype=COMPLEX) for b in b_list]
    for i, a in enumerate(a_list):
        report = classify_hermitian(a, tol)
        if not report.is_psd:
            return (f"left factor {i} is not positive semidefinite "
                    f"(classifies {report.kind.value})", i, "left factor not PSD")
    dim = a_list[0].shape[0]
    svals = np.linalg.svd(np.vstack(a_list), compute_uv=False)
    rank = int(np.count_nonzero(svals > tol * svals[0])) if svals[0] > 0 else 0
    if rank < dim:
        return (f"left factors have a joint kernel (stacked rank {rank} < {dim})",
                None, "joint kernel nontrivial")
    for i, b in enumerate(b_list):
        report = classify_hermitian(b, tol)
        if not report.is_pd:
            return (f"right factor {i} is not positive definite "
                    f"(classifies {report.kind.value})", i, "right factor not PD")
    return None


def classify_step_reference(m, strict=True, tol=1e-9):
    """(kind, lambda_min) that a decomposition traces as "classify" for the Liouville matrix
    ``m``, from one ``classify_hermitian`` call, or the error it raises instead.

    Strict (``pd_decompose``, ``two_sum_pd``): positive definite or NotPositiveDefiniteError.
    Otherwise (``one_sum_positive``): NotPositiveError for a zero ``m`` and then for one that
    is not PSD, so the zero test wins over a NonHermitian class.
    """
    report = classify_hermitian(m, tol)
    if strict and not report.is_pd:
        raise NotPositiveDefiniteError(
            f"superoperator classifies {report.kind.value}, not positive definite")
    if not strict and frob_norm(m) <= tol:
        raise NotPositiveError("superoperator is zero")
    if not strict and not report.is_psd:
        raise NotPositiveError(
            f"superoperator classifies {report.kind.value}, not positive semidefinite")
    return report.kind.value, report.lambda_min


def replay_pd_decompose(s: LRSum, trace_obj: dict) -> LRSum:
    """``pd_decompose(s)``'s output at d >= 2, rebuilt from ``s`` and ``trace_obj``, the JSON
    form of its trace (``json.loads`` of ``canonical_dumps(trace_to_obj(trace))``).

    The blocks come from the operator; every chosen scalar comes from the trace: the
    "diag_pencil" t, gamma_11 and gammas, the "margins" betas, alpha and dropped blocks, and
    the "lifts" lambdas. Each factor is the arithmetic ``pd_decompose`` accepted, redone in
    its order, so the replay is equal bit for bit, not close.
    """
    steps = {step["name"]: step["data"] for step in trace_obj["steps"]}
    pencil, margins, lifts = steps["diag_pencil"], steps["margins"], steps["lifts"]
    d = s.dim
    blocks, hat = selfadjoint_blocks(to_liouville(s)), _hermitian_units(d)
    diag1, diag2 = blocks[0], blocks[d + 1]
    others = [k for k in range(d * d) if k not in (0, d + 1)]
    key = lambda k: f"{k // d},{k % d}"
    t, gamma11 = pencil["t"], pencil["gamma11"]
    gamma = [complex(*pencil["gamma"][key(k)]) for k in others]
    tail = np.add.reduce(np.array(gamma).real[:, None, None] * hat[others])
    left_comb = gamma11 * (matrix_unit(d, 1, 1) + t * matrix_unit(d, 2, 2)) + tail
    right2 = diag2 - t * diag1
    ratios = np.array([g / gamma11 for g in gamma])
    rest = blocks[others] - ratios[:, None, None] * diag1
    dropped = [f"{n},{m}" for n, m in margins["dropped"]]
    keep = np.array([key(k) not in dropped for k in others], dtype=bool)
    kept = np.array(others)[keep]
    beta = np.array([margins["beta"][key(k)] for k in kept], dtype=float)
    right3 = beta[:, None, None] * right2 + rest[keep]
    left2 = np.add.reduce(np.concatenate([matrix_unit(d, 2, 2)[None],
                                          -(beta[:, None, None] * hat[kept])]))
    alpha = margins["alpha"]
    neg_left = alpha * left_comb + -left2
    off = kept // d != kept % d
    lam = np.array([lifts["lam"][key(k)] for k in kept[off]], dtype=float)
    lefts = hat[kept]
    lefts[off] = lam[:, None, None] * neg_left + hat[kept[off]]
    neg_right = np.add.reduce(np.concatenate([right2[None], lam[:, None, None] * right3[off]]))
    out = [LRTerm(neg_left, neg_right, -1), LRTerm(left_comb, diag1 / gamma11 + alpha * right2)]
    return LRSum(d, tuple(out + [LRTerm(a, b) for a, b in zip(lefts, right3)]))


def _norm(x) -> float:
    """The Frobenius norm by ``np.linalg.norm`` of ``x`` over its largest magnitude, so that no
    square overflows."""
    big = float(np.abs(x).max(initial=0.0))
    return big * float(np.linalg.norm(x / big)) if big else 0.0


def positive_oracle(stack, tol=1e-9, strict=True):
    """(verdict, margin, delta) of each matrix T of a stack, for the PD (``strict``) or PSD
    test of ``core._positive``, from ``np.linalg.eigvalsh`` of H = T/2 + T*/2.

    verdict: ||T - T*||_F <= tol ||T||_F and lambda_min(H) > threshold (``strict``) or
    lambda_min(H) >= -threshold, where threshold = tol max(1, ||T||_F). margin: lambda_min(H)
    less +threshold or -threshold; inf when T is not Hermitian. delta: the band
    (n + 2) u (tr|H| + n threshold), u = 2^-53, within which a Cholesky factorization of
    H -+ threshold I may decide either way: Rump's (n + 2) u tr|H| bound for a completed
    factorization (BIT 46, 2006), widened by the rounding of the shift on the diagonal.
    """
    stack = np.asarray(stack, dtype=COMPLEX)
    n = stack.shape[-1]
    out = []
    for t in stack:
        norm = _norm(t)
        threshold = tol * max(1.0, norm)
        w = np.linalg.eigvalsh(t / 2 + t.conj().T / 2)
        hermitian = _norm(t - t.conj().T) <= tol * norm
        with np.errstate(over="ignore"):  # near the float range: an infinite margin or band
            margin = w[0] - (threshold if strict else -threshold) if hermitian else math.inf
            delta = (n + 2) * 2.0**-53 * (np.abs(w).sum() + n * threshold)
        verdict = hermitian and (margin > 0 if strict else margin >= 0)
        out.append((verdict, margin, delta))
    verdicts, margins, deltas = (np.array(x) for x in zip(*out))
    return verdicts, margins, deltas


def wire_trace(trace) -> dict:
    """The JSON form of a trace, as a report carries it and a reader parses it."""
    return json.loads(canonical_dumps(trace_to_obj(trace)))


def replay_two_sum(terms, trace_obj: dict, until: str | None = None) -> LRSum:
    """``two_sum_pd(*terms[0], *terms[1])``'s output, rebuilt from the input pairs ``terms``
    and ``trace_obj``, the JSON form of its trace (``wire_trace``); with ``until`` the two
    terms as they stand after the first step of that name.

    Every chosen scalar comes from the trace: the "fold_right" betas, the "right_pencil" t,
    the "fold_left" deltas and the "left_pencil" s. Each factor is the arithmetic
    ``two_sum_pd`` accepted, redone in its order (an offset search accepts base + t step),
    so the replay is equal bit for bit. Each "fold_right" g0 is checked against its beta1:
    g0* p1 g0 = beta1 to 1e-10 max(1, ||p1||_F). A "one_sum_fallback" step records only the names of
    its sub-steps, not the alpha it chose, so such a trace cannot be replayed: ValueError.
    """
    cur = [tuple(np.asarray(x, dtype=COMPLEX) for x in pair) for pair in terms]
    for step in trace_obj["steps"]:
        name, data = step["name"], step["data"]
        (p1, q1), (p2, q2) = cur
        if name == "swap":
            cur.reverse()
        elif name == "fold_right":
            beta1, beta2 = complex(*data["beta1"]), complex(*data["beta2"])
            g0 = np.array([complex(*v) for v in data["g0"]])
            assert abs(complex(g0.conj() @ p1 @ g0) - beta1) <= 1e-10 * max(1.0, _norm(p1))
            cur = [(p1 / beta1, beta1 * q1 + beta2 * q2), (p2 - (beta2 / beta1) * p1, q2)]
        elif name == "right_pencil":
            t = data["t"]
            cur = [(p1 + t * p2, q1), (p2, q2 + t * -q1)]
        elif name == "fold_left":
            du, dg = data["delta_u"], data["delta_g"]
            cur = [(p1, q1 - (dg / du) * q2), (du * p2 + dg * p1, q2 / du)]
        elif name == "left_pencil":
            s = data["s"]
            cur = [(p1, q1 + s * q2), (p2 + s * -p1, q2)]
        elif name == "one_sum_fallback":
            raise ValueError("a one_sum_fallback step records no alpha: not replayable")
        if name == until:
            break
    return LRSum.from_pairs(cur, len(cur[0][0]))


def replay_one_sum(a, b, trace_obj: dict) -> tuple[np.ndarray, np.ndarray]:
    """``one_sum_positive(a, b)``'s two factors, rebuilt from ``a``, ``b`` and the "rescale"
    alpha of ``trace_obj``, the JSON form of its trace; equal bit for bit."""
    rescale = next(step["data"] for step in trace_obj["steps"] if step["name"] == "rescale")
    alpha = complex(*rescale["alpha"])
    return alpha * np.asarray(a, dtype=COMPLEX), np.asarray(b, dtype=COMPLEX) / alpha


def two_sum_input(rng):
    """(a1, b1, a2, b2) at d = 2 or 3: PD a1, b1 and b2, and a scaled Hermitian a2, often
    indefinite, so the left stage runs. Most draws are not positive definite operators."""
    d = int(rng.integers(2, 4))
    a1, b1 = random_pd(rng, d), random_pd(rng, d)
    a2 = rng.uniform(0.05, 1.5) * random_hermitian(rng, d)
    return a1, b1, a2, random_pd(rng, d)


# i such that ``two_sum_input(np.random.default_rng([27, i]))`` is positive definite and its
# left pencil shrinks the offset: 4, 4, 2, 1, 1 and 3 times
SHRINKING_LEFT_STAGE_SEEDS = (137, 143, 177, 207, 218, 435)


def shrinking_left_stage_inputs() -> list:
    """The two-sum inputs of ``SHRINKING_LEFT_STAGE_SEEDS``, each as a list of two pairs."""
    out = []
    for i in SHRINKING_LEFT_STAGE_SEEDS:
        a1, b1, a2, b2 = two_sum_input(np.random.default_rng([27, i]))
        out.append([(a1, b1), (a2, b2)])
    return out


def _bareiss_minors_positive(m: list) -> bool:
    """Whether every leading principal minor of the integer matrix ``m`` is positive, by
    fraction-free Bareiss elimination (Math. Comp. 22, 1968): after step k the pivot m[k][k]
    is the (k+1)-th leading minor, and every division is exact. ``m`` is overwritten."""
    n, prev = len(m), 1
    for k in range(n):
        pivot = m[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
        prev = pivot
    return True


def exact_pd(t) -> bool:
    """Whether H = T + T* is positive definite, decided exactly in Python integers.

    Each float entry is read as the exact ``Fraction`` it is, H is embedded as the real
    symmetric [[Re H, -Im H], [Im H, Re H]] (each eigenvalue of H twice), scaled by one power
    of two to integers, and Sylvester's criterion is applied: every leading principal minor
    must be positive. No rounding enters, so a claim within any tolerance of the threshold
    is decided all the same.
    """
    t = np.asarray(t, dtype=COMPLEX)
    n = t.shape[0]
    re = [[Fraction(float(t[i, j].real)) + Fraction(float(t[j, i].real)) for j in range(n)]
          for i in range(n)]
    im = [[Fraction(float(t[i, j].imag)) - Fraction(float(t[j, i].imag)) for j in range(n)]
          for i in range(n)]
    real = [re[i] + [-x for x in im[i]] for i in range(n)]
    real += [im[i] + re[i] for i in range(n)]
    scale = max(x.denominator for row in real for x in row)  # a power of two: the others divide it
    return _bareiss_minors_positive([[int(x * scale) for x in row] for row in real])

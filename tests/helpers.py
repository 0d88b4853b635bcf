"""Shared samplers and independent oracles for the test suite.

The oracles here deliberately avoid the library code paths they check:
the Liouville oracle builds the matrix column by column from the action
on basis matrices (no Kronecker products), the inner-product oracle is a
double loop, and the pencil oracle goes through an explicit inverse
square root. The zeta references are the per-matrix certificate check and
search, the independent-subset reference is the one-SVD-per-column rank
test, ``to_liouville_reference`` is the ``np.kron`` loop, and
``rows_to_matrix_reference`` is the per-entry wire parser, that the
library routines must reproduce bit for bit.
"""

import math

import numpy as np

from hsdecomp import (
    InputError,
    LRSum,
    ZetaCertificate,
    apply_superop,
    classify_hermitian,
    matrix_unit,
    pencil_extremes,
    vec,
)

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

"""Independent correctness oracles for the benchmark.

They import numpy only and avoid the library's code paths on purpose:

- the Liouville matrix is built column by column from the action of the
  operator on each matrix unit, never with ``kron``;
- claimed positivity of a factor is tested with plain ``eigvalsh`` after
  an explicit Hermiticity test, never with ``classify_hermitian``;
- pencil extremes go through an explicit inverse square root of the base
  matrix, never ``scipy.linalg.eigh(b, c)``;
- wire-format matrices are parsed here, not by ``hsdecomp.serialize``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

# Relative Frobenius backward error allowed for any rewrite of an operator:
# ten times the library's default tolerance of 1e-9.
BACKWARD_ERR_BOUND = 1e-8
# Hermiticity defect allowed for a factor claimed PSD/PD, relative to its norm.
HERMITIAN_RTOL = 1e-8
# A PSD claim tolerates eigenvalues down to -PSD_RTOL * ||x||_F.
PSD_RTOL = 1e-8


def parse_rows(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def parse_terms(obj) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(sign, a, b) triples of a wire-format operator object."""
    return [(int(t.get("sign", 1)), parse_rows(t["a"]), parse_rows(t["b"])) for t in obj["terms"]]


def liouville_by_action(dim: int, terms) -> np.ndarray:
    """Liouville matrix whose column for E_nm is the stacked image sum_k s_k a_k E_nm b_k.

    ``terms`` holds (sign, a, b) triples. Column-stacking convention:
    vec(x)[c*d + r] = x[r, c], so E_nm (0-based) sits at column m*d + n.
    """
    out = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    if not terms:
        return out
    a = np.stack([s * x for s, x, _ in terms])
    b = np.stack([y for _, _, y in terms])
    for n in range(dim):
        for m in range(dim):
            unit = np.zeros((dim, dim), dtype=np.complex128)
            unit[n, m] = 1.0
            image = (a @ unit @ b).sum(axis=0)
            out[:, m * dim + n] = image.reshape(-1, order="F")
    return out


def liouville_of(s) -> np.ndarray:
    """Oracle Liouville matrix of a library LR-sum (signed or not), read through
    its public ``dim``/``terms`` fields only."""
    return liouville_by_action(
        s.dim, [(getattr(t, "sign", 1), np.asarray(t.a), np.asarray(t.b)) for t in s.terms]
    )


def rel_err(m, ref) -> float:
    return float(np.linalg.norm(m - ref) / max(np.linalg.norm(ref), 1e-300))


def is_hermitian(x) -> bool:
    x = np.asarray(x)
    return float(np.linalg.norm(x - x.conj().T)) <= HERMITIAN_RTOL * max(float(np.linalg.norm(x)), 1e-300)


def min_eig(x) -> float:
    x = np.asarray(x)
    return float(np.linalg.eigvalsh((x + x.conj().T) / 2)[0])


def is_psd(x) -> bool:
    x = np.asarray(x)
    return is_hermitian(x) and min_eig(x) >= -PSD_RTOL * float(np.linalg.norm(x))


def is_pd(x) -> bool:
    return is_hermitian(x) and min_eig(x) > 0.0


def stacked_rank_full(mats, rtol=1e-9) -> bool:
    s = np.linalg.svd(np.vstack(mats), compute_uv=False)
    return bool(s[0] > 0 and s[-1] > rtol * s[0])


def pencil_extremes(b, c) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the pencil (b, c), c positive definite,
    through c^{-1/2} b c^{-1/2}."""
    b = (b + b.conj().T) / 2
    c = (c + c.conj().T) / 2
    w, v = np.linalg.eigh(c)
    c_isqrt = (v / np.sqrt(w)) @ v.conj().T
    ev = np.linalg.eigvalsh(c_isqrt @ b @ c_isqrt)
    return float(ev[0]), float(ev[-1])


def sesquilinear(liouville, eta, tau) -> complex:
    """tr(eta* A tau) read off the Liouville matrix of A (stacked coordinates)."""
    x = np.asarray(eta).reshape(-1, order="F")
    y = np.asarray(tau).reshape(-1, order="F")
    return complex(np.conj(x) @ (liouville @ y))


def canonical_bytes(obj) -> bytes:
    """Canonical rendering documented by the wire format: sorted keys,
    compact separators, shortest round-trip floats, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False).encode("utf-8")


def digest(obj) -> str:
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()

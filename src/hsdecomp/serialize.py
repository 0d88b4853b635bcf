"""JSON wire formats and the canonical input digest.

Matrices travel as row-major arrays of rows with each entry a two-element
[re, im] pair; operators as {"dim": d, "terms": [{"sign": +-1, "a": rows,
"b": rows}, ...]} with at most one negative sign, first if present. The
canonical digest is SHA-256 over a canonical rendering (sorted keys,
compact separators, Python's shortest round-trip float formatting) of the
normalized object, so whitespace and default-field differences do not
change it while any value perturbation does.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import chain
from typing import Any

import numpy as np

from .core import _is_integer
from .exceptions import InputError
from .posdecomp import DecompositionTrace
from .superop import LRSum, LRTerm

__all__ = [
    "matrix_to_rows",
    "rows_to_matrix",
    "operator_to_obj",
    "obj_to_operator",
    "trace_to_obj",
    "jsonify",
    "canonical_dumps",
    "canonical_digest",
]


def matrix_to_rows(m) -> list:
    """A complex array of any shape as nested lists with each entry an [re, im] pair, read
    from one contiguous float64 view. A NaN stays a float, so a report that holds one fails
    to render (``canonical_dumps`` refuses it); no library output holds one."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    return m.view(np.float64).reshape(*m.shape, 2).tolist()


# float() of an int this large in magnitude or larger overflows: it would round to 2**1024.
_FLOAT_OVERFLOW = 2**1024 - 2**970


def _is_pair_type(t) -> bool:
    return issubclass(t, (list, tuple))


def _is_number_type(t) -> bool:
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _all_types(items, accept) -> bool:
    """Whether every item's type passes ``accept``, tested once per distinct type."""
    return all(map(accept, set(map(type, items))))


def _pair_values(entries) -> np.ndarray | None:
    """The [re, im] entries as one flat float64 array, or None if any entry is bad."""
    if not (_all_types(entries, _is_pair_type) and set(map(len, entries)) <= {2}):
        return None
    values = list(chain.from_iterable(entries))
    if not _all_types(values, _is_number_type):
        return None
    try:
        arr = np.array(values, dtype=np.float64)
    except OverflowError:  # an int beyond the float range
        return None
    return arr if np.isfinite(arr).all() else None


def _entry_error(entry) -> str | None:
    """Why one entry is bad, shape and type tested before finiteness, or None if it is good."""
    if not (_is_pair_type(type(entry)) and len(entry) == 2 and _all_types(entry, _is_number_type)):
        return "entries must be [re, im] number pairs"
    finite = (abs(v) < _FLOAT_OVERFLOW if isinstance(v, int) else math.isfinite(v) for v in entry)
    return None if all(finite) else "entries must be finite"


def rows_to_matrix(rows, dim: int | None = None, where: str = "matrix") -> np.ndarray:
    """Parse a row-major array of [re, im] rows into a square complex matrix.

    Entry values are ints or floats (subclasses such as ``np.float64``
    included, ``bool`` never) that convert to finite float64s. Types are
    checked once per distinct type and the values converted in one array,
    so valid input costs no Python work per entry. An error names the
    first bad row or entry in row-major order.
    """
    if not isinstance(rows, list) or not rows:
        raise InputError(f"{where}: expected a non-empty array of rows")
    n = len(rows)
    if dim is not None and n != dim:
        raise InputError(f"{where}: expected {dim} rows, got {n}")
    short = n
    if not (_all_types(rows, lambda t: issubclass(t, list)) and set(map(len, rows)) == {n}):
        short = next(r for r, row in enumerate(rows) if not isinstance(row, list) or len(row) != n)
    entries = list(chain.from_iterable(rows[:short]))
    values = _pair_values(entries)
    if values is None:
        i, message = next((i, e) for i, e in enumerate(map(_entry_error, entries)) if e)
        raise InputError(f"{where}[{i // n}][{i % n}]: {message}")
    if short < n:
        raise InputError(f"{where}: row {short} must have {n} entries")
    return values.view(np.complex128).reshape(n, n)


def operator_to_obj(s: LRSum) -> dict:
    """Normalized JSON object for an operator; the sign field is always explicit.

    The rows of every factor come from one ``matrix_to_rows`` call on all of them."""
    rows = matrix_to_rows([(t.a, t.b) for t in s.terms])
    terms = [{"sign": t.sign, "a": a, "b": b} for t, (a, b) in zip(s.terms, rows)]
    return {"dim": s.dim, "terms": terms}


def obj_to_operator(obj) -> LRSum:
    """Parse an operator object; a missing sign means +1."""
    if not isinstance(obj, dict):
        raise InputError("operator: expected a JSON object")
    if "dim" not in obj or "terms" not in obj:
        raise InputError("operator: required fields 'dim' and 'terms'")
    dim = obj["dim"]
    if not _is_integer(dim) or dim < 1:
        raise InputError(f"operator: dim must be a positive integer, got {dim!r}")
    raw_terms = obj["terms"]
    if not isinstance(raw_terms, list):
        raise InputError("operator: terms must be an array")
    parsed = []
    for i, term in enumerate(raw_terms):
        if not isinstance(term, dict) or "a" not in term or "b" not in term:
            raise InputError(f"operator: term {i} must be an object with 'a' and 'b'")
        sign = term.get("sign", 1)
        if not _is_integer(sign) or sign not in (1, -1):
            raise InputError(f"operator: term {i} sign must be 1 or -1, got {sign!r}")
        a = rows_to_matrix(term["a"], dim, f"term {i} 'a'")
        b = rows_to_matrix(term["b"], dim, f"term {i} 'b'")
        parsed.append((sign, a, b))
    return LRSum(dim, tuple(LRTerm(a, b, sign) for sign, a, b in parsed))


def jsonify(x) -> Any:
    """Recursively convert library values into JSON-ready structures.

    Complex scalars become [re, im]; 1-D arrays become lists of pairs,
    2-D arrays row arrays (both by ``matrix_to_rows``, so a NaN in an array stays NaN and fails
    rendering); a NaN scalar becomes null; tuple dict keys become comma-joined strings.
    """
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        v = float(x)
        return None if math.isnan(v) else v
    if isinstance(x, (complex, np.complexfloating)):
        return [jsonify(x.real), jsonify(x.imag)]
    if isinstance(x, np.ndarray):
        if x.ndim in (1, 2):
            return matrix_to_rows(x)
        raise InputError(f"cannot serialize array of ndim {x.ndim}")
    if isinstance(x, dict):
        out = {}
        for k, v in x.items():
            if isinstance(k, tuple):
                k = ",".join(str(p) for p in k)
            out[str(k)] = jsonify(v)
        return out
    if isinstance(x, (list, tuple)):
        return [jsonify(v) for v in x]
    raise InputError(f"cannot serialize value of type {type(x).__name__}")


def trace_to_obj(trace: DecompositionTrace) -> dict:
    return {"steps": [{"name": s.name, "data": jsonify(s.data)} for s in trace.steps]}


def canonical_dumps(obj) -> str:
    """Sorted keys, compact separators, no NaN or infinity.

    The library renders only trees it built or JSON it parsed, so there is no
    cycle check: a cyclic object raises ``RecursionError``, not ``ValueError``.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                      check_circular=False)


def canonical_digest(obj) -> str:
    """Hex SHA-256 of the canonical rendering of a (normalized) JSON object."""
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()

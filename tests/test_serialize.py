import json
import math

import numpy as np
import pytest

from hsdecomp import InputError, LRSum, LRTerm, SignedLRSum, identity_superop
from hsdecomp.serialize import (
    canonical_digest,
    canonical_dumps,
    jsonify,
    matrix_to_rows,
    obj_to_operator,
    operator_to_obj,
    rows_to_matrix,
)
from helpers import random_lrsum, rel_err, rows_to_matrix_reference


def test_matrix_round_trip():
    rng = np.random.default_rng(60)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = rows_to_matrix(matrix_to_rows(m))
    assert rel_err(back, m) == 0.0


def test_rows_validation():
    with pytest.raises(InputError):
        rows_to_matrix([[1, 2], [3, 4]])  # entries not [re, im]
    with pytest.raises(InputError):
        rows_to_matrix([[[1, 0]], [[0, 1]]])  # ragged vs square
    with pytest.raises(InputError):
        rows_to_matrix([[[1, 0], [0, float("inf")]], [[0, 0], [1, 0]]])


def test_rows_to_matrix_huge_integer_is_input_error():
    # float() of this int overflows; it is reported like any non-finite entry
    rows = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 10**400], [1.0, 0.0]]]
    with pytest.raises(InputError) as info:
        rows_to_matrix(rows, 2, "m")
    assert str(info.value) == "m[1][0]: entries must be finite"


class _ListSub(list):
    pass


class _IntSub(int):
    pass


class _FloatSub(float):
    pass


_FLOAT_OVERFLOW = 2**1024 - 2**970  # the smallest int whose float() overflows
_GOOD_VALUES = [
    0, -0, 1, -7, 2**53 + 1, -(2**53 + 1), 2**63 + 1025, 2**64 + 1, -(2**63), 2**100 + 1,
    _FLOAT_OVERFLOW - 1, -(_FLOAT_OVERFLOW - 1), -0.0, 5e-324, -5e-324, 1e-310,
    1e308, -1e308, 1.7976931348623157e308, np.float64(0.1), np.float64(-0.0),
    _IntSub(3), _FloatSub(2.5),
]
_BAD_VALUES = [
    True, False, "1", None, [1.0], np.float32(1.5), np.int64(3), 1 + 0j,
    float("nan"), float("inf"), float("-inf"), np.float64("nan"), _FloatSub("inf"),
]
_OVERFLOW_VALUES = [10**400, -(10**400), _FLOAT_OVERFLOW, -_FLOAT_OVERFLOW]


def _good_entries(e):
    return [tuple(e), _ListSub(e), [7, e[1]]]


def _bad_entries(e):
    return [
        e[:1], e + [0.0], [], e[0], "ab", None, {"re": e[0]}, [e], (e[0],), [e[0], True],
        [float("nan"), True], np.array(e),
    ]


def _bad_rows(row):
    return [row[:-1], row + row[:1], tuple(row), None, "row", _ListSub(row)]


def _mutate(rng, rows, kind):
    """Apply one mutation of ``kind`` at a random place; returns its label."""
    d = len(rows)
    r, c, p = int(rng.integers(d)), int(rng.integers(d)), int(rng.integers(2))
    row = rows[r]
    if type(row) is not list or len(row) != d:  # already mutated
        return "skip"
    if kind == "row":
        options = _bad_rows(row)
        j = int(rng.integers(len(options)))
        rows[r] = options[j]
        return f"row{r}:{j}"
    entry = row[c]
    if type(entry) is not list or len(entry) != 2:
        return "skip"
    if kind == "entry":
        options = _good_entries(entry) + _bad_entries(entry)
        j = int(rng.integers(len(options)))
        row[c] = options[j]
        return f"[{r}][{c}]:e{j}"
    pool = {"good": _GOOD_VALUES, "bad": _BAD_VALUES, "overflow": _OVERFLOW_VALUES}[kind]
    j = int(rng.integers(len(pool)))
    entry = list(entry)
    entry[p] = pool[j]
    row[c] = entry
    return f"[{r}][{c}][{p}]:{kind}{j}"


# Mixed failures whose message pins the order of the checks.
_ORDER_CASES = {
    # a bad entry in row 0 is reported before the short row 1
    "entry-before-short-row": (
        [[[1.0, 0.0], [True, 0.0], [0.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]] * 3],
        "m[0][1]: entries must be [re, im] number pairs"),
    # the short row 1 is reported before a bad entry in row 2
    "short-row-before-entry": (
        [[[1.0, 0.0]] * 3, [[0.0, 0.0]], [[0.0, 0.0], ["x", 0.0], [0.0, 0.0]]],
        "m: row 1 must have 3 entries"),
    # entries are taken left to right: NaN at [0][0] before a bool at [0][1]
    "nan-before-bool": (
        [[[float("nan"), 0.0], [False, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "m[0][0]: entries must be finite"),
    # within one entry the type test comes first
    "type-before-finite": (
        [[[float("nan"), True], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "m[0][0]: entries must be [re, im] number pairs"),
    # an overflowing int after a bad type is not the first error, and before one it is
    "type-before-overflow": (
        [[[1.0, 0.0], [None, 0.0]], [[10**400, 0.0], [1.0, 0.0]]],
        "m[0][1]: entries must be [re, im] number pairs"),
    "overflow-before-type": (
        [[[1.0, 0.0], [0.0, -(10**400)]], [[None, 0.0], [1.0, 0.0]]],
        "m[0][1]: entries must be finite"),
}


def _rows_corpus():
    """(label, rows, dim, overflows) cases: seeded, single and mixed mutations."""
    rng = np.random.default_rng(62)
    cases = [
        ("not-a-list", "rows", None, False),
        ("empty", [], None, False),
        ("dim-mismatch", [[[1.0, 0.0]]], 2, False),
        ("tuple-rows", ([[1.0, 0.0]],), None, False),
        # signed zeros survive, the int -0 is +0.0 and 2**53 + 1 rounds to even
        ("signed-zeros", [[[-0.0, -0.0], [2**53 + 1, -0]], [[5e-324, -0.0], [0, np.float64(-0.0)]]],
         2, False),
    ]
    cases += [(label, rows, None, "overflow" in label) for label, (rows, _) in _ORDER_CASES.items()]
    for trial in range(600):
        d = int(rng.integers(1, 9))
        scale = 10.0 ** int(rng.integers(-300, 300))
        m = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        rows = matrix_to_rows(m)
        kinds = rng.choice(
            ["good", "bad", "overflow", "entry", "row"], size=int(rng.integers(0, 4)),
            p=[0.3, 0.25, 0.05, 0.25, 0.15],
        )
        labels = [_mutate(rng, rows, str(k)) for k in kinds]
        overflows = any("overflow" in label for label in labels)
        cases.append((f"{trial}:d{d}:" + ",".join(labels), rows, d if trial % 2 else None, overflows))
    return cases


def _outcome(fn, rows, dim):
    try:
        m = fn(rows, dim, "m")
    except Exception as exc:  # the reference may raise OverflowError
        return type(exc), str(exc)
    return m.dtype, m.shape, m.flags.c_contiguous, m.tobytes()


def test_rows_to_matrix_matches_reference():
    differing = []
    overflow_fixes = 0
    for label, rows, dim, overflows in _rows_corpus():
        got = _outcome(rows_to_matrix, rows, dim)
        want = _outcome(rows_to_matrix_reference, rows, dim)
        if not isinstance(got[1], str):  # a matrix, not an error message
            assert got[0] == np.complex128 and got[2], label
        if got == want:
            continue
        # the one intended difference: an int beyond the float range is a typed
        # "not finite" error instead of an OverflowError from float()
        if overflows and want[0] is OverflowError and got[0] is InputError:
            assert got[1].endswith("entries must be finite"), label
            overflow_fixes += 1
            continue
        differing.append((label, got, want))
    assert differing == []
    assert overflow_fixes > 0


@pytest.mark.parametrize("label", list(_ORDER_CASES))
def test_rows_to_matrix_reports_first_bad_entry(label):
    rows, message = _ORDER_CASES[label]
    with pytest.raises(InputError) as info:
        rows_to_matrix(rows, None, "m")
    assert str(info.value) == message


def test_operator_round_trip():
    rng = np.random.default_rng(61)
    s = random_lrsum(rng, 3, 2)
    back = obj_to_operator(operator_to_obj(s))
    assert isinstance(back, LRSum)
    assert back.dim == 3 and len(back) == 2
    for t0, t1 in zip(s.terms, back.terms):
        assert rel_err(t1.a, t0.a) == 0.0
        assert rel_err(t1.b, t0.b) == 0.0


@pytest.mark.parametrize("d, n_terms", [(1, 0), (1, 3), (3, 0), (4, 5), (8, 2)])
def test_operator_rows_match_matrix_to_rows_per_factor(d, n_terms):
    """The rows of every factor come from one array; they render as ``matrix_to_rows`` of
    each factor does, signed zeros and an empty operator included."""
    rng = np.random.default_rng(62 + d)
    s = random_lrsum(rng, d, n_terms)
    if n_terms:
        s = SignedLRSum(d, (LRTerm(-0.0 * s.terms[0].a, s.terms[0].b, -1),) + s.terms[1:])
    expected = {"dim": d, "terms": [{"sign": t.sign, "a": matrix_to_rows(t.a),
                                     "b": matrix_to_rows(t.b)} for t in s.terms]}
    assert canonical_dumps(operator_to_obj(s)) == canonical_dumps(expected)


def test_signed_operator_round_trip():
    obj = {
        "dim": 2,
        "terms": [
            {"sign": -1, "a": matrix_to_rows(np.eye(2)), "b": matrix_to_rows(np.eye(2))},
            {"a": matrix_to_rows(2 * np.eye(2)), "b": matrix_to_rows(np.eye(2))},
        ],
    }
    op = obj_to_operator(obj)
    assert isinstance(op, SignedLRSum)
    assert [t.sign for t in op.terms] == [-1, 1]


def test_operator_schema_errors():
    with pytest.raises(InputError, match="^operator: expected a JSON object$"):
        obj_to_operator([])
    with pytest.raises(InputError, match="^operator: terms must be an array$"):
        obj_to_operator({"dim": 2, "terms": {}})
    with pytest.raises(InputError):
        obj_to_operator({"dim": 2})
    with pytest.raises(InputError):
        obj_to_operator({"dim": 0, "terms": []})
    with pytest.raises(InputError):
        obj_to_operator({"dim": 2, "terms": [{"a": matrix_to_rows(np.eye(2))}]})
    with pytest.raises(InputError):
        obj_to_operator(
            {"dim": 2, "terms": [
                {"sign": 2, "a": matrix_to_rows(np.eye(2)), "b": matrix_to_rows(np.eye(2))}
            ]}
        )
    rows = matrix_to_rows(np.eye(2))
    # a sign must be the integer 1 or -1, not a bool or a float
    for sign in (True, 1.0, -1.0):
        with pytest.raises(InputError, match="sign must be 1 or -1"):
            obj_to_operator({"dim": 2, "terms": [{"sign": sign, "a": rows, "b": rows}]})
    # misplaced negative sign
    with pytest.raises(InputError):
        obj_to_operator(
            {"dim": 2, "terms": [
                {"sign": 1, "a": rows, "b": rows},
                {"sign": -1, "a": rows, "b": rows},
            ]}
        )


def test_digest_stable_across_formatting():
    obj = operator_to_obj(identity_superop(2))
    text_pretty = json.dumps(obj, indent=4)
    text_compact = json.dumps(obj, separators=(",", ":"))
    d1 = canonical_digest(json.loads(text_pretty))
    d2 = canonical_digest(json.loads(text_compact))
    assert d1 == d2


def test_digest_ignores_default_sign_materialization():
    rows = matrix_to_rows(np.eye(2))
    explicit = {"dim": 2, "terms": [{"sign": 1, "a": rows, "b": rows}]}
    implicit = {"dim": 2, "terms": [{"a": rows, "b": rows}]}
    # digests are computed over the normalized form
    d1 = canonical_digest(operator_to_obj(obj_to_operator(explicit)))
    d2 = canonical_digest(operator_to_obj(obj_to_operator(implicit)))
    assert d1 == d2


def test_digest_sensitive_to_tiny_perturbation():
    m = np.eye(2)
    d1 = canonical_digest({"m": matrix_to_rows(m)})
    m2 = m.copy().astype(complex)
    m2[0, 0] += 1e-15
    d2 = canonical_digest({"m": matrix_to_rows(m2)})
    assert d1 != d2


def test_canonical_dumps_sorts_keys():
    assert canonical_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_canonical_dumps_has_no_cycle_check():
    # the library renders only trees it built or JSON it parsed; a cycle recurses
    loop, node = [], {}
    loop.append(loop)
    node["self"] = node
    for obj in (loop, node, {"a": [1, loop]}):
        with pytest.raises(RecursionError):
            canonical_dumps(obj)


def test_jsonify_values():
    assert jsonify(1 + 2j) == [1.0, 2.0]
    assert jsonify(float("nan")) is None
    assert jsonify(np.float64(1.5)) == 1.5
    assert jsonify({(0, 1): 2.0}) == {"0,1": 2.0}
    assert jsonify(np.array([1j, 2])) == [[0.0, 1.0], [2.0, 0.0]]
    assert math.isclose(jsonify(np.eye(2))[0][0][0], 1.0)
    with pytest.raises(InputError, match="^cannot serialize array of ndim 3$"):
        jsonify(np.zeros((1, 1, 1)))
    with pytest.raises(InputError, match="^cannot serialize value of type object$"):
        jsonify({"x": [object()]})


def test_constructors_follow_the_wire_format_sign_and_dim_rule():
    eye = np.eye(2)
    ref = LRSum(2, (LRTerm(eye, eye, -1), LRTerm(eye, eye)))
    digest = canonical_digest(operator_to_obj(ref))
    for dim, neg, pos in [(2, -1, 1), (np.int64(2), np.int64(-1), np.int64(1)),
                          (np.uint8(2), np.int8(-1), np.uint8(1))]:
        s = LRSum(dim, (LRTerm(eye, eye, neg), LRTerm(eye, eye, pos)))
        assert type(s.dim) is int and all(type(t.sign) is int for t in s.terms)
        obj = operator_to_obj(s)
        assert obj_to_operator(json.loads(canonical_dumps(obj))) == ref
        assert canonical_digest(obj) == digest
    # a sign is the integer 1 or -1, never a bool or a float, as on the wire
    for sign in (True, False, 1.0, -1.0, np.float64(1.0), np.bool_(True), 2, "1"):
        with pytest.raises(InputError, match="sign must be"):
            LRTerm(eye, eye, sign)
    for dim in (True, 2.0, 0):
        with pytest.raises(InputError, match="dim must be a positive integer"):
            LRSum(dim)

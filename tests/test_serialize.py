import json
import math

import numpy as np
import pytest

from hsdecomp import InputError, LRSum, SignedLRSum, identity_superop
from hsdecomp.serialize import (
    canonical_digest,
    canonical_dumps,
    jsonify,
    matrix_to_rows,
    obj_to_operator,
    operator_to_obj,
    rows_to_matrix,
)
from helpers import random_lrsum, rel_err


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


def test_operator_round_trip():
    rng = np.random.default_rng(61)
    s = random_lrsum(rng, 3, 2)
    back = obj_to_operator(operator_to_obj(s))
    assert isinstance(back, LRSum)
    assert back.dim == 3 and len(back) == 2
    for t0, t1 in zip(s.terms, back.terms):
        assert rel_err(t1.a, t0.a) == 0.0
        assert rel_err(t1.b, t0.b) == 0.0


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


def test_jsonify_values():
    assert jsonify(1 + 2j) == [1.0, 2.0]
    assert jsonify(float("nan")) is None
    assert jsonify(np.float64(1.5)) == 1.5
    assert jsonify({(0, 1): 2.0}) == {"0,1": 2.0}
    assert jsonify(np.array([1j, 2])) == [[0.0, 1.0], [2.0, 0.0]]
    assert math.isclose(jsonify(np.eye(2))[0][0][0], 1.0)

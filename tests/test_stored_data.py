"""An LRSum's Liouville matrix and spectrum are computed once and kept on it.

Whatever another call stored, each public call returns the bits, traces and errors it
returns on a fresh operator, at its own ``tol``.
"""

import itertools
import math
import pickle

import numpy as np
import pytest

from hsdecomp import (
    Form,
    HsDecompError,
    InputError,
    LRSum,
    classify_form,
    classify_superop,
    counterexample_superop,
    equivalence_constants,
    from_liouville,
    pd_decompose,
    to_liouville,
)
from helpers import psd_sum, random_hermitian_liouville, random_lrsum, to_liouville_reference

CALLS = {
    "classify_superop": classify_superop,
    "pd_decompose": pd_decompose,
    "classify_form": lambda s, tol: classify_form(Form(s), tol),
    "equivalence_constants": lambda s, tol: equivalence_constants(Form(s), Form(s), tol),
}


def operators():
    """Positive definite, near-singular (its class depends on tol), indefinite, non-Hermitian
    and overflowing operators."""
    rng = np.random.default_rng(610)
    big = 1e200 * np.eye(2)
    return [
        psd_sum(rng, 3, 4),
        counterexample_superop(1e-4),
        from_liouville(random_hermitian_liouville(rng, 2)),
        random_lrsum(rng, 2, 3),
        LRSum.from_pairs([(big, big)]),
    ]


def fresh(s: LRSum) -> LRSum:
    return LRSum(s.dim, s.terms)


def outcome(call, s, tol):
    """The pickled result of a call, or the type and message of the error it raised."""
    try:
        return pickle.dumps(CALLS[call](s, tol))
    except HsDecompError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("first, second", itertools.permutations(CALLS, 2))
def test_outcomes_do_not_depend_on_stored_data(first, second):
    for s in operators():
        for tol in (1e-9, 1e-3, 1e-9):
            for call in (first, second):
                assert outcome(call, s, tol) == outcome(call, fresh(s), tol), (call, tol)


@pytest.mark.parametrize("call", CALLS)
def test_bad_tol_is_refused_on_a_filled_operator(call):
    s = psd_sum(np.random.default_rng(611), 3, 4)
    for other in CALLS:
        CALLS[other](s, 1e-9)
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(InputError, match="tol must be positive") as filled:
            CALLS[call](s, tol)
        with pytest.raises(InputError) as new:
            CALLS[call](fresh(s), tol)
        assert str(filled.value) == str(new.value)


def test_to_liouville_is_one_read_only_matrix():
    s = random_lrsum(np.random.default_rng(612), 3, 4)
    m = to_liouville(s)
    assert to_liouville(s) is m
    with pytest.raises(ValueError):
        m[0, 0] = 1.0
    np.testing.assert_array_equal(m, to_liouville_reference(s))


def test_equality_repr_and_pickle_ignore_stored_data():
    s = psd_sum(np.random.default_rng(613), 3, 4)
    filled = fresh(s)
    for call in CALLS:
        CALLS[call](filled, 1e-9)
    assert filled == s
    assert repr(filled) == repr(s)
    assert pickle.dumps(filled) == pickle.dumps(s)
    loaded = pickle.loads(pickle.dumps(filled))
    assert to_liouville(loaded) is not to_liouville(filled)
    np.testing.assert_array_equal(to_liouville(loaded), to_liouville(filled))
    assert pickle.dumps(classify_superop(loaded)) == pickle.dumps(classify_superop(s))

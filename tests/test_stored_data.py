"""An LRSum's Liouville matrix, the norm pass of its tolerance rule, its Hermitian part and
that part's spectrum are computed once and kept on it.

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
    LRTerm,
    classify_form,
    classify_superop,
    counterexample_superop,
    equivalence_constants,
    from_liouville,
    pd_decompose,
    selfadjoint_decompose,
    to_liouville,
)
from hsdecomp import core, superop
from hsdecomp.core import _lambda_min_stack
from hsdecomp.superop import _operator_lambda_min
from helpers import psd_sum, random_hermitian_liouville, random_lrsum, to_liouville_reference

CALLS = {
    "classify_superop": classify_superop,
    "pd_decompose": pd_decompose,
    "selfadjoint_decompose": selfadjoint_decompose,
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
    for tol in (0.0, -1.0, math.nan, 1.0, 1e10, math.inf):
        with pytest.raises(InputError, match="^tol must be (positive|below 1), got ") as filled:
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


def liouville_norm_passes(monkeypatch, d: int) -> list:
    """The rule's norm passes over a d² x d² stack, through either module that calls
    ``core._rule_norms``; every other matrix the calls below classify is d x d."""
    passes = []
    for module in (core, superop):
        def wrapper(ts, _fn=module._rule_norms):
            if ts.shape[-1] == d * d:
                passes.append(ts)
            return _fn(ts)
        monkeypatch.setattr(module, "_rule_norms", wrapper)
    return passes


def test_the_liouville_norm_pass_runs_once_per_operator(monkeypatch):
    """Counts: the pipeline's three calls took the norms three times, two form
    classifications and an equivalence of the form with itself four times."""
    s = psd_sum(np.random.default_rng(614), 2, 4)
    passes = liouville_norm_passes(monkeypatch, 2)
    classify_superop(s)
    selfadjoint_decompose(s)
    pd_decompose(s)
    assert len(passes) == 1
    phi = Form(fresh(s))
    classify_form(phi)
    classify_form(phi)
    equivalence_constants(phi, phi)
    assert len(passes) == 2


def test_a_stored_norm_pass_decides_as_a_fresh_one_bitwise():
    """At each tol, lambda_min and the threshold of a filled operator are those of a fresh
    one and of the stacked rule on the reference Liouville matrix. The last operator,
    (1e300 I, I), has a norm near the float range."""
    for s in operators()[:-1] + [LRSum.from_pairs([(1e300 * np.eye(2), np.eye(2))])]:
        filled = fresh(s)
        _operator_lambda_min(filled, 1e-9)
        for tol in (1e-9, 1e-3, 0.5):
            got = np.array(_operator_lambda_min(filled, tol))
            new = np.array(_operator_lambda_min(fresh(s), tol))
            ref = np.array(_lambda_min_stack(to_liouville_reference(s)[None], tol))[:, 0]
            assert got.tobytes() == new.tobytes() == ref.tobytes(), tol


def test_stored_arrays_are_read_only():
    s = psd_sum(np.random.default_rng(615), 3, 4)
    for call in CALLS:
        CALLS[call](s, 1e-9)
    assert set(s._derived) == {"liouville", "rule_norms", "hermitian", "eigh"}
    for value in s._derived.values():
        for x in value if isinstance(value, tuple) else (value,):
            assert isinstance(x, np.ndarray) and not x.flags.writeable


def test_an_overflowing_liouville_matrix_is_refused_alike_on_every_call():
    """-F + F, F = (1e200 I, 1e200 I): the Liouville matrix is inf - inf = NaN, and the stored
    norm pass is NaN. Every factor is finite, so each call reports the overflow as a
    numerical failure, on its first call and every later one. A bad tol is reported first."""
    big = 1e200 * np.eye(2)
    s = LRSum(2, (LRTerm(big, big, -1), LRTerm(big, big)))
    expected = ("NumericalError", "Liouville matrix exceeds the float range")
    for call in CALLS:
        assert [outcome(call, s, 1e-9) for _ in range(2)] == [expected, expected], call
        assert outcome(call, s, 1.0) == ("InputError", "tol must be below 1, got 1.0"), call

"""The option-table enumeration against the permutation-scan oracle."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bhlink import (
    WeightSystem,
    enumerate_representations,
    find_chain_cycle,
    has_invertible_representation,
)
from bhlink.errors import NoRepresentation
from bhlink.polynomial import InvertiblePolynomial
from bhlink.representation import _iter_representations, _option_table, pick_chain_cycle

from generators import random_weight_system
from oracles import oracle_chain_cycle, oracle_representations

# all-equal weights (780 representations, tied chain-cycle orientations), the
# deep-torsion family (2,2,2,2,w; 2w) and three wide generated systems
NAMED = (
    [((1,) * 5, d) for d in (3, 4, 5)]
    + [((2, 2, 2, 2, w), 2 * w) for w in (3, 5, 20, 40, 100)]
    + [
        ((12, 12, 14, 21, 21, 24), 84),
        ((44, 60, 12, 33, 88, 44, 44), 132),
        ((22, 14, 11, 66, 21, 55, 11, 11), 77),
    ]
)


def chain_cycle_outcome(fn, arg):
    try:
        return fn(arg)
    except NoRepresentation:
        return NoRepresentation


def assert_matches_oracle(ws):
    expected = oracle_representations(ws)
    reps = enumerate_representations(ws)
    assert reps == expected
    # the walk never yields a polynomial twice, so enumeration needs no set
    yielded = list(_iter_representations(ws))
    assert len(yielded) == len(set(yielded))
    # every block once: a cycle is not listed again under another rotation
    assert all(len(set(options)) == len(options) for options in _option_table(ws))
    assert has_invertible_representation(ws) == bool(expected)
    choice = chain_cycle_outcome(oracle_chain_cycle, ws)
    assert chain_cycle_outcome(find_chain_cycle, ws) == choice
    if ws.n_vars == 5:
        # batch reads the same choice off the enumeration
        assert (pick_chain_cycle(reps) or NoRepresentation) == choice


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 8))
def test_enumeration_matches_oracle_on_generated_systems(seed, n):
    rng = random.Random(seed)
    got = None
    while got is None:
        got = random_weight_system(rng, n=n)
    assert_matches_oracle(got[1])


@pytest.mark.parametrize("weights, degree", NAMED)
def test_enumeration_matches_oracle_on_named_systems(weights, degree):
    assert_matches_oracle(WeightSystem(weights, degree))



def test_existence_check_validates_one_candidate(monkeypatch):
    # each system has singular even cycles (w_i + w_j = d gives a 2-cycle
    # with exponents 1, 1) beside valid shapes; the search order must reach
    # a valid polynomial first
    calls = []
    validate = InvertiblePolynomial.validate
    monkeypatch.setattr(
        InvertiblePolynomial, "validate", lambda self: calls.append(self) or validate(self)
    )
    systems = [((11, 24, 4, 22, 20), 44), ((147, 35, 26, 26, 7), 182), ((21, 7, 4, 4, 12), 28)]
    for weights, degree in systems:
        assert has_invertible_representation(WeightSystem(weights, degree))
    assert len(calls) == len(systems)

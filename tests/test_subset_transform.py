"""The integer bitmask subset transform against the brute-force recursion."""

import random
from fractions import Fraction
from itertools import groupby
from math import lcm

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bhlink import WeightSystem, betti_subset_sum, homology_profile, orlik_torsion
from bhlink.errors import BhlinkError

from generators import random_weight_system
from oracles import oracle_betti_subset_sum, oracle_torsion_chain, oracle_worksheet

# the oracle scans j = 1..r over every subset; deeper systems are left to the
# regression test below
ORACLE_MAX_R = 20_000


def outcome(fn, *args):
    """The value, or the error type when the computation refuses the input."""
    try:
        return fn(*args)
    except BhlinkError as exc:
        return type(exc)


def oracle_torsion(ws):
    c, k, r = oracle_worksheet(ws)
    return c, k, r, oracle_torsion_chain(c, k, r) if r <= ORACLE_MAX_R else None


def by_mask(values):
    """An oracle table keyed by index tuples, as a list indexed by bitmask."""
    out = [None] * len(values)
    for subset, value in values.items():
        out[sum(1 << i for i in subset)] = value
    return out


def package_torsion(ws):
    sheet, torsion = orlik_torsion(ws)
    k = [Fraction(scaled, sheet.scale) for scaled in sheet.scaled_k]
    return list(sheet.c), k, sheet.r, torsion


def assert_matches_oracle(ws):
    assert outcome(betti_subset_sum, ws) == outcome(oracle_betti_subset_sum, ws)
    expected = outcome(oracle_torsion, ws)
    got = outcome(package_torsion, ws)
    if isinstance(expected, type) or isinstance(got, type):
        assert got == expected
        return
    c, k, r, chain = expected
    assert got[0] == by_mask(c)
    assert got[1] == by_mask(k)
    assert got[2] == r
    if chain is not None:
        # the oracle chain has one entry per copy; the package returns runs
        assert got[3] == tuple((value, len(list(run))) for value, run in groupby(chain))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 8))
def test_subset_transform_matches_oracle_on_generated_systems(seed, n):
    rng = random.Random(seed)
    got = None
    while got is None:
        got = random_weight_system(rng, n=n)
    assert_matches_oracle(got[1])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 6), degree=st.integers(2, 48))
def test_subset_transform_matches_oracle_on_raw_weights(data, n, degree):
    # most raw data defines no link: the error types must agree as well
    weights = data.draw(st.tuples(*[st.integers(1, degree - 1)] * n))
    assert_matches_oracle(WeightSystem(weights, degree))


# many shared prime powers, so the gcds outside the subsets are deep and
# every division of the c butterfly has something to cancel
HIGHLY_COMPOSITE = (2, 4, 6, 12, 24, 36, 48, 60, 120, 180, 240, 360, 720, 840, 1260, 2520, 5040)


@settings(max_examples=80, deadline=None)
@given(u=st.lists(st.sampled_from(HIGHLY_COMPOSITE), min_size=2, max_size=8))
def test_c_numbers_match_the_oracle_on_highly_composite_u(u):
    # (d/u_i; d) with d = lcm(u) is primitive and reduces to exactly these u_i
    d = lcm(*u)
    ws = WeightSystem(tuple(d // ui for ui in u), d)
    assert ws.reduced().u == tuple(u)
    c, _, _ = oracle_worksheet(ws)
    assert list(orlik_torsion(ws)[0].c) == by_mask(c)


@pytest.mark.parametrize("w, r", [(100, 960_597), (1000, 996_005_997)])
def test_torsion_runs_do_not_scan_r(w, r):
    # the chain is one Z_2 however deep the recursion: its cost must not
    # grow with r
    ws = WeightSystem((2, 2, 2, 2, w), 2 * w)
    sheet, torsion = orlik_torsion(ws)
    assert sheet.r == r
    assert torsion == ((2, 1),)
    assert homology_profile(ws).torsion == ((2, 1),)

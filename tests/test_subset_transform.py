"""The integer bitmask subset transform against the brute-force recursion."""

import random
from fractions import Fraction
from itertools import groupby
from math import lcm, prod

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bhlink import WeightSystem, betti_subset_sum, homology_profile, invariants, orlik_torsion
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


def scaled_k(sheet):
    """D * k of every mask: the inclusion-exclusion sum on the masks of
    parity weight 1, 0 on the others."""
    n1 = len(sheet.terms).bit_length() - 1
    return [
        invariants._inclusion_exclusion(sheet.terms, mask) if (n1 - mask.bit_count()) & 1 else 0
        for mask in range(len(sheet.terms))
    ]


def package_torsion(ws):
    sheet, torsion = orlik_torsion(ws)
    k = [Fraction(scaled, sheet.scale) for scaled in scaled_k(sheet)]
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


# many shared prime powers, so the gcds outside the subsets are deep and the
# closed form g(S) / gcd(g(S), lcm u_S) has something to cancel in every mask
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


@st.composite
def generated_systems(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(5, 8))
    got = None
    while got is None:
        got = random_weight_system(rng, n=n)
    return got[1]


def runs_from_worksheet(sheet):
    """d_j = product of the c > 1 with floor(k) >= j, read at each distinct
    floor: the run ending there has that product and the gap as its length."""
    floors = [(value, k // sheet.scale) for value, k in zip(sheet.c, scaled_k(sheet)) if value > 1]
    levels = sorted({level for _, level in floors if level >= 1})
    return tuple(
        (prod(value for value, floor in floors if floor >= level), level - previous)
        for previous, level in zip([0] + levels, levels)
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ws=generated_systems())
@example(ws=WeightSystem((2, 2, 2, 2, 1000), 2000))
# seven runs, Z_17160^66 + ... + Z_2^2776840197552, r = 34,887,393,709,320
@example(ws=WeightSystem((858, 312, 30030, 312, 15015, 180180, 24, 4004), 720720))
def test_torsion_runs_match_their_own_worksheet(ws):
    # no r cap: the runs the kernel builds from k at the masks with c > 1
    # equal the runs grouped from the full c and k arrays
    sheet, torsion = orlik_torsion(ws)
    assert torsion == runs_from_worksheet(sheet)


def test_the_profile_computes_no_full_k_array(monkeypatch):
    # the profile reads k only where c > 1; the worksheet's r, which reads k
    # at every mask, is computed on first read, which the profile never makes
    sheets = []
    real = invariants.orlik_torsion

    def recording(ws):
        out = real(ws)
        sheets.append(out[0])
        return out

    monkeypatch.setattr(invariants, "orlik_torsion", recording)
    profile = homology_profile(WeightSystem((576, 1399, 82, 256, 576), 2880))
    assert profile.torsion == ((90, 1), (18, 3))
    (sheet,) = sheets
    assert "r" not in vars(sheet)
    assert sheet.r == 4
    assert "r" in vars(sheet)

"""Milnor numbers, Betti numbers, torsion, closed forms, branched covers."""

import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from bhlink import (
    CyclotomicDivisor,
    DiffeoType,
    WeightSystem,
    betti_subset_sum,
    branched_cover,
    homology_profile,
    invariants,
    link_divisor,
    milnor_number,
    orlik_torsion,
)
from bhlink.errors import CrossCheckFailed, NoSplit, NonIntegralExpansion, NonIntegralMilnor
from bhlink.fixture import ROWS

from generators import random_weight_system, theorem_population
from oracles import alpha, beta


def test_milnor_number_examples():
    assert milnor_number(WeightSystem((1, 1, 1, 1, 1), 2)) == 1
    assert milnor_number(WeightSystem((15, 35, 14, 7, 35), 105)) == 2184
    assert milnor_number(WeightSystem((576, 1399, 82, 256, 576), 2880)) == 5924


def test_milnor_number_rejects_non_integral():
    with pytest.raises(NonIntegralMilnor):
        milnor_number(WeightSystem((2, 3, 4, 5, 6), 7))


def test_betti_subset_sum_names_the_system():
    with pytest.raises(NonIntegralMilnor, match=r"-8/513 is not an integer for \(19, 18, 5, 12, 16; d=20\)$"):
        betti_subset_sum(WeightSystem((19, 18, 5, 12, 16), 20))


def b3(ws):
    return homology_profile(ws).b3


def test_betti_examples():
    assert b3(WeightSystem((15, 35, 15, 9, 32), 105)) == 24
    assert b3(WeightSystem((5, 35, 57, 64, 160), 320)) == 36
    assert b3(WeightSystem((73, 73, 95, 45, 80), 365)) == 0


def test_betti_routes_agree_on_random_systems():
    rng = random.Random(9)
    count = 0
    while count < 60:
        got = random_weight_system(rng)
        if got is None:
            continue
        count += 1
        _, ws = got
        assert link_divisor(ws).coefficient_sum() == betti_subset_sum(ws)


def test_orlik_torsion_examples():
    _, torsion = orlik_torsion(WeightSystem((15, 35, 14, 7, 35), 105))
    assert torsion == ((7, 26),)
    _, torsion = orlik_torsion(WeightSystem((576, 1399, 82, 256, 576), 2880))
    assert torsion == ((90, 1), (18, 3))
    _, torsion = orlik_torsion(WeightSystem((13, 13, 125, 100, 75), 325))
    assert torsion == ((13, 24),)


def test_orlik_worksheet_structure():
    # two runs, so the divisibility and order checks below are not vacuous
    ws = WeightSystem((576, 1399, 82, 256, 576), 2880)
    sheet, torsion = orlik_torsion(ws)
    # indexed by bitmask: 2^5 subsets, the empty one first
    assert len(sheet.c) == len(sheet.scaled_k) == 32
    assert sheet.c[0] == gcd(*ws.reduced().u)
    assert all(value >= 1 for value in sheet.c)
    assert all(type(value) is int for value in sheet.c + sheet.scaled_k + (sheet.scale, sheet.r))
    assert sheet.r == 4 == max(sheet.scaled_k) // sheet.scale
    assert torsion == ((90, 1), (18, 3))
    # runs: factors strictly decrease and divide their predecessor, and each
    # multiplicity is at least 1
    for (a, _), (b, _) in zip(torsion, torsion[1:]):
        assert a > b and a % b == 0
    assert all(count >= 1 for _, count in torsion)


def test_profile_runs_do_not_grow_with_the_multiplicity():
    # the dual of a chain-cycle representation of (1^5; 10^7 + 1): one run of
    # 9,999,999 copies, which an expanded tuple would hold in 80 MB or more
    ws = WeightSystem(
        (99999990000001, 99999999999999, 100000010000000, 100000000000000, 100000000000000),
        1000000100000000000000,
    )
    tracemalloc.start()
    try:
        profile = homology_profile(ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile.torsion == ((100000010000000, 1), (10000000, 9999999))
    assert profile.torsion_str() == "Z_100000010000000+Z_10000000^9999999"
    assert peak < 1_000_000


def test_homology_profile_examples():
    p = homology_profile(WeightSystem((219, 365, 420, 200, 260), 1460))
    assert (p.b3, p.torsion, p.mu) == (0, ((73, 1),), 1224)
    p = homology_profile(WeightSystem((1858, 6503, 9597, 315, 1239), 19509))
    assert (p.b3, p.torsion, p.mu) == (0, ((929, 1),), 17632)
    p = homology_profile(WeightSystem((1, 1, 1, 1, 1), 2))
    assert (p.b3, p.torsion, p.mu) == (0, ((2, 1),), 1)


def test_torsion_order_equals_delta_order_for_rhs():
    for w, d in [
        ((15, 35, 14, 7, 35), 105),
        ((13, 13, 125, 100, 75), 325),
        ((177, 295, 270, 370, 70), 1180),
    ]:
        ws = WeightSystem(w, d)
        profile = homology_profile(ws)
        assert profile.b3 == 0
        assert profile.torsion_order() == link_divisor(ws).delta_order_at_one()


def test_alpha_beta_closed_forms():
    ws = WeightSystem((881, 881, 465, 99, 318), 2643)
    split = ws.split()
    assert alpha(split) == 1
    assert beta(split) == 1
    assert homology_profile(ws).torsion == ((881, int(alpha(split)) + 1),)

    ws = WeightSystem((73, 73, 95, 45, 80), 365)
    split = ws.split()
    assert alpha(split) == 3
    assert beta(split) == 1
    assert homology_profile(ws).torsion == ((73, int(alpha(split)) + 1),)


def test_beta_is_one_for_rhs_splits():
    for w in [(65, 650, 1581, 867, 153), (118, 118, 185, 135, 35), (13, 13, 125, 100, 75)]:
        ws = WeightSystem(w, sum(w) - 1)
        assert b3(ws) == 0
        assert beta(ws.split()) == 1


def splits(ws):
    """Every (m2, m3) split of five-variable data, over all groupings."""
    for group3 in combinations(range(5), 2):
        group2 = tuple(i for i in range(5) if i not in group3)
        try:
            yield ws.split((group3, group2))
        except NoSplit:
            pass


def test_beta_is_one_exactly_for_rhs_on_index_one_splits():
    golden = [WeightSystem(row.source, row.source_degree) for row in ROWS]
    golden += [WeightSystem(row.dual, row.dual_degree) for row in ROWS]
    sample = random.Random(12).sample(theorem_population(), 150)
    checked = 0
    for ws in golden + [ws for _, ws in sample]:
        if ws.fano_index() != 1:
            continue
        rhs = b3(ws) == 0
        for split in splits(ws):
            assert (beta(split) == 1) == rhs, (ws, split)
            checked += 1
    assert checked > len(ROWS)  # every golden source has its split


def test_beta_off_index_one_is_not_the_rhs_test():
    ws = WeightSystem((60, 72, 35, 72, 150), 360)
    assert ws.fano_index() != 1
    assert beta(ws.split(((1, 3), (0, 2, 4)))) == Fraction(11, 12)
    assert b3(ws) == 0


def test_coprime_profile_identity_with_positive_betti():
    # the identity mu + 1 = d (b + 1) holds even off the sphere case
    p = homology_profile(WeightSystem((1, 1, 1, 1, 1), 5))
    assert p.b3 == 204
    assert p.mu + 1 == 5 * (p.b3 + 1)


def test_coprime_profile_identity_on_random_coprime_systems():
    rng = random.Random(10)
    count = 0
    while count < 40:
        got = random_weight_system(rng)
        if got is None:
            continue
        _, ws = got
        if any(gcd(ws.degree, w) != 1 for w in ws.weights):
            continue
        count += 1
        p = homology_profile(ws)
        assert p.mu + 1 == ws.degree * (p.b3 + 1)


def test_coprime_profile_precondition():
    # off the coprime domain the identity fails and is not applied
    ws = WeightSystem((15, 35, 14, 7, 35), 105)
    p = homology_profile(ws)
    assert p.mu + 1 != ws.degree * (p.b3 + 1)


@pytest.mark.parametrize("n, d", [(6, 2), (6, 3), (7, 3), (8, 3)])
def test_coprime_identity_sign_follows_the_variable_count(n, d):
    # the divisor is s L_1 + x L_d with s = (-1)^n for n variables
    p = homology_profile(WeightSystem((1,) * n, d))
    s = (-1) ** n
    assert p.mu - s == d * (p.b3 - s)
    assert p.mu + s != d * (p.b3 + s)


def test_coprime_identity_is_checked(monkeypatch):
    # shift mu and the divisor's root count together: only the coprime
    # identity can see the difference
    real_divisor, real_milnor = invariants.link_divisor, invariants.milnor_number
    def shifted_divisor(ws):
        # + L2 - L1: one more root, the coefficient sum unchanged
        terms = real_divisor(ws).terms
        for j, a in ((2, 1), (1, -1)):
            terms[j] = terms.get(j, 0) + a
        return CyclotomicDivisor(terms)

    monkeypatch.setattr(invariants, "link_divisor", shifted_divisor)
    monkeypatch.setattr(invariants, "milnor_number", lambda ws: real_milnor(ws) + 1)
    with pytest.raises(CrossCheckFailed, match="coprime identity"):
        homology_profile(WeightSystem((1, 1, 1, 1, 1), 5))
    # b3 = 24 keeps the torsion check out; gcd(d, w_i) > 1 keeps the identity out
    homology_profile(WeightSystem((15, 35, 15, 9, 32), 105))


def test_branched_cover_kervaire():
    # triple cover of the five-fold A1 quadric: exponents (3,2,2,2,2,2)
    cover, label = branched_cover(WeightSystem((1, 1, 1, 1, 1), 2), 3)
    assert cover == WeightSystem((2, 3, 3, 3, 3, 3), 6)
    assert label is DiffeoType.KERVAIRE
    assert link_divisor(cover).delta_eval(-1) % 8 == 3


def test_branched_cover_double_cover_not_homotopy_sphere():
    cover, label = branched_cover(WeightSystem((1, 1, 1, 1, 1), 2), 2)
    assert cover == WeightSystem((1, 1, 1, 1, 1, 1), 2)
    assert label is DiffeoType.NOT_HOMOTOPY_SPHERE


def test_branched_cover_guard_on_non_spheres():
    # covering a link with b3 > 0 never reaches the mod-8 classification
    _, label = branched_cover(WeightSystem((15, 35, 15, 9, 32), 105), 2)
    assert label is DiffeoType.NOT_HOMOTOPY_SPHERE


def test_branched_cover_standard_sphere_example():
    # 7-fold cover of the A1 five-fold: exponents (7,2,2,2,2,2) give
    # Delta(-1) = 7, congruent to -1 mod 8, hence the standard 9-sphere
    cover, label = branched_cover(WeightSystem((1, 1, 1, 1, 1), 2), 7)
    assert cover == WeightSystem((2, 7, 7, 7, 7, 7), 14)
    assert link_divisor(cover).delta_eval(-1) == 7
    assert label is DiffeoType.STANDARD


def test_six_variable_profile_with_torsion():
    # classical nine-dimensional example: exponents (3,3,3,2,2,2) give a
    # rational homology sphere with H = Z_2 + Z_2 and mu = 8
    ws = WeightSystem((2, 2, 2, 3, 3, 3), 6)
    profile = homology_profile(ws)
    assert (profile.b3, profile.torsion, profile.mu) == (0, ((2, 2),), 8)
    divisor = link_divisor(ws)
    assert divisor.delta_order_at_one() == 4

    from fractions import Fraction as F

    from oracles import characteristic_polynomial, poly_eval

    poly = characteristic_polynomial(divisor)
    # Delta has no root at 1 and |Delta(1)| equals the torsion order
    assert abs(poly_eval(poly, F(1))) == 4
    assert len(poly) - 1 == 8


def test_milnor_equals_root_count_on_random_systems():
    rng = random.Random(11)
    count = 0
    while count < 60:
        got = random_weight_system(rng)
        if got is None:
            continue
        count += 1
        _, ws = got
        assert milnor_number(ws) == link_divisor(ws).root_count()


def test_memoized_profiles_equal_fresh_ones_under_permutations(monkeypatch):
    # inside a scope each distinct (sorted weights, degree) runs the kernel
    # once, and every order reads the profile a fresh computation gives
    rng = random.Random(5)
    systems = [
        WeightSystem(tuple(rng.sample(row.source, 5)), row.source_degree)
        for row in ROWS[:25]
        for _ in range(3)
    ]
    kernel_runs = []
    real = invariants.orlik_torsion
    monkeypatch.setattr(invariants, "orlik_torsion", lambda ws: kernel_runs.append(ws) or real(ws))
    with invariants._profile_memo():
        memoized = [homology_profile(ws) for ws in systems]
    distinct = len({(tuple(sorted(ws.weights)), ws.degree) for ws in systems})
    assert len(kernel_runs) == distinct < len(systems)
    # outside a scope every call runs the kernel
    assert memoized == [homology_profile(ws) for ws in systems]
    assert len(kernel_runs) == distinct + len(systems)


def test_profile_memo_lives_for_one_scope():
    assert invariants._MEMO.get() is None
    with invariants._profile_memo():
        outer = invariants._MEMO.get()
        homology_profile(WeightSystem((15, 35, 14, 7, 35), 105))
        with invariants._profile_memo():
            assert invariants._MEMO.get() is outer
        assert len(outer) == 1
    assert invariants._MEMO.get() is None


def test_a_failing_profile_is_not_memoized():
    # each order's error names that order, so neither may come from a memo
    with invariants._profile_memo():
        for weights in ((19, 18, 5, 12, 16), (16, 12, 5, 18, 19)):
            ws = WeightSystem(weights, 20)
            with pytest.raises(NonIntegralExpansion, match=f"link divisor of {re.escape(str(ws))}"):
                homology_profile(ws)
        assert invariants._MEMO.get() == {}


def test_profile_memo_is_bounded(monkeypatch):
    # past the bound the oldest entry makes room
    monkeypatch.setattr(invariants, "_MEMO_SIZE", 2)
    with invariants._profile_memo():
        for degree in (2, 3, 4):
            homology_profile(WeightSystem((1, 1, 1, 1, 1), degree))
        assert list(invariants._MEMO.get()) == [((1, 1, 1, 1, 1), 3), ((1, 1, 1, 1, 1), 4)]

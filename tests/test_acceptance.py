"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test finishes by printing a single pass line so a full run reads as a
checklist.  Population sizes follow the stated minimums (1000 random
instances for the twin-preservation and oracle-equivalence suites).
"""

import random
import time
from math import gcd

from bhlink import (
    Verdict,
    WeightSystem,
    bh_dual,
    betti_subset_sum,
    chain_cycle_closed_forms,
    classify,
    enumerate_representations,
    find_chain_cycle,
    homology_profile,
    is_twin,
    link_divisor,
    milnor_number,
    orlik_torsion,
    se_certificate,
    solve_weights,
    swap_twin,
)
from bhlink.cli import verify_row
from bhlink.fixture import ROWS
from bhlink.invariants import DiffeoType, branched_cover
from bhlink.polynomial import BlockKind

from generators import random_weight_system, theorem_population
from oracles import exponent_of

CYCLE_LABELS = ("Cycle", "BP-Cycle", "Cycle-Cycle")

_population_cache: dict[str, list] = {}


def twin_population():
    """>= 1000 distinct instances satisfying the twin-theorem hypotheses."""
    if "pop" not in _population_cache:
        _population_cache["pop"] = theorem_population(minimum=1010)
    pop = _population_cache["pop"]
    assert len(pop) >= 1000
    return pop


def test_criterion_1_golden_table():
    start = time.time()
    failures = []
    for row in ROWS:
        ok, detail = verify_row(row)
        if not ok:
            failures.append((row.source, detail))
    elapsed = time.time() - start
    assert not failures, failures
    assert len(ROWS) == 75
    assert elapsed < 30.0
    print(f"\nPASS criterion 1: golden table 75/75 in {elapsed:.2f}s")


def test_criterion_2_named_examples():
    # (15,35,15,9,32): 24-fold connected sum with a new dual sphere
    ws = WeightSystem((15, 35, 15, 9, 32), 105)
    assert homology_profile(ws).b3 == 24
    bp_chain = [p for p in enumerate_representations(ws) if classify(p) == "BP-Chain"]
    _, dual = bh_dual(bp_chain[0])
    assert dual == WeightSystem((15, 35, 14, 7, 35), 105)
    dual_profile = homology_profile(dual)
    assert dual_profile.torsion == ((7, 26),)
    assert dual_profile.mu == 2184

    # (5,35,57,64,160) reordered: 36-fold sum, dual with layered torsion
    assert homology_profile(WeightSystem((5, 35, 57, 64, 160), 320)).b3 == 36
    reordered = WeightSystem((64, 160, 5, 35, 57), 320)
    bp_chain = [
        p for p in enumerate_representations(reordered) if classify(p) == "BP-Chain"
    ]
    duals = {bh_dual(p)[1] for p in bp_chain}
    target = WeightSystem((576, 1399, 82, 256, 576), 2880)
    assert target in duals
    dual_profile = homology_profile(target)
    assert dual_profile.torsion == ((90, 1), (18, 3))
    assert dual_profile.mu == 5924

    # (13,13,125,100,75): chain-cycle dual fails the index inequality
    ws = WeightSystem((13, 13, 125, 100, 75), 325)
    assert homology_profile(ws).torsion == ((13, 24),)
    _, dual = bh_dual(find_chain_cycle(ws))
    assert sorted(dual.weights) == sorted((299, 325, 2400, 3000, 1800))
    assert dual.degree == 7800
    assert homology_profile(dual).torsion == ((13, 1),)
    assert se_certificate(dual).verdict is Verdict.POSITIVE_RICCI_ONLY

    # (929,...): twin pair, both duals Einstein-certified
    ws = WeightSystem((929, 1858, 2849, 63, 805), 6503)
    poly = find_chain_cycle(ws)
    twin_poly, twin_ws = swap_twin(poly)
    assert sorted(twin_ws.weights) == sorted((929, 1858, 3199, 413, 105))
    assert twin_ws.degree == 6503
    assert is_twin(homology_profile(ws), homology_profile(twin_ws))
    for p in (poly, twin_poly):
        _, dws = bh_dual(p)
        profile = homology_profile(dws)
        assert (profile.b3, profile.torsion, profile.mu) == (0, ((929, 1),), 17632)
        assert se_certificate(dws).verdict is Verdict.SASAKI_EINSTEIN
    print("\nPASS criterion 2: named example suite")


def test_criterion_3_twin_preservation():
    checked = 0
    # every cycle-flavored representation of the fixture rows
    for row in ROWS:
        ws = WeightSystem(row.source, row.source_degree)
        source_profile = homology_profile(ws)
        for poly in enumerate_representations(ws):
            if classify(poly) not in CYCLE_LABELS:
                continue
            _, dual_ws = bh_dual(poly)
            assert is_twin(source_profile, homology_profile(dual_ws)), (row.source, str(poly))
            checked += 1
    fixture_checked = checked

    # >= 1000 random instances satisfying the theorem hypotheses
    for poly, ws in twin_population():
        assert betti_subset_sum(ws) == 0
        source_profile = homology_profile(ws)
        _, dual_ws = bh_dual(poly)
        assert is_twin(source_profile, homology_profile(dual_ws)), (ws, str(poly))
        checked += 1
    assert checked - fixture_checked >= 1000
    print(
        f"\nPASS criterion 3: twin preservation on {fixture_checked} fixture "
        f"representations + {checked - fixture_checked} random instances"
    )


def test_criterion_4_wellformedness_preservation():
    checked = 0
    for poly, ws in twin_population():
        if not ws.wellformedness()[1]:
            continue
        _, dual_ws = bh_dual(poly)
        assert dual_ws.wellformedness()[1], (ws, str(poly))
        checked += 1
    assert checked >= 1000

    # chain-cycle duality may leave well-formedness behind
    ws = WeightSystem((881, 881, 465, 99, 318), 2643)
    assert ws.wellformedness() == (True, True)
    _, dual_ws = bh_dual(find_chain_cycle(ws))
    assert sorted(dual_ws.weights) == sorted((881, 2643, 1014, 216, 534))
    assert dual_ws.degree == 5286
    assert dual_ws.wellformedness() == (False, False)
    print(f"\nPASS criterion 4: well-formedness preserved on {checked} instances")


def _oracle_equivalent(ws: WeightSystem):
    divisor = link_divisor(ws)
    assert divisor.coefficient_sum() == betti_subset_sum(ws)
    assert milnor_number(ws) == divisor.root_count()
    if divisor.coefficient_sum() == 0:
        _, torsion = orlik_torsion(ws)
        order = 1
        for factor, count in torsion:
            order *= factor**count
        assert order == divisor.delta_order_at_one()


def test_criterion_5_oracle_equivalence():
    for row in ROWS:
        _oracle_equivalent(WeightSystem(row.source, row.source_degree))
        _oracle_equivalent(WeightSystem(row.dual, row.dual_degree))
    rng = random.Random(77)
    seen = set()
    while len(seen) < 1000:
        got = random_weight_system(rng, max_weight=50)
        if got is None:
            continue
        _, ws = got
        if ws in seen:
            continue
        seen.add(ws)
        _oracle_equivalent(ws)
    print(
        f"\nPASS criterion 5: oracle equivalence on {2 * len(ROWS)} fixture systems "
        f"+ {len(seen)} random systems (weights <= 50)"
    )


def test_criterion_6_closed_forms():
    trichotomy = set()
    for row in ROWS:
        ws = WeightSystem(row.source, row.source_degree)
        poly = find_chain_cycle(ws)
        chain = next(b for b in poly.blocks if b.kind is BlockKind.CHAIN)
        cycle = next(b for b in poly.blocks if b.kind is BlockKind.CYCLE)
        split = ws.split((chain.variables, tuple(sorted(cycle.variables))))
        prediction = chain_cycle_closed_forms(poly, ws)
        _, dual_ws = bh_dual(poly)
        profile = homology_profile(dual_ws)
        assert sorted(prediction.weights) == sorted(dual_ws.weights)
        assert prediction.degree == dual_ws.degree
        assert prediction.mu == profile.mu
        assert prediction.torsion == profile.torsion

        tail = chain.variables[1] if split.v[chain.variables[0]] == 1 else chain.variables[0]
        g = gcd(exponent_of(poly, tail), split.m3)
        trichotomy.add(1 if g == 1 else 2 if g == 2 else 3)
    assert trichotomy == {1, 2, 3}
    # the three torsion shapes are all exercised, e.g. Z_3315 + Z_51^3
    row = next(r for r in ROWS if r.source == (65, 650, 1581, 867, 153))
    assert row.dual_torsion == ((3315, 1), (51, 3))
    print("\nPASS criterion 6: closed forms match the pipeline on all 75 rows, "
          "torsion trichotomy classes {1, 2, >2} all present")


def test_criterion_7_involution():
    reps = 0
    for row in ROWS:
        ws = WeightSystem(row.source, row.source_degree)
        for poly in enumerate_representations(ws):
            assert poly.transpose().transpose() == poly
            assert solve_weights(poly.transpose().transpose()) == ws
            reps += 1
    print(f"\nPASS criterion 7: double transpose is the identity on {reps} "
          f"fixture representations")


def test_criterion_8_branched_cover():
    cover, label = branched_cover(WeightSystem((1, 1, 1, 1, 1), 2), 3)
    assert cover == WeightSystem((2, 3, 3, 3, 3, 3), 6)
    divisor = link_divisor(cover)
    assert divisor.coefficient_sum() == 0
    assert divisor.delta_order_at_one() == 1
    value = divisor.delta_eval(-1)
    assert value == 3 and value % 8 == 3
    assert label is DiffeoType.KERVAIRE
    print("\nPASS criterion 8: (3,2,2,2,2,2) cover has Delta(-1) = 3 mod 8, Kervaire")

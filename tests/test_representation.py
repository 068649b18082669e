"""Exhaustive enumeration of invertible representations of weight data."""

import pytest

from bhlink import (
    WeightSystem,
    bh_dual,
    classify,
    enumerate_representations,
    find_chain_cycle,
    homology_profile,
    is_twin,
    solve_weights,
    swap_twin,
)
from bhlink.errors import NoRepresentation
from bhlink.polynomial import BlockKind


def _exponents(poly):
    return tuple(poly.exponent_of(i) for i in range(poly.n_vars))


def test_enumerate_13_13_125_100_75():
    ws = WeightSystem((13, 13, 125, 100, 75), 325)
    reps = enumerate_representations(ws)
    labels = sorted(classify(p) for p in reps)
    assert "BP-Cycle" in labels
    assert "Chain-Cycle" in labels
    assert "Cycle-Cycle" in labels
    rendered = {str(p) for p in reps}
    assert "z0^25 + z1^25 + z4*z2^2 + z2*z3^2 + z3*z4^3" in rendered
    assert "z0^25 + z0*z1^24 + z4*z2^2 + z2*z3^2 + z3*z4^3" in rendered
    assert "z1*z0^24 + z0*z1^24 + z4*z2^2 + z2*z3^2 + z3*z4^3" in rendered


def test_enumerate_fermat_quintic():
    reps = enumerate_representations(WeightSystem((1, 1, 1, 1, 1), 5))
    assert any(
        classify(p) == "BP" and _exponents(p) == (5, 5, 5, 5, 5) for p in reps
    )


def test_enumerate_contains_chain_cycle_881():
    reps = enumerate_representations(WeightSystem((881, 881, 465, 99, 318), 2643))
    assert any(
        classify(p) == "Chain-Cycle"
        and _exponents(p) == (3, 2, 5, 22, 8)
        for p in reps
    )


def test_enumerate_weight_consistency_and_determinism():
    ws = WeightSystem((13, 13, 125, 100, 75), 325)
    reps = enumerate_representations(ws)
    assert reps == enumerate_representations(ws)
    assert len(set(reps)) == len(reps)
    for poly in reps:
        for row in poly.exponent_matrix():
            assert sum(a * w for a, w in zip(row, ws.weights)) == ws.degree
        assert solve_weights(poly) == ws


def test_enumerate_discovers_octuplet_cycle():
    # cycle data listed without exponents or variable order; the search must
    # find an ordering, and its dual is the missing octuplet partner
    ws = WeightSystem((157, 545, 1051, 1401, 2608), 5761)
    reps = enumerate_representations(ws)
    cycles = [p for p in reps if classify(p) == "Cycle"]
    assert cycles
    _, dual_ws = bh_dual(cycles[0])
    assert sorted(dual_ws.weights) == sorted((148, 477, 1871, 1321, 1945))
    assert dual_ws.degree == 5761
    assert is_twin(homology_profile(ws), homology_profile(dual_ws))


def test_find_chain_cycle_929():
    poly = find_chain_cycle(WeightSystem((929, 1858, 2849, 63, 805), 6503))
    assert _exponents(poly) == (7, 3, 2, 58, 8)
    assert classify(poly) == "Chain-Cycle"


def test_find_chain_cycle_13_143():
    poly = find_chain_cycle(WeightSystem((13, 143, 775, 620, 465), 2015))
    assert _exponents(poly) == (155, 14, 2, 2, 3)
    assert str(poly) == "z0^155 + z0*z1^14 + z4*z2^2 + z2*z3^2 + z3*z4^3"


def test_find_chain_cycle_rejects_bp_chain_data():
    with pytest.raises(NoRepresentation):
        find_chain_cycle(WeightSystem((15, 35, 15, 9, 32), 105))


def test_enumeration_closed_under_twin_swap():
    # swapping two distinct cycle exponents lands on data whose enumeration
    # contains the swapped polynomial
    source = find_chain_cycle(WeightSystem((929, 1858, 2849, 63, 805), 6503))
    swapped, swapped_ws = swap_twin(source)
    reps = enumerate_representations(swapped_ws)
    assert swapped in reps

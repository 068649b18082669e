"""The per-block integer weight solve against Gauss-Jordan over Fraction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhlink import WeightSystem, enumerate_representations, solve_weights, weights
from bhlink.errors import BhlinkError, CrossCheckFailed, NonPositiveWeights, SingularSystem
from bhlink.fixture import ROWS
from bhlink.polynomial import Block, BlockKind, InvertiblePolynomial

from generators import random_weight_system, theorem_population
from oracles import exponent_matrix, oracle_solve_weights
from test_polynomial import chain_cycle_881


def outcome(fn, poly):
    """The weight system, or the error type and message."""
    try:
        return fn(poly)
    except BhlinkError as exc:
        return type(exc), str(exc)


@st.composite
def block_polynomials(draw):
    """Any block polynomial on 2-8 variables, valid or not: exponents 1 give
    rays with zero or negative entries, even cycles are drawn with all ones
    on the even or the odd positions often enough to be singular, and one
    draw in four admits exponents down to -2 (a negative determinant)."""
    n = draw(st.integers(2, 8))
    low = draw(st.sampled_from([1, 1, 1, -2]))
    order = draw(st.permutations(range(n)))
    blocks, i = [], 0
    while i < n:
        size = draw(st.integers(1, min(4, n - i)))
        cell, i = tuple(order[i : i + size]), i + size
        exps = draw(st.lists(st.integers(low, 6), min_size=size, max_size=size))
        if size == 1:
            blocks.append(Block(BlockKind.FERMAT, cell, tuple(exps)))
        elif draw(st.booleans()):
            blocks.append(Block(BlockKind.CHAIN, cell, tuple(exps)))
        else:
            if size % 2 == 0 and draw(st.booleans()):
                exps[draw(st.integers(0, 1)) :: 2] = [1] * (size // 2)
            blocks.append(Block(BlockKind.CYCLE, cell, tuple(exps)))
    return InvertiblePolynomial(n, tuple(blocks))


@settings(max_examples=400, deadline=None)
@given(poly=block_polynomials())
def test_solve_matches_fraction_oracle(poly):
    assert outcome(solve_weights, poly) == outcome(oracle_solve_weights, poly)


CYCLE, CHAIN, FERMAT = BlockKind.CYCLE, BlockKind.CHAIN, BlockKind.FERMAT
NAMED = {
    # D = 0 * 0 - 1 = -1: nonsingular, though a step dividing by some a_j would fail
    "2-cycle (0, 0)": (
        InvertiblePolynomial(2, (Block(CYCLE, (0, 1), (0, 0)),)),
        (NonPositiveWeights, "every weight must be smaller than the degree: (1, 1), d=1"),
    ),
    # all ones on a 4-cycle: D = 1 - 1 = 0, behind a nonsingular Fermat block
    "degenerate 4-cycle": (
        InvertiblePolynomial(5, (Block(FERMAT, (0,), (3,)), Block(CYCLE, (1, 2, 3, 4), (1,) * 4))),
        (SingularSystem, "exponent matrix is singular"),
    ),
    # x = (1/2, 1, (1 - 1) / 1) puts a 0 in the ray
    "chain with tail exponent 1": (
        InvertiblePolynomial(3, (Block(FERMAT, (0,), (2,)), Block(CHAIN, (1, 2), (1, 1)))),
        (NonPositiveWeights, "weight ray [1, 2, 0] has a non-positive entry"),
    ),
    # an all-zero row of A
    "variable in no block": (
        InvertiblePolynomial(3, (Block(FERMAT, (0,), (2,)), Block(FERMAT, (2,), (3,)))),
        (SingularSystem, "exponent matrix is singular"),
    ),
    # D = 2^4 3^3 4 - 1 = 1727
    "8-cycle": (
        InvertiblePolynomial(8, (Block(CYCLE, tuple(range(8)), (2, 3, 2, 3, 2, 3, 2, 4)),)),
        WeightSystem((691, 345, 692, 343, 698, 331, 734, 259), 1727),
    ),
    "chain-cycle 881": (chain_cycle_881(), WeightSystem((881, 881, 465, 99, 318), 2643)),
    "chain-cycle 881 transposed": (
        chain_cycle_881().transpose(),
        WeightSystem((881, 2643, 1014, 216, 534), 5286),
    ),
}


@pytest.mark.parametrize("name", NAMED)
def test_named_block_solves(name):
    poly, expected = NAMED[name]
    assert outcome(solve_weights, poly) == outcome(oracle_solve_weights, poly) == expected


def test_wrong_block_ray_fails_the_substitution_check(monkeypatch):
    real = weights._block_ray

    def wrong(block):
        nums, den = real(block)
        return [2 * nums[0]] + nums[1:], den

    monkeypatch.setattr(weights, "_block_ray", wrong)
    for poly in (chain_cycle_881(), chain_cycle_881().transpose()):
        with pytest.raises(CrossCheckFailed):
            solve_weights(poly)


def _corpus_systems():
    """The benchmark corpora at seed 1, in unpermuted coordinates: the golden
    sources, the 925 survey draws and the 425-instance duals sample."""
    systems = [WeightSystem(row.source, row.source_degree) for row in ROWS]
    draws, drawn = random.Random(1), 0
    while drawn < 925:
        found = random_weight_system(draws)
        if found is not None:
            systems.append(found[1])
            drawn += 1
    systems += [ws for _, ws in random.Random(1).sample(theorem_population(), 425)]
    return list(dict.fromkeys(systems))


def test_solve_matches_fraction_oracle_on_corpus_duals():
    outcomes = set()
    for ws in _corpus_systems():
        for poly in enumerate_representations(ws):
            dual = poly.transpose()
            assert exponent_matrix(dual) == [list(c) for c in zip(*exponent_matrix(poly))]
            got = outcome(solve_weights, dual)
            assert got == outcome(oracle_solve_weights, dual)
            outcomes.add(type(got) if isinstance(got, tuple) else WeightSystem)
    # the corpora reach both the solved and the refused branch
    assert len(outcomes) > 1

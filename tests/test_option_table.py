"""The option-table count and walk against the permutation-scan oracle."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bhlink import (
    WeightSystem,
    cli,
    enumerate_representations,
    find_chain_cycle,
    has_invertible_representation,
)
from bhlink.errors import CrossCheckFailed, NoRepresentation
from bhlink.polynomial import Block, InvertiblePolynomial
from bhlink.representation import (
    _KINDS,
    _canonical_key,
    _option_table,
    count_representations,
    iter_representations,
)

from generators import random_weight_system
from oracles import _block_options, oracle_chain_cycle, oracle_representations

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


def table_blocks(ws):
    """The raw-field option table as Blocks by cell bitmask, checking that
    each entry sits under its own key and its mask covers its variables."""
    groups, _ = _option_table(ws)
    n, blocks = ws.n_vars, {}
    for key, group in groups.items():
        for variables, exponents, mask in group:
            block = Block(_KINDS[key // n], variables, exponents)
            rank, first = block._sort_key()
            assert key == rank * n + first
            assert mask == sum(1 << v for v in variables)
            blocks.setdefault(mask, []).append(block)
    return blocks


def chain_cycle_outcome(fn, arg):
    try:
        return fn(arg)
    except NoRepresentation:
        return NoRepresentation


def assert_matches_oracle(ws):
    expected = oracle_representations(ws)
    reps = enumerate_representations(ws)
    assert reps == expected
    # the walk yields in canonical order, so enumeration needs no sort
    assert list(iter_representations(ws)) == sorted(expected, key=_canonical_key)
    assert count_representations(ws) == len(expected)
    # the walk never yields a polynomial twice, so enumeration needs no set
    assert len(reps) == len(set(reps))
    # every block once: a cycle is not listed again under another rotation
    assert all(len(set(options)) == len(options) for options in table_blocks(ws).values())
    assert has_invertible_representation(ws) == bool(expected)
    choice = chain_cycle_outcome(oracle_chain_cycle, ws)
    assert chain_cycle_outcome(find_chain_cycle, ws) == choice


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


# singular even cycles beside valid shapes: w_i + w_j = d gives a 2-cycle
# with exponents 1, 1, which validate() rejects as EvenCycleDegenerate
SINGULAR_2_CYCLES = [((11, 24, 4, 22, 20), 44), ((147, 35, 26, 26, 7), 182), ((21, 7, 4, 4, 12), 28)]


def test_existence_check_validates_no_polynomial(monkeypatch):
    # existence reads the count, so it builds and validates no polynomial
    calls = []
    validate = InvertiblePolynomial.validate
    monkeypatch.setattr(
        InvertiblePolynomial, "validate", lambda self: calls.append(self) or validate(self)
    )
    for weights, degree in SINGULAR_2_CYCLES:
        assert has_invertible_representation(WeightSystem(weights, degree))
    assert calls == []


@pytest.mark.parametrize(
    "n, degree, count",
    [(5, 3, 780), (5, 4, 780), (5, 5, 780), (6, 3, 6_600), (7, 3, 63_840), (8, 3, 693_840)],
)
def test_all_equal_counts(n, degree, count):
    ws = WeightSystem((1,) * n, degree)
    assert count_representations(ws) == count
    if n <= 6:
        assert len(enumerate_representations(ws)) == count


def unchecked_system(weights, degree):
    """A WeightSystem that skips the constructor's checks."""
    ws = object.__new__(WeightSystem)
    object.__setattr__(ws, "weights", weights)
    object.__setattr__(ws, "degree", degree)
    return ws


def block_violations(block):
    """validate() on the block alone, its variables relabelled 0..k-1 in order."""
    labels = {v: i for i, v in enumerate(sorted(block.variables))}
    alone = Block(block.kind, tuple(labels[v] for v in block.variables), block.exponents)
    return InvertiblePolynomial(len(labels), (alone,)).validate()


def system_id(weights, degree):
    """The case name of the input, before WeightSystem divides out the joint gcd."""
    return f"({', '.join(map(str, weights))}; d={degree})"


@pytest.mark.parametrize(
    "ws",
    [pytest.param(WeightSystem(w, d), id=system_id(w, d)) for w, d in NAMED + SINGULAR_2_CYCLES]
    # weights equal to d step to every variable with exponent 0 (and close
    # 3-cycles of them), a weight above d with a negative one; the
    # constructor rejects both, the table does not rely on that
    + [
        pytest.param(unchecked_system(w, d), id=system_id(w, d))
        for w, d in (((1, 1, 2, 2, 2), 2), ((1, 1, 2, 2, 4), 2))
    ],
)
def test_table_holds_exactly_the_valid_blocks(ws):
    table = table_blocks(ws)
    for mask in range(1, 1 << ws.n_vars):
        cell = [v for v in range(ws.n_vars) if mask >> v & 1]
        valid = [b for b in _block_options(cell, ws) if not block_violations(b)]
        assert sorted(table.get(mask, []), key=repr) == sorted(valid, key=repr)
    assert all(not block_violations(b) for options in table.values() for b in options)


def constructions(monkeypatch, cls):
    """The instances of a frozen dataclass built while the patch is on."""
    built = []
    post_init = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(self) or post_init(self))
    return built


@pytest.mark.parametrize(
    "weights, degree",
    [pytest.param(w, d, id=system_id(w, d)) for w, d in NAMED + SINGULAR_2_CYCLES + [((1,) * 7, 3)]],
)
def test_counting_builds_no_block(monkeypatch, weights, degree):
    ws = WeightSystem(weights, degree)
    expected = count_representations(ws)
    # a fresh table: the walk that fills it builds nothing either
    _option_table.cache_clear()
    blocks = constructions(monkeypatch, Block)
    polys = constructions(monkeypatch, InvertiblePolynomial)
    assert count_representations(ws) == expected
    assert has_invertible_representation(ws) == bool(expected)
    assert blocks == polys == []


@pytest.mark.parametrize(
    "weights, degree", [pytest.param(w, d, id=system_id(w, d)) for w, d in NAMED if len(w) == 5]
)
def test_chain_cycle_search_builds_blocks_on_its_two_cells_only(monkeypatch, weights, degree):
    ws = WeightSystem(weights, degree)
    _option_table.cache_clear()
    blocks = constructions(monkeypatch, Block)
    found = chain_cycle_outcome(find_chain_cycle, ws)
    assert {frozenset(block.variables) for block in blocks} <= {frozenset({0, 1}), frozenset({2, 3, 4})}
    # every candidate chain and cycle, and no block of any other cell
    if found is not NoRepresentation:
        assert set(found.blocks) <= set(blocks)


def test_pipeline_command_builds_one_table():
    # pipeline() counts for its budget and the source record counts again:
    # both read the count of the one table built for the system
    _option_table.cache_clear()
    assert cli.main(["pipeline", "-w", "1,1,1,1,1", "-d", "3"]) == 0
    assert _option_table.cache_info().misses == 1


def test_walk_validates_what_it_yields(monkeypatch):
    # the in-walk validity rules and validate() are two routes: a
    # disagreement is a failed cross-check, not a silent skip
    monkeypatch.setattr(InvertiblePolynomial, "validate", lambda self: ["Injected"])
    with pytest.raises(CrossCheckFailed, match="Injected"):
        next(iter_representations(WeightSystem((1,) * 5, 3)))

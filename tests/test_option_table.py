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
    representation,
)
from bhlink.duality import checked_dual
from bhlink.errors import CrossCheckFailed, NonPositiveWeights, NoRepresentation
from bhlink.fixture import ROWS
from bhlink.polynomial import Block, BlockKind, InvertiblePolynomial
from bhlink.representation import (
    _KINDS,
    _chain_cycle,
    _option_table,
    count_representations,
    iter_representations,
)

from generators import random_weight_system
from oracles import _block_options, _key, oracle_chain_cycle, oracle_representations

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
    entries, slots, _ = _option_table(ws)
    n, blocks = ws.n_vars, {}
    for key, _, _, kind, (group, _) in entries:
        for mask, _, variables, exponents in group:
            block = Block(kind, variables, exponents)
            rank, first = block._sort_key()
            assert kind is _KINDS[key // n]
            assert key == rank * n + first
            assert mask == sum(1 << v for v in variables)
            blocks.setdefault(mask, []).append(block)
    # every entry has its own slot
    assert sorted(slot for *_, (group, _) in entries for _, slot, _, _ in group) == list(range(slots))
    return blocks


def chain_cycle_outcome(fn, arg):
    try:
        return fn(arg)
    except NoRepresentation:
        return NoRepresentation


def assert_batch_pick_agrees(ws):
    """The batch row's pick returns find_chain_cycle's polynomial, and None
    exactly where find_chain_cycle raises."""
    found = chain_cycle_outcome(find_chain_cycle, ws)
    assert _chain_cycle(ws) == (None if found is NoRepresentation else found)
    return found


def assert_matches_oracle(ws):
    expected = oracle_representations(ws)
    reps = enumerate_representations(ws)
    assert reps == expected
    # the walk yields in canonical order, so enumeration needs no sort
    assert list(iter_representations(ws)) == sorted(expected, key=_key)
    assert count_representations(ws) == len(expected)
    # the walk never yields a polynomial twice, so enumeration needs no set
    assert len(reps) == len(set(reps))
    # every block once: a cycle is not listed again under another rotation
    assert all(len(set(options)) == len(options) for options in table_blocks(ws).values())
    assert has_invertible_representation(ws) == bool(expected)
    choice = chain_cycle_outcome(oracle_chain_cycle, ws)
    assert assert_batch_pick_agrees(ws) == choice


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
    # existence searches partner maps, so it builds and validates no polynomial
    calls = []
    validate = InvertiblePolynomial.validate
    monkeypatch.setattr(
        InvertiblePolynomial, "validate", lambda self: calls.append(self) or validate(self)
    )
    for weights, degree in SINGULAR_2_CYCLES:
        assert has_invertible_representation(WeightSystem(weights, degree))
    assert calls == []


def test_existence_search_places_the_fewest_options_first(monkeypatch):
    # x_7 of (1,1,1,1,1,1,1,4; 10) is no head and may pick no partner, so the
    # search placing it first stops at once; in index order it would place
    # x_0..x_6 in every way first, 265,561 _place calls
    calls = []
    place = representation._place
    monkeypatch.setattr(representation, "_place", lambda *args: calls.append(args) or place(*args))
    assert not has_invertible_representation(WeightSystem((1, 1, 1, 1, 1, 1, 1, 4), 10))
    assert len(calls) <= 1


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
    # the pick reads raw fields: only the winner's chain and cycle are built
    assert blocks == ([] if found is NoRepresentation else list(found.blocks))


# data whose every partner map holds a degenerate even cycle, though each
# variable may be a head or pick a partner: no representation.  A search
# without the degeneracy test, or one that lets two variables pick the same
# partner, answers yes on some of them: in (1,5,4,3,2; 7), x_4 may take x_0
# (taken by x_3), x_3 (taken by x_2) or x_1 (a degenerate 2-cycle)
DEGENERATE_ONLY = [
    ((1, 5, 4, 3, 2), 7),
    ((12, 11, 9, 8, 4), 20),
    ((3, 2, 4, 1, 4, 1), 5),
    ((2, 5, 1, 6, 3, 4, 1), 7),
    ((1, 4, 1, 4, 3, 2, 2, 3), 5),
    ((2, 2, 2, 2, 3, 3, 3, 3), 5),
]


def assert_existence_matches(ws):
    """The partner-map search, the table count and the permutation-scan
    oracle agree on whether the data has a representation."""
    found = has_invertible_representation(ws)
    assert found == (count_representations(ws) > 0) == bool(oracle_representations(ws))
    return found


@pytest.mark.parametrize(
    "ws",
    # assert_matches_oracle checks the named systems
    [pytest.param(WeightSystem(w, d), id=system_id(w, d)) for w, d in SINGULAR_2_CYCLES + DEGENERATE_ONLY]
    + [
        pytest.param(unchecked_system(w, d), id=system_id(w, d))
        for w, d in (((1, 1, 2, 2, 2), 2), ((1, 1, 2, 2, 4), 2))
    ],
)
def test_existence_search_matches_count_and_oracle(ws):
    found = assert_existence_matches(ws)
    if (ws.weights, ws.degree) in DEGENERATE_ONLY:
        assert not found


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(weights=st.lists(st.integers(1, 12), min_size=5, max_size=8), data=st.data())
def test_existence_search_and_chain_cycle_pick_on_random_weights(weights, data):
    # uniformly random data: most of it has no representation
    ws = WeightSystem(weights, data.draw(st.integers(max(weights) + 1, 36)))
    assert_existence_matches(ws)
    assert assert_batch_pick_agrees(ws) == chain_cycle_outcome(oracle_chain_cycle, ws)


def test_chain_cycle_pick_on_golden_sources():
    for row in ROWS:
        ws = WeightSystem(row.source, row.source_degree)
        assert find_chain_cycle(ws) == oracle_chain_cycle(ws), row.source
        assert_batch_pick_agrees(ws)


def test_chain_cycle_pick_orientation():
    # w_3 = w_4, so both 3-cycles on (2, 3, 4) are valid and give x_2 the
    # same exponent; (2, 4, 3) gives x_3 exponent 1 and x_4 exponent 3,
    # (2, 3, 4) the reverse, so the per-variable tuple (1, 1, 3) < (1, 3, 1)
    # picks (2, 4, 3)
    ws = WeightSystem((4, 2, 9, 3, 3), 12)
    expected = InvertiblePolynomial(
        5, (Block(BlockKind.CHAIN, (0, 1), (3, 4)), Block(BlockKind.CYCLE, (2, 4, 3), (1, 3, 1)))
    )
    assert find_chain_cycle(ws) == _chain_cycle(ws) == oracle_chain_cycle(ws) == expected
    assert str(expected) == "z0^3 + z0*z1^4 + z4*z2 + z2*z3 + z3*z4^3"


def test_chain_cycle_refusal_texts():
    # the batch row's pick returns None on both; find_chain_cycle keeps its texts
    bp_chain = WeightSystem((15, 35, 15, 9, 32), 105)
    with pytest.raises(NoRepresentation) as miss:
        find_chain_cycle(bp_chain)
    assert str(miss.value) == "no chain-cycle representation for (15, 35, 15, 9, 32; d=105)"
    six = WeightSystem((12, 12, 14, 21, 21, 24), 84)
    with pytest.raises(NoRepresentation) as wide:
        find_chain_cycle(six)
    assert str(wide.value) == "chain-cycle search expects a five-variable system"
    assert _chain_cycle(bp_chain) is _chain_cycle(six) is None


def test_analyze_and_verify_table_build_no_table(monkeypatch, capsys):
    # analyze's torsion tag comes from the partner-map search, so (1^8; 3),
    # with 693,840 representations, builds no table, no block and no polynomial
    _option_table.cache_clear()
    blocks = constructions(monkeypatch, Block)
    polys = constructions(monkeypatch, InvertiblePolynomial)
    assert cli.main(["analyze", "-w", "1,1,1,1,1,1,1,1", "-d", "3"]) == 0
    assert "[certified]" in capsys.readouterr().out
    assert _option_table.cache_info().misses == 0
    assert blocks == polys == []
    # verify-table reads each row's chains and cycles from the partner rule
    assert cli.main(["verify-table"]) == 0
    capsys.readouterr()
    assert _option_table.cache_info().misses == 0


def test_pipeline_command_builds_one_table():
    # pipeline() counts for its budget, then walks the same table; the
    # source record reads neither the count nor the existence search
    _option_table.cache_clear()
    assert cli.main(["pipeline", "-w", "1,1,1,1,1", "-d", "3"]) == 0
    assert _option_table.cache_info().misses == 1


def test_walk_validates_what_it_yields(monkeypatch):
    # the in-walk validity rules and validate() are two routes: a
    # disagreement is a failed cross-check, not a silent skip
    monkeypatch.setattr(InvertiblePolynomial, "validate", lambda self: ["Injected"])
    with pytest.raises(CrossCheckFailed, match="Injected"):
        next(iter_representations(WeightSystem((1,) * 5, 3)))


# chains ending in exponent 1 (w_prev + w_cur = d) among the representations
DUAL_FREE_CHAINS = [((1,) * 5, 2), ((12, 22, 6, 54, 33), 66)]


def assert_transposable_walk(ws):
    reps = list(iter_representations(ws))
    kept = [p for p in reps if not p.transpose().validate()]
    assert list(iter_representations(ws, transposable=True)) == kept
    # what the walk drops could not have had a dual
    for poly in reps:
        if poly.transpose().validate():
            with pytest.raises(NonPositiveWeights):
                checked_dual(poly, ws)
    return len(reps) - len(kept)


@pytest.mark.parametrize(
    "weights, degree", [pytest.param(w, d, id=system_id(w, d)) for w, d in NAMED + DUAL_FREE_CHAINS]
)
def test_transposable_walk_on_named_systems(weights, degree):
    dropped = assert_transposable_walk(WeightSystem(weights, degree))
    if (weights, degree) in DUAL_FREE_CHAINS:
        assert dropped


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 8))
def test_transposable_walk_on_generated_systems(seed, n):
    rng = random.Random(seed)
    got = None
    while got is None:
        got = random_weight_system(rng, n=n)
    assert_transposable_walk(got[1])


def test_batch_row_builds_no_skipped_block(monkeypatch):
    # (1^5; 2): every chain ends in exponent 1, so the batch walk skips all
    # of them; only the chain-cycle pick's own chain is ever built
    ws = WeightSystem((1,) * 5, 2)
    skipped = {
        Block(BlockKind.CHAIN, vs, es)
        for _, _, _, kind, (group, _) in _option_table(ws)[0]
        if kind is BlockKind.CHAIN
        for _, _, vs, es in group
        if es[-1] == 1
    }
    pick = find_chain_cycle(ws)
    _option_table.cache_clear()
    blocks = constructions(monkeypatch, Block)
    row = cli.process_batch_row({"w0": "1", "w1": "1", "w2": "1", "w3": "1", "w4": "1", "d": "2"})
    assert row["error"] == "" and row["dual_w"]
    assert len(skipped) > 1
    assert skipped & set(blocks) <= set(pick.blocks)


def test_batch_row_dualizes_the_chain_cycle_pick_first():
    # the pick heads its 2-chain at x_1; the first transposable representation
    # in canonical order heads it at x_0, and its dual lists w_0, w_1 swapped
    ws = WeightSystem((73, 73, 95, 45, 80), 365)
    pick = _chain_cycle(ws)
    assert pick.blocks[0] == Block(BlockKind.CHAIN, (1, 0), (5, 4))
    assert next(iter_representations(ws, transposable=True)) != pick
    row = cli.process_batch_row({"w0": "73", "w1": "73", "w2": "95", "w3": "45", "w4": "80", "d": "365"})
    assert (row["dual_w"], row["dual_d"], row["error"]) == ("365 219 420 200 260", "1460", "")

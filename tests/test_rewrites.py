"""Each rewrite for speed against the definition it replaced (tests/oracles.py).

The systems come from the 3- to 8-variable generator, plus all-equal
weights (1^n; d), whose partner rule links every pair of variables.  The
link divisor's pair lists also come with u from a small set, so that
factors share a u, and all equal.  The subset table's systems also have 2
weights, or are golden duals, whose terms pass 2^30, or (2,2,2,2,w; 2w).
"""

import csv
import random
import tempfile
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from pathlib import Path

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bhlink import WeightSystem, cli, expand_link_divisor, invariants, se_certificate, wellformed_space
from bhlink.errors import NonIntegralExpansion
from bhlink.fixture import ROWS
from bhlink.representation import _partners, iter_representations

from generators import random_weight_system
from oracles import (
    oracle_batch_csv,
    oracle_expand_link_divisor,
    oracle_min_pair,
    oracle_steps,
    oracle_subset_table,
    oracle_transpose,
    oracle_wellformed_space,
)

PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def systems(draw):
    """(a polynomial representing the system or None, the system)."""
    n = draw(st.integers(3, 8))
    if draw(st.integers(0, 3)) == 0:
        return None, WeightSystem((1,) * n, draw(st.integers(2, 5)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    got = None
    while got is None:
        got = random_weight_system(rng, n=n)
    return got


@PROPERTY
@given(systems())
def test_certificate_reads_the_pairwise_minimum(case):
    _, ws = case
    n = ws.n_vars - 1
    holds = (n - 1) * ws.fano_index() * ws.degree < n * oracle_min_pair(ws.weights)
    assert se_certificate(ws).inequality_holds == holds


@PROPERTY
@given(systems())
def test_wellformed_space_matches_the_subset_definition(case):
    _, ws = case
    assert wellformed_space(ws.weights) == oracle_wellformed_space(ws.weights)


@PROPERTY
@given(st.lists(st.integers(1, 60), min_size=2, max_size=8))
def test_wellformed_space_matches_the_subset_definition_on_any_weights(weights):
    assert wellformed_space(weights) == oracle_wellformed_space(weights)


@PROPERTY
@given(systems())
def test_transpose_matches_reversing_every_block(case):
    poly, ws = case
    # all-equal weights on six or more variables have tens of thousands of
    # representations; the first few of five show every block shape
    polys = [poly] if poly else list(islice(iter_representations(ws), 40)) if ws.n_vars <= 5 else []
    for p in polys:
        assert p.transpose() == oracle_transpose(p)


@PROPERTY
@given(systems())
def test_partner_rule_inverts_to_the_mirrored_steps(case):
    _, ws = case
    partners, heads, pickers = _partners(ws)
    # the same edges, each partner's pickers in reverse order: the option
    # table's stack then pops them in ascending order
    assert [list(row.items())[::-1] for row in pickers] == [list(row.items()) for row in oracle_steps(ws)]
    assert [sorted(row) for row in partners] == [list(row) for row in partners]
    d = ws.degree
    assert heads == [d // w if d % w == 0 and d >= 2 * w else 0 for w in ws.weights]


@st.composite
def table_systems(draw):
    """A generated system of 2 to 8 weights, (1^n; d), a golden dual or
    (2,2,2,2,w; 2w)."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        n = draw(st.integers(2, 8))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        got = None
        while got is None:
            got = random_weight_system(rng, n=n)
        return got[1]
    if kind == 1:
        return WeightSystem((1,) * draw(st.integers(2, 8)), draw(st.integers(2, 9)))
    if kind == 2:
        row = draw(st.sampled_from(ROWS))
        return WeightSystem(row.dual, row.dual_degree)
    w = draw(st.integers(3, 40))
    return WeightSystem((2, 2, 2, 2, w), 2 * w)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table_systems())
def test_table_kernel_matches_the_doubling(ws):
    terms, scale, c = invariants._subset_table(ws)
    assert (terms, scale, c) == oracle_subset_table(ws)
    assert type(terms) is tuple and type(c) is tuple
    assert all(type(x) is int for x in (*terms, scale, *c))


# u = 1 and u = 12 included: L_1 is the ring's unit, and every other u divides 12
SMALL_U = (1, 2, 3, 4, 6, 12)


@st.composite
def pair_lists(draw):
    """(u, v) lists of 1 to 8 pairs: a generated system's reduced pairs, one
    pair repeated, or pairs with u from SMALL_U; most of the last two are
    not integral."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return list(draw(systems())[1].reduced().pairs())
    n = draw(st.integers(1, 8))
    pair = st.tuples(st.sampled_from(SMALL_U), st.integers(1, 7))
    if kind == 1:
        return [draw(pair)] * n
    return draw(st.lists(pair, min_size=n, max_size=n))


def _exact_terms(pairs) -> dict[int, Fraction]:
    """prod ((1/v) L_u - L_1) over Fraction coefficients, nonzero terms only."""
    acc = {1: Fraction(1)}
    for u, v in pairs:
        out: dict[int, Fraction] = {}
        for j, a in acc.items():
            out[lcm(j, u)] = out.get(lcm(j, u), 0) + a * gcd(j, u) / v
            out[j] = out.get(j, 0) - a
        acc = out
    return {j: a for j, a in acc.items() if a}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pair_lists())
def test_grouped_expansion_matches_factor_by_factor(pairs):
    try:
        want = oracle_expand_link_divisor(pairs)
    except NonIntegralExpansion as exc:
        # both refuse; the grouped expansion names the largest index whose
        # coefficient is fractional, the oracle the first one its term order
        # met, which may be another fractional coefficient
        with pytest.raises(NonIntegralExpansion) as got:
            expand_link_divisor(pairs)
        exact = _exact_terms(pairs)
        fractional = {f"coefficient of L{j} is {a}, not an integer" for j, a in exact.items() if a.denominator > 1}
        top = max(j for j, a in exact.items() if a.denominator > 1)
        assert str(got.value) == f"coefficient of L{top} is {exact[top]}, not an integer"
        assert str(exc) in fractional
    else:
        assert expand_link_divisor(pairs) == want


HEADERS = ["w0", "w1", "w2", "w3", "w4", "d"]
# passthrough columns, and output columns an input may already hold
EXTRA_COLUMNS = ["ke_status", "note", "b3", "error", "twin", "dual_w"]
ROW_VALUES = [
    ["73", "73", "95", "45", "80", "365"],
    ["12", "22", "6", "54", "33", "66"],
    ["19", "18", "5", "12", "16", "20"],
    ["1", "1", "1", "1", "4", "7"],
    ["1", "2", "x", "4", "5", "6"],
    ["0" * 600 + "13", "13", "125", "100", "75", "325"],
]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    extra=st.lists(st.sampled_from(EXTRA_COLUMNS), unique=True, max_size=4),
    rows=st.lists(st.sampled_from(range(len(ROW_VALUES))), min_size=1, max_size=6),
    text=st.text(alphabet='ab ,"\n', max_size=6),
)
def test_batch_output_is_the_dict_writer_bytes(extra, rows, text):
    with tempfile.TemporaryDirectory() as tmp:
        source, target = Path(tmp) / "in.csv", Path(tmp) / "out.csv"
        with source.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(HEADERS + extra)
            for k in rows:
                # a passthrough field that needs quoting, as the writer must quote it
                writer.writerow(ROW_VALUES[k] + [text] * len(extra))
        assert cli.main(["batch", str(source), str(target)]) == 0
        header, records = cli._read_csv(source)
        out_columns = header + [c for c in cli.BATCH_OUTPUT_COLUMNS if c not in header]
        expected = oracle_batch_csv(out_columns, [cli.process_batch_row(r) for r in records])
        assert target.read_bytes() == expected.encode("utf-8")

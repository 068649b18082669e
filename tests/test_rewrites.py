"""Each rewrite for speed against the definition it replaced (tests/oracles.py).

The systems come from the 3- to 8-variable generator, plus all-equal
weights (1^n; d), whose partner rule links every pair of variables.
"""

import csv
import random
import tempfile
from itertools import islice
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bhlink import WeightSystem, cli, se_certificate, wellformed_space
from bhlink.representation import _partners, _pickers, iter_representations

from generators import random_weight_system
from oracles import oracle_batch_csv, oracle_min_pair, oracle_steps, oracle_transpose, oracle_wellformed_space

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
    partners, heads = _partners(ws)
    # the same edges, each picker in the same order
    assert [list(row.items()) for row in _pickers(partners)] == [list(row.items()) for row in oracle_steps(ws)]
    d = ws.degree
    assert heads == [d // w if d % w == 0 and d >= 2 * w else 0 for w in ws.weights]


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

"""Hostile input to the command line: weight and degree strings, batch CSVs and
golden-table CSVs with blank, signed, non-integer, huge or misplaced fields,
and token sequences that the direct parse, the action-table reader first, and
argparse's nested parse must read alike.

Whatever the input, no command ends in a traceback.  A refused command exits 2
with one ``error:`` line and writes nothing to stdout; a bad ``batch`` row is
that row's ``error`` and the output stays rectangular.  Valid numbers come
from a small pool and valid weight strings have five fields, so no example
runs an expensive system.
"""

import argparse
import contextlib
import csv
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhlink.cli import _FIXTURE_COLUMNS, _line_table, _parse, _parser, _read_line, build_parser, main
from bhlink.fixture import ROWS

SMALL = st.sampled_from(["1", "2", "3", "5", "7", "10", "30", "105"])

# valid integers in unusual spellings, and text that is no integer at all
FIELD = st.one_of(
    SMALL,
    st.builds(
        lambda head, number, tail: head + number + tail,
        st.sampled_from(["", "+", "-", " ", "\t", "0", "_", "+_", "--"]),
        SMALL,
        st.sampled_from(["", " ", "_", "_0", "__0", "0", ".0", "e1", "x", "-"]),
    ),
    st.sampled_from(["", " ", "x", "1.5", "0x10", "1e3", "٣", "0", "-0", "None"]),
    # past the 500-digit limit, and past CPython's 4,300-digit str-to-int limit
    st.sampled_from([501, 4301, 5000]).map(lambda digits: "1" + "0" * (digits - 1)),
    st.text(alphabet="0123456789+-_ x.", max_size=3),
)


def _near(number):
    """``number`` in a spelling int() reads as itself, or now and then a FIELD."""
    respelled = st.builds(
        lambda head, tail: head + str(number) + tail,
        st.sampled_from(["", "+", " ", "\t", "0", "+00"]),
        st.sampled_from(["", " ", "\t"]),
    )
    return st.integers(0, 3).flatmap(lambda k: FIELD if k == 0 else respelled)


# cheap valid systems: Fermat quintics, a golden source and a chain-cycle source
SYSTEMS = [((1, 1, 1, 1, 1), 2), ((1, 1, 1, 1, 1), 5), ((15, 35, 14, 7, 35), 105), (ROWS[0].source, 365)]
NEAR_SYSTEM = st.sampled_from(SYSTEMS).flatmap(lambda system: st.tuples(*map(_near, system[0] + (system[1],))))

# five fields is the one valid count drawn; 6 to 8 are valid but can be slow
FIELD_COUNT = st.sampled_from([0, 1, 2, 3, 4, 5, 9, 12])
FIELDS = FIELD_COUNT.flatmap(lambda n: st.lists(FIELD, min_size=n, max_size=n))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _refused(out, err):
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(["analyze", "pipeline"]),
    fields=st.one_of(NEAR_SYSTEM.map(list), st.tuples(FIELDS, FIELD).map(lambda drawn: drawn[0] + [drawn[1]])),
    separator=st.sampled_from([",", ", ", " ,"]),
)
def test_weight_and_degree_strings(command, fields, separator):
    # the last field is the degree; the option=value spelling keeps a leading
    # "-" from reading as an option
    weights, degree = separator.join(fields[:-1]), fields[-1]
    code, out, err = _run([command, f"--weights={weights}", f"--degree={degree}"])
    if code == 2:
        _refused(out, err)
    else:
        assert code == 0 and out and err == ""


REQUIRED = ["w0", "w1", "w2", "w3", "w4", "d"]
EXTRA_COLUMNS = st.lists(st.sampled_from(["ke_status", "error", "dual_w", "note", ""]), max_size=2)
BATCH_HEADER = st.one_of(
    EXTRA_COLUMNS.map(lambda extra: REQUIRED + extra),
    st.permutations(REQUIRED),
    st.lists(st.sampled_from(REQUIRED + ["ke_status", ""]), max_size=8),
)
BATCH_ROW = st.one_of(
    st.tuples(NEAR_SYSTEM, st.lists(FIELD, max_size=2)).map(lambda drawn: list(drawn[0]) + drawn[1]),
    st.integers(0, 9).flatmap(lambda n: st.lists(FIELD, min_size=n, max_size=n)),
)


@settings(max_examples=60, deadline=None)
@given(header=BATCH_HEADER, rows=st.lists(BATCH_ROW, max_size=4))
def test_batch_csv(header, rows):
    with tempfile.TemporaryDirectory() as tmp:
        src, dst = Path(tmp) / "in.csv", Path(tmp) / "out.csv"
        with src.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        code, out, err = _run(["batch", str(src), str(dst)])
        if header[:6] != REQUIRED or len(set(header)) < len(header):
            assert code == 2
            _refused(out, err)
            assert not dst.exists()
            return
        assert code == 0 and err == ""
        with dst.open(newline="") as handle:
            table = list(csv.reader(handle))
    written = [row for row in rows if row]  # the csv module skips a blank line
    assert out.startswith(f"processed {len(written)} rows (")
    assert len(table) == len(written) + 1
    assert all(len(line) == len(table[0]) for line in table)
    errors = [line[table[0].index("error")] for line in table[1:]]
    for row, error in zip(written, errors):
        if len(row) > len(header):
            assert error == f"ValueError: {len(row) - len(header)} more fields than the header"
        elif len(row) < 6 or not all(any(c.isdigit() for c in field) for field in row[:6]):
            assert error  # a missing field reads as "", and no int() takes a field without a digit


GOLDEN = dict(zip(_FIXTURE_COLUMNS, [*map(str, ROWS[0].source + ROWS[0].dual), "1460", "1224", "Z_73"]))
TORSION = st.one_of(
    st.sampled_from(["Z_73", "", "1", "Z_", "Z_x", "Z_2^", "Z_73^2", "Z_3+Z_5^2", "73", "Z_73,Z_2", "z_73"]),
    FIELD.map(lambda field: "Z_" + field),
)


@settings(max_examples=60, deadline=None)
@given(
    header=st.one_of(
        st.permutations(_FIXTURE_COLUMNS).map(list),
        st.lists(st.sampled_from(_FIXTURE_COLUMNS + ["d", "note"]), min_size=1, max_size=15),
    ),
    rows=st.lists(
        st.dictionaries(st.sampled_from(_FIXTURE_COLUMNS[:-1]), FIELD, max_size=2).flatmap(
            lambda fields: st.one_of(st.just(fields), TORSION.map(lambda torsion: {**fields, "dual_torsion": torsion}))
        ),
        max_size=3,
    ),
    extra=st.lists(FIELD, max_size=2),
)
def test_fixture_csv(header, rows, extra):
    # each row is the golden row with a few drawn fields in place of its own
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fixture.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for row in rows:
                writer.writerow([{**GOLDEN, **row}.get(column, "") for column in header] + extra)
        code, out, err = _run(["verify-table", "--fixture", str(path)])
    if code == 2:
        _refused(out, err)
    else:
        assert code in (0, 1) and err == ""
        assert out.endswith(f"/{len(rows)} rows verified\n")
        assert (code == 0) == out.endswith(f"\n{len(rows)}/{len(rows)} rows verified\n")


# command words, options with their abbreviations and attached values, and values
TOKEN = st.sampled_from(
    [
        "analyze", "pipeline", "batch", "verify-table", "nosuch", "-h", "--help", "--he", "--",
        "-w", "--weights", "--we", "--weights=1,1,1,1,1", "-w1,1,1,1,1", "-d", "--degree", "--deg", "-d5",
        "--json", "--js", "--json=1", "--jobs", "--job", "--jobs=2", "--fixture", "--fix", "--bogus",
        "1,1,1,1,1", "5", "-5", "", "x", "0", "2", "two", "in.csv", "out.csv",
    ]
)
# each command's options with their values, its flags and its positionals
PLAIN = {
    "analyze": [("-w", "1,1,1,1,1"), ("--weights", "15,35,14,7,35"), ("-d", "5"), ("--degree", "105"), ("--json",)],
    "batch": [("in.csv",), ("out.csv",), ("--jobs", "0"), ("--jobs", "2"), ("--jobs", "two")],
    "verify-table": [("--fixture", "x")],
}
PLAIN["pipeline"] = PLAIN["analyze"]
# an option in value position, a blank value or a TOKEN
ODD_PIECE = st.one_of(st.sampled_from([("-d", "-w"), ("-d", "")]), TOKEN.map(lambda token: (token,)))


def _plain_line(command):
    """The command word, then mostly its own plain pieces and now and then an
    odd one: lines that reach every branch of the action-table reader, its
    accepted lines among them."""
    piece = st.integers(0, 5).flatmap(lambda k: st.sampled_from(PLAIN[command]) if k else ODD_PIECE)
    return st.lists(piece, max_size=5).map(lambda pieces: [command, *(token for piece in pieces for token in piece)])


COMMAND_LINE = st.one_of(
    st.lists(TOKEN, max_size=8),
    st.tuples(st.sampled_from(sorted(PLAIN)), st.lists(TOKEN, max_size=8)).map(lambda drawn: [drawn[0], *drawn[1]]),
    st.sampled_from(sorted(PLAIN)).flatmap(_plain_line),
)


def _parsed(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            fields, code = vars(parse(argv)), None
        except SystemExit as exc:
            fields, code = None, exc.code
    if fields is not None:
        # only the nested parse records the command word; nothing reads it
        fields.pop("command", None)
    return fields, code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(argv=COMMAND_LINE)
def test_parse_matches_the_nested_parse(argv):
    # the same namespace, or the same exit code, help, usage and error line
    assert _parsed(_parse, argv) == _parsed(lambda tokens: build_parser().parse_args(tokens), argv)


def _read(argv):
    """What the action-table reader makes of a command line."""
    return _read_line(argv[1:], *_parser()[1][argv[0]])


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["analyze", "-w", "1,1,1,1,1", "-d", "5"], id="analyze"),
        pytest.param(["pipeline", "--degree", "5", "--json", "--weights", "1,1,1,1,1", "--json"], id="pipeline"),
        pytest.param(["analyze", "-d", "5", "-w", "1,1,1,1,1", "-d", "7"], id="repeated-last-wins"),
        pytest.param(["batch", "in.csv", "--jobs", "2", "out.csv"], id="batch-interleaved"),
        pytest.param(["verify-table"], id="verify-table"),
        pytest.param(["verify-table", "--fixture", "x.csv"], id="verify-table-fixture"),
    ],
)
def test_a_plain_line_is_read_off_the_action_table(argv):
    args = _read(argv)
    assert args is not None
    assert _parsed(lambda tokens: args, argv) == _parsed(lambda tokens: build_parser().parse_args(tokens), argv)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["analyze", "-h"], id="help"),
        pytest.param(["analyze", "--", "-w", "1,1,1,1,1", "-d", "5"], id="double-dash"),
        pytest.param(["analyze", "--we", "1,1,1,1,1", "-d", "5"], id="abbreviation"),
        pytest.param(["analyze", "--weights=1,1,1,1,1", "-d", "5"], id="equals-value"),
        pytest.param(["analyze", "-w1,1,1,1,1", "-d", "5"], id="attached-value"),
        pytest.param(["analyze", "-w", "1,1,1,1,1", "-d", "--json"], id="option-as-value"),
        pytest.param(["analyze", "-w", "1,1,1,1,1", "-d", "-5"], id="negative-value"),
        pytest.param(["analyze", "-w", "1,1,1,1,1", "-d"], id="missing-value"),
        pytest.param(["analyze", "-w", "1,1,1,1,1", "-d", ""], id="blank-value"),
        pytest.param(["analyze", "-w", "1,1,1,1,1"], id="missing-required-option"),
        pytest.param(["batch", "in.csv"], id="missing-positional"),
        pytest.param(["analyze", "-w", "1,1,1,1,1", "-d", "5", "x"], id="extra-positional"),
        pytest.param(["batch", "in.csv", "out.csv", "--jobs", "two"], id="jobs-two"),
        pytest.param(["batch", "in.csv", "out.csv", "--jobs", "0"], id="jobs-zero"),
        pytest.param(["analyze", "-w", "1,1,1,1,1", "-d", "5", "--json=1"], id="flag-with-value"),
        pytest.param(["analyze", "-w", "1,1,1,1,1", "-d", "5", "--bogus"], id="unknown-option"),
    ],
)
def test_a_declined_line_reads_as_argparse_reads_it(argv):
    # the same namespace, or the same exit code, help, usage and error line
    assert _read(argv) is None
    assert _parsed(_parse, argv) == _parsed(lambda tokens: build_parser().parse_args(tokens), argv)


@pytest.mark.parametrize(
    "add",
    [
        pytest.param(lambda parser: parser.add_argument("--mode", choices=["a", "b"]), id="choices"),
        pytest.param(lambda parser: parser.add_argument("--count", type=int, default="3"), id="str-default"),
        pytest.param(lambda parser: parser.add_argument("--tag", action="append"), id="append"),
        pytest.param(lambda parser: parser.add_argument("rest", nargs="*"), id="nargs"),
    ],
)
def test_a_parser_with_an_action_the_reader_does_not_model_has_no_table(add):
    # every command has a table today; a parser that grows another kind of
    # action loses its table, and argparse reads all its lines
    assert set(_parser()[1]) == {"analyze", "pipeline", "batch", "verify-table"}
    parser = argparse.ArgumentParser()
    parser.add_argument("-w")
    parser.add_argument("--json", action="store_true")
    assert _line_table(parser) is not None
    add(parser)
    assert _line_table(parser) is None

"""The bytes of ``--json``: the CLI's indented writer against ``json.dumps``,
and commands that leave no garbage for the cyclic collector."""

import gc
import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhlink.cli import _indented_json, main
from bhlink.duality import Verdict
from bhlink.polynomial import BlockKind

# full Unicode, plus what the escaper treats specially: quotes, backslashes,
# control characters, DEL, line separators, a lone surrogate and astral characters
_SPECIAL = st.sampled_from('"\\/\x00\x08\t\n\x0c\r\x1f\x7f\x80 \ud800\U0001f600\U0010ffff')
TEXT = st.text(st.characters() | _SPECIAL)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**256)
    | st.integers(min_value=-(2**256), max_value=-(2**64))
    | TEXT
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(TEXT, children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(VALUES)
def test_writer_is_json_dumps_indent_2(value):
    assert _indented_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        1.0,
        float("nan"),
        BlockKind.CHAIN,
        Verdict.SASAKI_EINSTEIN,
        [1, 2.5],
        {"se": {"verdict": Verdict.SASAKI_EINSTEIN}},
        {1: "an int key"},
        {BlockKind.CYCLE: "a str Enum key"},
        {"a set": {1}},
    ],
)
def test_writer_refuses_other_types(value):
    # json.dumps writes a str Enum as its value and an int key as a string;
    # the commands print neither, and the writer refuses them
    with pytest.raises(TypeError):
        _indented_json(value)


COMMANDS = [
    ["analyze", "-w", "15,35,14,7,35", "-d", "105"],
    ["analyze", "-w", "2,2,2,2,3,3,3,3", "-d", "5"],
    ["pipeline", "-w", "13,13,125,100,75", "-d", "325"],
    # a representation whose dual fails: its error is a string in the record
    ["pipeline", "-w", "12,22,6,54,33", "-d", "66"],
    ["pipeline", "-w", "1,1,1,1,4", "-d", "7"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv))
def test_json_stdout_is_exactly_json_dumps_indent_2(capsys, argv):
    assert main([*argv, "--json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_commands_leave_no_garbage_cycles():
    # a recursion nested in the function it serves closes over itself, and
    # each call would leave that cycle for the collector
    commands = [
        ["analyze", "-w", "15,35,14,7,35", "-d", "105", "--json"],
        ["pipeline", "-w", "13,13,125,100,75", "-d", "325", "--json"],
        ["pipeline", "-w", "13,13,125,100,75", "-d", "325"],
        ["analyze", "-w", "1,1,1,1,1,1,1,1", "-d", "3"],
    ]
    with redirect_stdout(io.StringIO()):
        main(commands[0])
    gc.collect()
    for argv in commands:
        gc.disable()
        try:
            with redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            assert gc.collect() == 0, argv
        finally:
            gc.enable()

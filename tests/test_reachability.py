"""Every function in ``src/bhlink`` is reached by the command line, or is
allowlisted here with the reason it stays.

The gate lists each ``def`` of the package's modules with ``ast`` (nested
ones included) and runs ``cli.main`` in-process over a small fixed corpus
under ``sys.setprofile``.  A function counts as entered when a frame's code
has the def's file, first line (decorators included) and name.  A function
that no command reaches is test-only code or dead code: move it to
``tests/`` or delete it, or allowlist it below with its reason.
"""

import ast
import contextlib
import io
import sys
from pathlib import Path

import pytest

import bhlink
from bhlink import cli
from bhlink.fixture import ROWS

PACKAGE = Path(bhlink.__file__).parent

# module.qualified.name -> why the command line never enters it
ALLOWED = {
    # pinned by the owner (ROADMAP "Not targets", acceptance criteria 8 and 2)
    "invariants.branched_cover": "owner-pinned: the 9-sphere diffeomorphism label",
    "duality.swap_twin": "owner-pinned: the cycle-exponent swap twin",
    "divisor.CyclotomicDivisor.delta_eval": "owner-pinned: Delta(-1) for branched_cover",
    "divisor.CyclotomicDivisor.delta_eval.vanishes": "nested in delta_eval",
    # read by name by the benchmark, which this package cannot edit alone
    "divisor.CyclotomicDivisor.terms": "perfbench/layers.py PAYLOADS reads len(out.terms)",
    "invariants.TorsionWorksheet.r": "perfbench reads the recursion depth r",
    # the value protocol the tests compare and print divisors with
    "divisor.CyclotomicDivisor.__eq__": "value equality, used by the tests",
    "divisor.CyclotomicDivisor.__repr__": "value repr, used by the tests",
    # the pool import is lazy: a batch below the pool threshold forks none
    "cli.__getattr__": "reached only by a batch that forks a pool",
}

SYSTEMS = [(row.source, row.source_degree) for row in ROWS[:3]] + [
    ((12, 11, 9, 8, 4), 20),  # no invertible representation
    ((12, 22, 6, 54, 33), 66),  # one representation's dual has a non-positive weight
]


def _defs() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> module.qualified.name of every def."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        found[(str(path), first, child.name)] = name
                    visit(child, name)
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), module)
    return found


class _FailingStdout(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


def _corpus(tmp: Path) -> None:
    """Run every command path the package serves, through ``cli.main``."""
    batch = tmp / "in.csv"
    rows = [",".join(map(str, weights + (degree,))) for weights, degree in SYSTEMS]
    batch.write_text("w0,w1,w2,w3,w4,d\n" + "\n".join(rows) + "\n1,2,x,4,5,6\n")
    fixture = tmp / "fixture.csv"
    # the first row passes, the second has a wrong dual_mu; both duals have torsion Z_73
    fixture.write_text(
        "w0,w1,w2,w3,w4,tw0,tw1,tw2,tw3,tw4,dual_d,dual_mu,dual_torsion\n"
        + "".join(
            ",".join(map(str, row.source + row.dual + (row.dual_degree, row.dual_mu + wrong))) + ",Z_73\n"
            for row, wrong in ((ROWS[0], 0), (ROWS[1], 1))
        )
    )
    commands = [
        [command, "-w", ",".join(map(str, weights)), "-d", str(degree), *json]
        for weights, degree in SYSTEMS
        for command in ("analyze", "pipeline")
        for json in ([], ["--json"])
    ]
    commands += [
        ["batch", str(batch), str(tmp / "out.csv"), "--jobs", "1"],
        ["verify-table"],
        ["verify-table", "--fixture", str(fixture)],
        ["pipeline", "-w", "1,1,1,1,1,1,1", "-d", "3"],  # over the representation budget
        ["analyze", "-w", "1,2,3", "-d", "10"],
        ["analyze", "-h"],
    ]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in commands:
            with contextlib.suppress(SystemExit):  # help exits from argparse
                cli.main(argv)
    with contextlib.redirect_stdout(_FailingStdout()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["analyze", "-w", "15,35,14,7,35", "-d", "105"]) == 2


@pytest.fixture(scope="module")
def entered(tmp_path_factory) -> frozenset[str]:
    """The qualified names of the defs the corpus enters."""
    # a memoized body is not entered again, so every cache starts empty
    for name, module in list(sys.modules.items()):
        if name.startswith("bhlink."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    codes = set()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        _corpus(tmp_path_factory.mktemp("corpus"))
    finally:
        sys.setprofile(previous)
    defs = _defs()
    keys = {(code.co_filename, code.co_firstlineno, code.co_name) for code in codes}
    return frozenset(defs[key] for key in keys if key in defs)


def test_every_function_is_reached_or_allowlisted(entered):
    unreached = set(_defs().values()) - entered - set(ALLOWED)
    assert not unreached, f"no command enters {sorted(unreached)}: move it to tests/ or allowlist it"


def test_the_allowlist_is_not_stale(entered):
    gone = set(ALLOWED) - set(_defs().values())
    assert not gone, f"allowlisted but no longer defined: {sorted(gone)}"
    reached = set(ALLOWED) & entered
    assert not reached, f"allowlisted but reached by a command: {sorted(reached)}"

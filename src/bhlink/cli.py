"""Command-line surface: single-instance analysis, batch CSV processing and
golden-table verification.

A plain command line, the command word and then exact option strings, values
and positionals, is read off a table of the command parser's actions; argparse
reads any other line and alone writes help, usage and errors.

Exit codes: 0 success, 1 table mismatch, 2 invalid input or unwritable
output, 3 internal cross-check failure.  The commands raise; :func:`main` alone
maps each failure to its code and one stderr line, which is dropped where
stderr cannot take it (``2>&1 | head -1``).  A command writes all of
its output, then exits 3, not 1, if any item records a cross-check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from functools import lru_cache, partial
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from .duality import SASAKI_EINSTEIN, checked_dual, is_twin, pipeline, se_certificate
from .errors import BhlinkError, CrossCheckFailed
from .invariants import _MAX_WEIGHTS, HomologyProfile, _profile_memo, homology_profile
from .polynomial import classify
from .representation import (
    _chain_cycle,
    count_representations,
    find_chain_cycle,
    has_invertible_representation,
    iter_representations,
)
from .weights import WeightSystem

if TYPE_CHECKING:
    from .fixture import FixtureRow

BATCH_OUTPUT_COLUMNS = [
    "b3",
    "torsion",
    "mu",
    "index",
    "wellformed",
    "se_verdict",
    "n_reps",
    "dual_w",
    "dual_d",
    "dual_torsion",
    "dual_mu",
    "dual_se",
    "twin",
    "error",
]


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a failed write of help or usage to stdout
    raises.  argparse drops the OSError, so on an unbuffered stdout help that
    cannot be written would exit 0 with nothing written; raised, it reaches
    :func:`main` as a write failure.  Messages to stderr are written as
    argparse writes them."""

    def _print_message(self, message, file=None):
        if message and file is not None and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def _parse_int(text: str, field: str) -> int:
    # for n <= 8 weights b3 <= mu < d^n, a torsion factor is at most prod u_i
    # <= d^n and a multiplicity at most max k <= 2^n d^n: a 500-digit degree
    # (and weights below it) keeps every printed integer under CPython's
    # 4,300-digit int-to-str limit.  Counted before int(), which refuses a
    # field of more than 4,300 digits with that limit's own message; a field
    # of at most 500 characters cannot hold more than 500 digits
    if len(text) > 500 and len(text.strip().lstrip("+-").replace("_", "").lstrip("0")) > 500:
        raise ValueError(f"{field} has more than 500 digits")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{field} is not an integer: {text!r}") from None


def _parse_weights(text: str) -> tuple[int, ...]:
    fields = text.replace(" ", "").split(",")
    if "" in fields:
        raise _InputError(f"weight field {fields.index('') + 1} of {text!r} is blank")
    try:
        weights = tuple(_parse_int(part, f"weight field {i}") for i, part in enumerate(fields, start=1))
    except ValueError as exc:
        raise _InputError(f"weights must be integers: {exc}")
    if not 5 <= len(weights) <= _MAX_WEIGHTS:
        raise _InputError(f"expected 5 to {_MAX_WEIGHTS} weights, got {len(weights)}")
    return weights


def _build_system(args: argparse.Namespace) -> WeightSystem:
    weights = _parse_weights(args.weights)
    try:
        return WeightSystem(weights, _parse_int(args.degree, "the degree"))
    except (BhlinkError, ValueError) as exc:
        raise _InputError(f"invalid weight system: {exc}")


def _system_record(ws: WeightSystem) -> tuple[dict, HomologyProfile]:
    """The source fields of the data and its profile, computed once: the
    record ``analyze`` prints, less its torsion status.  Whether the data has
    a representation, and how many, is left to the command that prints it:
    ``analyze`` asks the existence search, ``batch`` the count."""
    profile = homology_profile(ws)
    verdict = se_certificate(ws)
    space, hypersurface = ws.wellformedness()
    record = {
        "weights": list(ws.weights),
        "degree": ws.degree,
        "betti": profile.b3,
        "torsion": profile.torsion,
        "torsion_str": profile.torsion_str(),
        "milnor": profile.mu,
        "rational_homology_sphere": profile.b3 == 0,
        "wellformed_space": space,
        "wellformed_hypersurface": hypersurface,
        "fano_index": ws.fano_index(),
        "se": {
            "fano": verdict.fano,
            "inequality_holds": verdict.inequality_holds,
            "verdict": verdict.verdict.value,
        },
    }
    return record, profile


_escape = json.encoder.encode_basestring_ascii


def _indented_json(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for dicts with str keys, lists, tuples,
    strs, ints, bools and None; any other type, subclasses included, raises
    TypeError.  Strings go through the stdlib's own C escaper and ints
    through ``int.__repr__``, as in ``json.dumps``.  Before CPython 3.13 the
    stdlib writes indented JSON in pure Python, and this is faster."""
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    inner = newline + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{_escape(key)}: {_indented_json(item, inner)}")
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = [_indented_json(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# CPython 3.13 writes indented JSON in C, faster than the writer above.  That writer against
# json.dumps, microseconds per golden analyze record and per pipeline record of (13,13,125,100,75;
# 325), best of 7 x 2,000 calls on a 2-CPU Xeon: 3.13.13 5.4-5.8 vs 4.4-4.7 and 22.9-24.0 vs
# 12.4-12.9; 3.11.7 8.2-8.5 vs 15.8-16.5 and 36.6-37.4 vs 67.6-69.0
_json_text = partial(json.dumps, indent=2) if sys.version_info >= (3, 13) else _indented_json


def _raise_internal(errors) -> None:
    # an item's error text is all that comes back from a forked batch worker
    failed = [e for e in errors if e and e.startswith("CrossCheckFailed: ")]
    if failed:
        raise CrossCheckFailed(f"{len(failed)} output item(s) record a failed cross-check; the first is {failed[0]}")


def cmd_analyze(args: argparse.Namespace) -> int:
    ws = _build_system(args)
    record, _ = _system_record(ws)
    # the torsion recursion is a theorem exactly for data carrying an
    # invertible polynomial; otherwise its output is conjectural
    record["torsion_status"] = "certified" if has_invertible_representation(ws) else "conjectural"
    if args.json:
        print(_json_text(record))
        return 0
    print(f"weight system   {tuple(record['weights'])}  d = {record['degree']}")
    print(f"b3              {record['betti']}")
    print(f"H3 torsion      {record['torsion_str']}  [{record['torsion_status']}]")
    print(f"Milnor number   {record['milnor']}")
    print(f"RHS             {record['rational_homology_sphere']}")
    print(
        "well-formed     space: %s   hypersurface: %s"
        % (record["wellformed_space"], record["wellformed_hypersurface"])
    )
    print(f"Fano index      {record['fano_index']}")
    print(f"SE verdict      {record['se']['verdict']}")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    ws = _build_system(args)
    reports = pipeline(ws)
    # after pipeline(), so an over-budget system is refused before any profile
    record, source = _system_record(ws)
    source_verdict = record["se"]["verdict"]
    if args.json:
        payload = []
        for rep in reports:
            entry: dict = {
                "polynomial": str(rep.source_polynomial),
                "type": classify(rep.source_polynomial),
                "source_verdict": source_verdict,
                "error": rep.error,
            }
            if rep.dual_profile is not None:
                entry.update(
                    {
                        "dual_polynomial": str(rep.dual_polynomial),
                        "dual_weights": list(rep.dual_weights.weights),
                        "dual_degree": rep.dual_weights.degree,
                        "dual_betti": rep.dual_profile.b3,
                        "dual_torsion": rep.dual_profile.torsion,
                        "dual_milnor": rep.dual_profile.mu,
                        "twin": is_twin(source, rep.dual_profile),
                        "dual_verdict": rep.dual_verdict.verdict.value,
                    }
                )
            payload.append(entry)
        head = {key: record[key] for key in ("weights", "degree", "betti", "torsion", "milnor")}
        print(_json_text({**head, "representations": payload}))
    elif not reports:
        print(f"no invertible representation matches {ws}")
    else:
        print(f"source {ws}: b3={record['betti']}  H3={record['torsion_str']}  mu={record['milnor']}")
        for rep in reports:
            print(f"\n[{classify(rep.source_polynomial)}]  {rep.source_polynomial}")
            if rep.error:
                print(f"  error: {rep.error}")
                continue
            d = rep.dual_profile
            print(f"  dual  {rep.dual_polynomial}")
            print(f"  dual weights {rep.dual_weights}")
            print(f"  dual profile b3={d.b3}  H3={d.torsion_str()}  mu={d.mu}")
            print(f"  twin={is_twin(source, d)}  source SE={source_verdict}  dual SE={rep.dual_verdict.verdict.value}")
    _raise_internal(rep.error for rep in reports)
    return 0


def process_batch_row(record: dict[str, str]) -> dict[str, str]:
    """Compute one batch output row; errors land in the ``error`` column."""
    out = dict(record)
    # fields past the header's end; dropped so the output stays rectangular
    extra = out.pop(None, None)
    # an output column already in the input is overwritten, never passed on
    out.update(dict.fromkeys(BATCH_OUTPUT_COLUMNS, ""))
    try:
        if extra:
            raise ValueError(f"{len(extra)} more fields than the header")
        weights = tuple(_parse_int(record[f"w{i}"], f"w{i}") for i in range(5))
        ws = WeightSystem(weights, _parse_int(record["d"], "the degree"))
        source, profile = _system_record(ws)
        out.update(
            {
                "b3": str(source["betti"]),
                "torsion": source["torsion_str"],
                "mu": str(source["milnor"]),
                "index": str(source["fano_index"]),
                "wellformed": str(source["wellformed_hypersurface"]).lower(),
                "se_verdict": source["se"]["verdict"],
                "n_reps": str(count_representations(ws)),
            }
        )
        # report the chain-cycle dual when one exists (the shape whose dual
        # is genuinely new); otherwise the first representation in canonical
        # order with a nondegenerate dual, built only as far as that one; the
        # walk passes over those whose transpose is invalid, as this loop would
        pick = _chain_cycle(ws)
        for chosen in chain((pick,) if pick is not None else (), iter_representations(ws, transposable=True)):
            try:
                dual = checked_dual(chosen, ws)
            except CrossCheckFailed:
                raise  # a wrong dual is the row's error, not a reason to try the next
            except BhlinkError:
                continue
            out.update(
                {
                    "dual_w": " ".join(map(str, dual.dual_weights.weights)),
                    "dual_d": str(dual.dual_weights.degree),
                    "dual_torsion": dual.dual_profile.torsion_str(),
                    "dual_mu": str(dual.dual_profile.mu),
                    "dual_se": dual.dual_verdict.verdict.value,
                    "twin": str(is_twin(profile, dual.dual_profile)).lower(),
                }
            )
            break
    except (BhlinkError, ValueError, KeyError) as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    return out


# --jobs 2 over --jobs 1 time, medians of 6 alternating pairs, 2 CPUs, CPython 3.11: survey rows
# 200 1.30-1.44, 250 1.10, 300 0.70-0.87, 1,000 0.65; duals rows 100 1.13, 200 0.98, 500 0.90
_ROWS_PER_WORKER = 150


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _read_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    """The header and records of a CSV file; a missing field reads as "" and
    fields past the header are listed under the key None.  Raises
    :class:`_InputError` for a path that is not a file or cannot be read,
    bytes that are not UTF-8, a record the csv module rejects or a header that
    repeats a column (a dict record would keep only its last value)."""
    try:
        if not path.is_file():
            raise _InputError(f"no such file {path}")
        # utf-8-sig drops the byte-order mark a spreadsheet export may start with
        with path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.DictReader(handle, restval="")
            header, records = list(reader.fieldnames or []), list(reader)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise _InputError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}")
    except csv.Error as exc:
        raise _InputError(f"malformed CSV {path}: {exc}")
    repeated = sorted({column for column in header if header.count(column) > 1})
    if repeated:
        raise _InputError(f"malformed CSV header {header}, repeated column {', '.join(repeated)}")
    return header, records


def cmd_batch(args: argparse.Namespace) -> int:
    required = ["w0", "w1", "w2", "w3", "w4", "d"]
    header, records = _read_csv(Path(args.input))
    if header[: len(required)] != required:
        raise _InputError(f"malformed CSV header {header}, expected it to start with {required}")
    # open the output before any row is computed, so a bad path fails fast
    try:
        output = Path(args.output).open("w", newline="", encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot write {args.output}: {exc.strerror}")

    with output:
        # a pool forks all its workers at once: never more than CPUs, and
        # each gets at least _ROWS_PER_WORKER rows, below which a pool loses
        workers = min(args.jobs, len(records) // _ROWS_PER_WORKER, _available_cpus())
        if workers > 1:
            # the pool, and with it multiprocessing, is imported only by a batch that forks one
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(process_batch_row, records, chunksize=8))
        else:
            results = [process_batch_row(record) for record in records]

        # every row holds each of these columns, so csv.DictWriter's per-row
        # check for keys outside them could not fail.  Rows go out as lists:
        # tuples of the same fields raised the peak RSS of a 1,000-row survey
        # by 0.3 MB on CPython 3.11
        out_columns = list(header) + [c for c in BATCH_OUTPUT_COLUMNS if c not in header]
        writer = csv.writer(output)
        writer.writerow(out_columns)
        writer.writerows([[row[c] for c in out_columns] for row in results])
    errors = [row["error"] for row in results if row["error"]]
    print(f"processed {len(results)} rows ({len(errors)} with errors) -> {args.output}")
    _raise_internal(errors)
    return 0


def _parse_torsion(text: str) -> tuple[tuple[int, int], ...]:
    """Parse ``Z_3315+Z_51^3`` into the runs ((3315, 1), (51, 3))."""
    text = text.strip()
    if text in ("", "1"):
        return ()
    runs = []
    for part in text.split("+"):
        part = part.strip()
        if not part.startswith("Z_"):
            raise ValueError(f"bad torsion field {text!r}")
        factor, caret, count = part[2:].partition("^")
        run = (_parse_int(factor, "a torsion factor"), _parse_int(count, "a torsion multiplicity") if caret else 1)
        if min(run) < 1:
            raise ValueError(f"bad torsion field {text!r}: {part} names no group")
        runs.append(run)
    return tuple(runs)


_FIXTURE_COLUMNS = (
    [f"w{i}" for i in range(5)] + [f"tw{i}" for i in range(5)] + ["dual_d", "dual_mu", "dual_torsion"]
)


def _load_fixture_csv(path: Path) -> list[FixtureRow]:
    """Read a golden-table CSV; :class:`_InputError` on an unreadable file, a
    header without the fixture columns, no rows, a row with more fields than
    the header or a field that does not parse."""
    from .fixture import FixtureRow

    header, records = _read_csv(path)
    missing = [column for column in _FIXTURE_COLUMNS if column not in header]
    if missing:
        raise _InputError(f"malformed fixture header {header}, missing {missing}")
    if not records:
        raise _InputError(f"fixture {path} has no rows")
    rows = []
    # the header is row 1
    for number, record in enumerate(records, start=2):
        if None in record:
            raise _InputError(f"malformed fixture row {number}: {len(record[None])} more fields than the header")
        try:
            rows.append(
                FixtureRow(
                    source=tuple(_parse_int(record[f"w{i}"], f"w{i}") for i in range(5)),
                    dual=tuple(_parse_int(record[f"tw{i}"], f"tw{i}") for i in range(5)),
                    dual_degree=_parse_int(record["dual_d"], "dual_d"),
                    dual_mu=_parse_int(record["dual_mu"], "dual_mu"),
                    dual_torsion=_parse_torsion(record["dual_torsion"]),
                )
            )
        except ValueError as exc:
            raise _InputError(f"malformed fixture row {number}: {exc}")
    return rows


def verify_row(row: FixtureRow) -> tuple[bool, str]:
    """Check one golden row: transpose dual, closed forms, SE certification."""
    try:
        ws = WeightSystem(row.source, row.source_degree)
        dual = checked_dual(find_chain_cycle(ws), ws)
        dual_ws, profile = dual.dual_weights, dual.dual_profile
        checks = [
            ("dual weights", sorted(dual_ws.weights), sorted(row.dual)),
            ("dual degree", dual_ws.degree, row.dual_degree),
            ("dual mu", profile.mu, row.dual_mu),
            ("dual torsion", profile.torsion, row.dual_torsion),
            ("dual b3", profile.b3, 0),
        ]
        problems = [f"{label} {got} != {want}" for label, got, want in checks if got != want]
        if dual.skipped:
            problems.append(f"closed forms not applicable: {dual.skipped}")
        if dual.dual_verdict.verdict is not SASAKI_EINSTEIN:
            problems.append("dual not certified Sasaki-Einstein")
        if problems:
            return False, "; ".join(problems)
        return True, (
            f"dual ({', '.join(map(str, dual_ws.weights))}; d={dual_ws.degree})  "
            f"mu={profile.mu}  H3={profile.torsion_str()}"
        )
    except BhlinkError as exc:
        return False, f"{type(exc).__name__}: {exc}"


def cmd_verify_table(args: argparse.Namespace) -> int:
    # the embedded table is imported by this command alone
    from .fixture import ROWS

    rows = _load_fixture_csv(Path(args.fixture)) if args.fixture else list(ROWS)
    failures = []
    for row in rows:
        ok, detail = verify_row(row)
        if not ok:
            failures.append(detail)
        print(f"{'PASS' if ok else 'FAIL'}  {row.source}  {detail}")
    print(f"\n{len(rows) - len(failures)}/{len(rows)} rows verified")
    _raise_internal(failures)
    return 1 if failures else 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        # the message argparse gives for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bhlink",
        description=(
            "Exact topology of weighted-homogeneous hypersurface links, "
            "their transpose duals, twins and Sasaki-Einstein certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, summary in (
        ("analyze", "profile of a single weight system"),
        ("pipeline", "dual report for every representation"),
    ):
        command = sub.add_parser(name, help=summary)
        command.add_argument("-w", "--weights", required=True, help="comma-separated weights")
        command.add_argument("-d", "--degree", required=True)
        command.add_argument("--json", action="store_true")
        command.set_defaults(func=f"cmd_{name}")

    batch = sub.add_parser("batch", help="process a CSV of weight systems")
    batch.add_argument("input", help="CSV with header w0,w1,w2,w3,w4,d[,ke_status]")
    batch.add_argument("output", help="output CSV path")
    batch.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help=f"worker processes, at most one per CPU and per {_ROWS_PER_WORKER} rows",
    )
    batch.set_defaults(func="cmd_batch")

    verify = sub.add_parser("verify-table", help="check the embedded golden table")
    verify.add_argument("--fixture", help="override the embedded table with a CSV")
    verify.set_defaults(func="cmd_verify_table")

    return parser


def _line_table(command: argparse.ArgumentParser) -> tuple | None:
    """What :func:`_read_line` needs of a command's parser: each exact option
    string with its (dest, conversion, value), the positionals' entries in
    order, the required dests and the namespace argparse starts from.  An
    entry's conversion is the one argparse applies, or None for a flag, whose
    value is its const.  None when the parser holds an action other than help,
    a ``store`` with ``nargs=None`` and no choices, or a ``store_true``, or a
    str default, which argparse would convert."""
    options, positionals = {}, []
    for action in command._actions:
        if type(action) is argparse._HelpAction:
            continue  # left out of the table, so a line that asks for help is declined
        if isinstance(action.default, str) or not (
            type(action) is argparse._StoreTrueAction
            or (type(action) is argparse._StoreAction and action.nargs is None and action.choices is None)
        ):
            return None
        convert = command._registry_get("type", action.type, action.type) if action.nargs is None else None
        entry = (action.dest, convert, action.const)
        if action.option_strings:
            options.update(dict.fromkeys(action.option_strings, entry))
        else:
            positionals.append(entry)
    required = frozenset(action.dest for action in command._actions if action.required)
    # action defaults first, then set_defaults for the dests they leave, as argparse fills them
    defaults = {
        **command._defaults,
        **{a.dest: a.default for a in command._actions if argparse.SUPPRESS not in (a.dest, a.default)},
    }
    return options, tuple(positionals), required, defaults


@lru_cache(maxsize=1)
def _parser() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """The top-level parser, built once per process, and the
    :func:`_line_table` of each command whose parser has one."""
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    tables = {name: _line_table(command) for name, command in commands.items()}
    return parser, {name: table for name, table in tables.items() if table is not None}


def _read_line(tokens: list[str], options, positionals, required, defaults) -> argparse.Namespace | None:
    """The namespace the command's parser gives ``tokens``, read off its
    :func:`_line_table`, when every option token is an exact option string in
    the table, every value is non-empty and does not start with ``-``, each
    conversion takes its value, the positionals fill exactly and every
    required dest is seen; a repeated option's last value wins, as in
    argparse.  None for any other line: help, ``--``, an abbreviation, an
    ``=`` or attached value, an unknown option, a missing or extra argument,
    a value a conversion refuses."""
    values, seen = dict(defaults), set()
    queue, places = iter(tokens), iter(positionals)
    for token in queue:
        if token.startswith("-"):
            entry = options.get(token)
            if entry is not None and entry[1] is not None:
                token = next(queue, "")
        else:
            entry = next(places, None)
        if entry is None:
            return None
        dest, convert, value = entry
        if convert is not None:
            if not token or token.startswith("-"):
                return None
            try:
                value = convert(token)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        values[dest] = value
        seen.add(dest)
    return argparse.Namespace(**values) if required <= seen else None


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """Parse a command line once: a plain line off its command's action table
    by :func:`_read_line`, without argparse, and any other line by argparse's
    own nested parse, which alone writes help, usage and errors."""
    argv = sys.argv[1:] if argv is None else argv
    parser, tables = _parser()
    if argv and argv[0] in tables:
        args = _read_line(argv[1:], *tables[argv[0]])
        if args is not None:
            return args
    return parser.parse_args(argv)


def _silence_failed(stream) -> None:
    """Point a stream that fails again at devnull, so the flush at exit cannot
    fail a second time.  A stream that flushes, such as the caller's stdout
    after the output CSV failed, or one with no descriptor, such as a
    StringIO, is left as it is."""
    try:
        stream.flush()
        return
    except OSError:
        pass
    try:
        fd = stream.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            # parsed inside the flush, so help that cannot be written is a write failure
            args = _parse(argv)
            # the command is looked up by name at call time, so a replaced cmd_* runs;
            # it profiles each distinct system once, and forked batch workers inherit that
            with _profile_memo():
                code = globals()[args.func](args)
        finally:
            sys.stdout.flush()  # the output comes first; a failed flush is a write failure
        return code
    except OSError as exc:
        # stdout was closed early (say, piped into head) or an output is full
        _silence_failed(sys.stdout)
        code, line = 2, f"error: cannot write output: {exc.strerror or exc}"
        if isinstance(exc, BrokenPipeError):
            line = "error: stdout was closed before all output was written"
    except CrossCheckFailed as exc:
        # bhlink computed something wrong; the input is not at fault
        code, line = 3, f"cross-check failure: {exc}"
    except (_InputError, BhlinkError) as exc:
        code, line = 2, f"error: {exc}"
    # a stderr on the pipe of a stdout whose reader is gone is silenced too: the code stands
    try:
        print(line, file=sys.stderr)
    except OSError:
        _silence_failed(sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

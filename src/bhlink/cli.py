"""Command-line surface: single-instance analysis, batch CSV processing and
golden-table verification.

Exit codes: 0 success, 1 table verification mismatch, 2 invalid input,
3 internal cross-check failure.  The commands raise; :func:`main` alone maps
every failure to its one stderr line and exit code.  An internal failure is
reported today by where it happens: in the source profile of ``analyze`` or
``pipeline``, exit 3; in the dual of one ``pipeline`` representation, that
representation's ``error`` field, exit 0; in a ``batch`` row, that row's
``error`` column, exit 0; in ``verify-table``, a FAIL line, exit 1.  Exit 3
on every command is the planned contract change (ROADMAP item 4).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from itertools import chain
from pathlib import Path

from .duality import Verdict, checked_dual, is_twin, pipeline, se_certificate
from .errors import BhlinkError, CrossCheckFailed, NoRepresentation
from .fixture import ROWS, FixtureRow
from .invariants import HomologyProfile, _profile_memo, homology_profile
from .polynomial import classify
from .representation import count_representations, find_chain_cycle, iter_representations
from .weights import WeightSystem

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


def _parse_int(text: str, field: str) -> int:
    # for n <= 8 weights b3 <= mu < d^n, a torsion factor is at most prod u_i
    # <= d^n and a multiplicity at most max k <= 2^n d^n: a 500-digit degree
    # (and weights below it) keeps every printed integer under CPython's
    # 4,300-digit int-to-str limit.  Counted before int(), which refuses a
    # field of more than 4,300 digits with that limit's own message
    if len(text.strip().lstrip("+-").replace("_", "").lstrip("0")) > 500:
        raise ValueError(f"{field} has more than 500 digits")
    return int(text)


def _parse_weights(text: str) -> tuple[int, ...]:
    fields = text.replace(" ", "").split(",")
    if "" in fields:
        raise _InputError(f"weight field {fields.index('') + 1} of {text!r} is blank")
    try:
        weights = tuple(_parse_int(part, f"weight field {i}") for i, part in enumerate(fields, start=1))
    except ValueError as exc:
        raise _InputError(f"weights must be integers: {exc}")
    if not 5 <= len(weights) <= 8:
        raise _InputError(f"expected 5 to 8 weights, got {len(weights)}")
    return weights


def _build_system(args: argparse.Namespace) -> WeightSystem:
    weights = _parse_weights(args.weights)
    try:
        return WeightSystem(weights, _parse_int(args.degree, "the degree"))
    except (BhlinkError, ValueError) as exc:
        raise _InputError(f"invalid weight system: {exc}")


def _system_record(ws: WeightSystem) -> tuple[dict, HomologyProfile, int]:
    """``analyze``'s record of the data, its profile and its number of
    invertible representations: each command's source fields, computed once."""
    profile = homology_profile(ws)
    verdict = se_certificate(ws)
    count = count_representations(ws)
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
        # the torsion recursion is a theorem exactly for data carrying an
        # invertible polynomial; otherwise its output is conjectural
        "torsion_status": "certified" if count else "conjectural",
    }
    return record, profile, count


def cmd_analyze(args: argparse.Namespace) -> int:
    record, _, _ = _system_record(_build_system(args))
    if args.json:
        print(json.dumps(record, indent=2))
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
    record, source, _ = _system_record(ws)
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
        print(json.dumps({**head, "representations": payload}, indent=2))
        return 0
    if not reports:
        print(f"no invertible representation matches {ws}")
        return 0
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
        source, profile, count = _system_record(ws)
        out.update(
            {
                "b3": str(source["betti"]),
                "torsion": source["torsion_str"],
                "mu": str(source["milnor"]),
                "index": str(source["fano_index"]),
                "wellformed": str(source["wellformed_hypersurface"]).lower(),
                "se_verdict": source["se"]["verdict"],
                "n_reps": str(count),
            }
        )
        # report the chain-cycle dual when one exists (the shape whose dual
        # is genuinely new); otherwise the first representation in canonical
        # order with a nondegenerate dual, built only as far as that one
        try:
            first = [find_chain_cycle(ws)]
        except NoRepresentation:
            first = []
        for chosen in chain(first, iter_representations(ws)):
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


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _read_csv(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    """The header and records of a CSV file; a missing field reads as "" and
    fields past the header are listed under the key None.  Raises
    :class:`_InputError` for a path that is not a file, bytes that are not
    UTF-8, a record the csv module rejects or a header that repeats a column
    (a dict record would keep only its last value)."""
    if not path.is_file():
        raise _InputError(f"no such file {path}")
    try:
        # utf-8-sig drops the byte-order mark a spreadsheet export may start with
        with path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.DictReader(handle, restval="")
            header, records = list(reader.fieldnames or []), list(reader)
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
        # a pool forks all its workers at once: never more than rows or CPUs
        workers = min(args.jobs, len(records), _available_cpus())
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(process_batch_row, records, chunksize=8))
        else:
            results = [process_batch_row(record) for record in records]

        out_columns = list(header) + [c for c in BATCH_OUTPUT_COLUMNS if c not in header]
        writer = csv.DictWriter(output, fieldnames=out_columns)
        writer.writeheader()
        for row in results:
            writer.writerow(row)
    errors = sum(1 for row in results if row.get("error"))
    print(f"processed {len(results)} rows ({errors} with errors) -> {args.output}")
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
        value = _parse_int(factor, "a torsion factor")
        runs.append((value, _parse_int(count, "a torsion multiplicity") if caret else 1))
    return tuple(runs)


_FIXTURE_COLUMNS = (
    [f"w{i}" for i in range(5)] + [f"tw{i}" for i in range(5)] + ["dual_d", "dual_mu", "dual_torsion"]
)


def _load_fixture_csv(path: Path) -> list[FixtureRow]:
    """Read a golden-table CSV; :class:`_InputError` on an unreadable file, a
    header without the fixture columns, no rows, a row with more fields than
    the header or a field that does not parse."""
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
        if dual.dual_verdict.verdict is not Verdict.SASAKI_EINSTEIN:
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
    rows = _load_fixture_csv(Path(args.fixture)) if args.fixture else list(ROWS)
    passed = 0
    for row in rows:
        ok, detail = verify_row(row)
        passed += ok
        print(f"{'PASS' if ok else 'FAIL'}  {row.source}  {detail}")
    print(f"\n{passed}/{len(rows)} rows verified")
    return 0 if passed == len(rows) else 1


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
    parser = argparse.ArgumentParser(
        prog="bhlink",
        description=(
            "Exact topology of weighted-homogeneous hypersurface links, "
            "their transpose duals, twins and Sasaki-Einstein certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="profile of a single weight system")
    analyze.add_argument("-w", "--weights", required=True, help="comma-separated weights")
    analyze.add_argument("-d", "--degree", required=True)
    analyze.add_argument("--json", action="store_true")
    analyze.set_defaults(func="cmd_analyze")

    pipe = sub.add_parser("pipeline", help="dual report for every representation")
    pipe.add_argument("-w", "--weights", required=True, help="comma-separated weights")
    pipe.add_argument("-d", "--degree", required=True)
    pipe.add_argument("--json", action="store_true")
    pipe.set_defaults(func="cmd_pipeline")

    batch = sub.add_parser("batch", help="process a CSV of weight systems")
    batch.add_argument("input", help="CSV with header w0,w1,w2,w3,w4,d[,ke_status]")
    batch.add_argument("output", help="output CSV path")
    batch.add_argument("--jobs", type=_positive_int, default=1)
    batch.set_defaults(func="cmd_batch")

    verify = sub.add_parser("verify-table", help="check the embedded golden table")
    verify.add_argument("--fixture", help="override the embedded table with a CSV")
    verify.set_defaults(func="cmd_verify_table")

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # the command is looked up by name at call time, so a replaced cmd_* runs;
        # it profiles each distinct system once, and forked batch workers inherit that
        with _profile_memo():
            code = globals()[args.func](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early (say, piped into head); point it at devnull
        # so the flush at exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before all output was written", file=sys.stderr)
        return 2
    except CrossCheckFailed as exc:
        # bhlink computed something wrong; the input is not at fault
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return 3
    except (_InputError, BhlinkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())

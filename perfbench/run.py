"""Seeded benchmark of the four bhlink commands, driven in-process.

Usage, from the repository root:

    python3 perfbench/run.py --workload survey --seed 1 --seconds 30 --trace 0

One client sends ``bhlink`` command lines to ``bhlink.cli.main`` in a closed
loop: the next one is sent only after the previous one returns.  A round
runs ``verify-table``, sends one slice of the workload's batch rows to
``batch --jobs 1`` and ``--jobs 2``, then one slice of its systems to
``analyze --json`` and ``pipeline --json``, one call per system.  Rounds
repeat until the next one would overrun ``--seconds``.  With ``--trace 1``
untraced and traced rounds alternate and per-layer metrics are reported
instead.  Timed figures are scaled by the host speed that ``calibrate``
measures during each round.  See perfbench/README.md.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Exit code 1 means an output check failed, 2 that bhlink or its
test generators are not in this checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from pathlib import Path
from time import perf_counter

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 3
# Timed figures are scaled to a host on which calibrate() takes this long.
# A shared host drifts in speed by up to 2x over minutes; calibrating after
# every command of a round takes that drift out of the reported figures.
CALIBRATION_REF_S = 0.005


def calibrate() -> float:
    """Seconds taken by a fixed piece of exact arithmetic that uses no bhlink
    code: the host's speed at this moment."""
    start = perf_counter()
    total = Fraction(0)
    for subset in combinations(range(1, 14), 4):
        total += Fraction(subset[0] * subset[1], lcm(*subset)) - Fraction(gcd(*subset), subset[3])
    return perf_counter() - start


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _argv_system(command: str, system: workloads.System) -> list[str]:
    weights, degree = system
    return [command, "-w", ",".join(map(str, weights)), "-d", str(degree), "--json"]


def _slices(items: list, count: int) -> list[list]:
    return [items[i * len(items) // count:(i + 1) * len(items) // count] for i in range(count)]


def _write_csv(path: Path, rows: list[workloads.System]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["w0", "w1", "w2", "w3", "w4", "d"])
        for weights, degree in rows:
            writer.writerow([*weights, degree])


class Client:
    """One closed-loop client of ``bhlink.cli.main`` over one workload.

    Each command's inputs are cut into slices (``workload.slices``).  Round
    k sends slice k of every command, modulo its slice count, so that all
    metrics sample the same stretches of machine time.
    """

    def __init__(self, cli, workload: workloads.Workload, work: Path):
        self.cli = cli
        self.workload = workload
        self.rounds_per_pass = max(workload.slices.values())
        self.csv = []
        for k, rows in enumerate(_slices(workload.batch_rows, workload.slices["batch_rows"])):
            _write_csv(work / f"batch_{k}.csv", rows)
            self.csv.append((len(rows), work / f"batch_{k}.csv"))
        self.out = {1: work / "out_jobs1.csv", 2: work / "out_jobs2.csv"}
        self.argv = {
            kind: _slices([_argv_system(kind, s) for s in getattr(workload, kind)],
                          workload.slices[kind])
            for kind in ("analyze", "pipeline")
        }
        self.warm_csv = work / "warm.csv"
        _write_csv(self.warm_csv, workloads._golden()[:16])

    def call(self, argv: list[str]) -> tuple[int, str]:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = self.cli.main(argv)
        return code, buffer.getvalue()

    def _batch(self, r: dict, k: int, jobs: int, row_ms: list[float] | None) -> None:
        rows, path = self.csv[k % len(self.csv)]
        argv = ["batch", str(path), str(self.out[jobs]), "--jobs", str(jobs)]
        original = self.cli.process_batch_row

        def timed_row(record):
            t0 = perf_counter()
            try:
                return original(record)
            finally:
                row_ms.append((perf_counter() - t0) * 1e3)

        if row_ms is not None:
            self.cli.process_batch_row = timed_row
        try:
            start = perf_counter()
            code, _ = self.call(argv)
            seconds = perf_counter() - start
        finally:
            self.cli.process_batch_row = original
        self._unit(r, f"batch{jobs}", rows, seconds, row_ms or [])
        r["codes"].append(code)
        r[f"batch{jobs}_csv"].append(self.out[jobs].read_bytes())

    def _verify(self, r: dict) -> None:
        start = perf_counter()
        code, text = self.call(["verify-table"])
        self._unit(r, "verify", 75, perf_counter() - start, [])
        r["verify"].append((code, text))

    def _systems(self, r: dict, kind: str, k: int) -> None:
        argvs = self.argv[kind][k % len(self.argv[kind])]
        samples = []
        start = perf_counter()
        for argv in argvs:
            t0 = perf_counter()
            code, text = self.call(argv)
            samples.append((perf_counter() - t0) * 1e3)
            r[kind].append((code, text))
        self._unit(r, kind, len(argvs), perf_counter() - start, samples)

    @staticmethod
    def _unit(r: dict, kind: str, items: int, seconds: float, samples: list[float]) -> None:
        r["units"].append({"kind": kind, "items": items, "seconds": seconds, "samples": samples})
        r["calibration"].append(calibrate())

    def run_round(self, k: int, jobs2: bool = True, time_rows: bool = True) -> dict:
        """Slice k of every command; returns its timings and outputs."""
        r: dict = {
            "slice": k, "units": [], "calibration": [calibrate()], "codes": [],
            "batch1_csv": [], "batch2_csv": [], "verify": [], "analyze": [], "pipeline": [],
        }
        # verify-table runs once per round, and three times when a pass is one round
        extra_verify = self.rounds_per_pass == 1
        self._verify(r)
        self._batch(r, k, 1, [] if time_rows else None)
        if jobs2:
            self._batch(r, k, 2, None)
        if extra_verify:
            self._verify(r)
        self._systems(r, "analyze", k)
        if extra_verify:
            self._verify(r)
        self._systems(r, "pipeline", k)
        scale = CALIBRATION_REF_S / statistics.median(r["calibration"])
        for unit in r["units"]:
            unit["scale"] = scale
        return r

    def run_pass(self, jobs2: bool = True, time_rows: bool = True) -> list[dict]:
        return [self.run_round(k, jobs2, time_rows) for k in range(self.rounds_per_pass)]

    def warm_up(self) -> None:
        """One small request per command, so that lazy set-up is done."""
        golden = workloads._golden()
        self.call(_argv_system("analyze", golden[0]))
        self.call(_argv_system("pipeline", golden[0]))
        self.call(["verify-table"])
        for jobs in (1, 2):
            self.call(["batch", str(self.warm_csv), str(self.out[jobs]), "--jobs", str(jobs)])


def setup(name: str, seed: int, work: Path) -> tuple[Client, float, float]:
    """Import bhlink, build the corpus and warm up; timed as setup_s.

    Returns the client, the set-up time and its calibration scale."""
    calibration = [calibrate()]
    start = perf_counter()
    from bhlink import cli

    client = Client(cli, workloads.build(name, seed), work)
    client.warm_up()
    seconds = perf_counter() - start
    calibration += [calibrate(), calibrate()]
    return client, seconds, CALIBRATION_REF_S / statistics.median(calibration)


# ----- output checks ----------------------------------------------------------

BATCH_FIELDS = (
    "b3", "torsion", "mu", "n_reps", "dual_w", "dual_d", "dual_torsion", "dual_mu",
    "twin", "se_verdict", "dual_se", "error",
)


def _digest(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()


PIPELINE_REP_FIELDS = (
    "polynomial", "dual_weights", "dual_degree", "dual_torsion", "dual_milnor", "twin",
    "source_verdict", "dual_verdict", "error",
)


def _torsion_text(pairs: list[list[int]]) -> str:
    return "+".join(f"Z_{f}" + (f"^{m}" if m > 1 else "") for f, m in pairs) or "1"


class Checker:
    """Digests of the mathematical output fields, plus the output gates.

    The first time a slice is seen its outputs are checked and kept; every
    later round of that slice, traced or not, must reproduce them.
    """

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.items: dict[tuple[str, int], list] = {}  # (command, slice) -> output items
        self.verify_text: str | None = None
        self.profiles: dict = {}  # canonical system -> (b3, torsion text, mu)
        self.reps: dict = {}  # canonical system -> representation count
        self.dual_total = 0
        self.dual_distinct = 0
        self.inputs = {
            kind: _slices(getattr(workload, kind), count) for kind, count in workload.slices.items()
        }

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def _agree(self, system, profile, source: str) -> None:
        key = workloads.canonical(system)
        seen = self.profiles.setdefault(key, profile)
        if seen != profile:
            self.fail(f"{source} profile {profile} for {key} disagrees with {seen}")

    def _outputs(self, kind: str, k: int, outputs: list[tuple[int, str]]):
        """Parsed JSON records of one command's slice; non-zero exits fail."""
        for system, (code, text) in zip(self.inputs[kind][k % len(self.inputs[kind])], outputs):
            self.attempted += 1
            if code != 0:
                self.fail(f"{kind} {system} exited {code}")
                continue
            yield system, json.loads(text)

    def _first(self, kind: str, k: int) -> bool:
        return (kind, k % len(self.inputs[kind])) not in self.items

    def check_round(self, r: dict) -> None:
        k = r["slice"]
        for code in r["codes"]:
            self.attempted += 1
            if code != 0:
                self.fail(f"batch exited {code}")
        if r["batch2_csv"]:
            self.attempted += 1
            if r["batch2_csv"] != r["batch1_csv"]:
                self.fail(f"batch --jobs 1 and --jobs 2 outputs differ on slice {k}")
        for code, text in r["verify"]:
            self.attempted += 75
            lines = text.splitlines()
            fails = sum(line.startswith("FAIL") for line in lines)
            if code != 0 or fails or "75/75 rows verified" not in lines:
                self.fail(f"verify-table exited {code} with {fails} FAIL rows")
            if self.verify_text is None:
                self.verify_text = text
            elif text != self.verify_text:
                self.fail("verify-table output changed between runs of it")

        batch, first = [], self._first("batch_rows", k)
        systems = self.inputs["batch_rows"][k % len(self.inputs["batch_rows"])]
        rows = list(csv.DictReader(io.StringIO(r["batch1_csv"][0].decode())))
        if len(rows) != len(systems):
            self.fail(f"batch wrote {len(rows)} rows for {len(systems)} inputs")
        for system, row in zip(systems, rows):
            self.attempted += 1
            if row["error"]:
                self.fail(f"batch row {system}: {row['error']}")
            batch.append([row[f] for f in BATCH_FIELDS])
            if first:
                self._agree(system, (row["b3"], row["torsion"], row["mu"]), "batch")
                self.reps.setdefault(workloads.canonical(system), int(row["n_reps"] or 0))

        self._keep("batch_rows", k, batch)

        analyze, first = [], self._first("analyze", k)
        for system, record in self._outputs("analyze", k, r["analyze"]):
            analyze.append([record["weights"], record["degree"], record["betti"],
                            record["torsion"], record["milnor"], record["se"]["verdict"]])
            if first:
                profile = (str(record["betti"]), record["torsion_str"], str(record["milnor"]))
                self._agree(system, profile, "analyze")

        self._keep("analyze", k, analyze)

        pipeline, first = [], self._first("pipeline", k)
        for system, record in self._outputs("pipeline", k, r["pipeline"]):
            reps = record["representations"]
            pipeline.append([record["weights"], record["degree"], record["betti"],
                             record["torsion"], record["milnor"], len(reps),
                             [[rep.get(f) for f in PIPELINE_REP_FIELDS] for rep in reps]])
            if not first:
                continue
            profile = (str(record["betti"]), _torsion_text(record["torsion"]), str(record["milnor"]))
            self._agree(system, profile, "pipeline")
            self.reps.setdefault(workloads.canonical(system), len(reps))
            duals = [rep for rep in reps if "dual_weights" in rep]
            keys = {
                (tuple(sorted((rep["dual_degree"] // gcd(rep["dual_degree"], w),
                               w // gcd(rep["dual_degree"], w)) for w in rep["dual_weights"])),
                 rep["dual_degree"])
                for rep in duals
            }
            self.dual_total += len(duals)
            self.dual_distinct += len(keys)
            if system in self.workload.twin_expected and not any(rep.get("twin") for rep in reps):
                self.fail(f"twin theorem: no twin dual among the representations of {system}")

        self._keep("pipeline", k, pipeline)

    def _keep(self, kind: str, k: int, items: list) -> None:
        """Keep a slice's outputs the first time; later rounds must match."""
        key = (kind, k % len(self.inputs[kind]))
        if key not in self.items:
            self.items[key] = items
        elif items != self.items[key]:
            self.fail(f"{kind} outputs of slice {key[1]} changed between rounds")

    @property
    def digests(self) -> dict[str, str]:
        """One digest per command over every slice, in slice order."""
        out = {"verify": _digest(self.verify_text)}
        for command, kind in (("batch", "batch_rows"), ("analyze", "analyze"), ("pipeline", "pipeline")):
            slices = range(len(self.inputs[kind]))
            out[command] = _digest([x for k in slices for x in self.items[(kind, k)]])
        return out

    def check_reference(self, counts: dict, reference: dict | None = None) -> None:
        """Compare with the digests and counts recorded for the reference seed."""
        if reference is None:
            reference = json.loads(REFERENCE.read_text())
        self.attempted += 1
        if self.digests["verify"] != reference["verify"]:
            self.fail("verify-table digest differs from the reference")
        entry = reference["workloads"].get(self.workload.name)
        if entry is None:
            self.fail(f"no reference digests for workload {self.workload.name}")
            return
        if self.workload.seed != entry["seed"]:
            return
        self.attempted += 1
        if counts["corpus_sha256"] != entry["corpus_sha256"]:
            self.fail("corpus differs from the reference corpus")
        self.attempted += 1
        if {k: v for k, v in counts.items() if k != "corpus_sha256"} != entry["counts"]:
            self.fail("workload counts differ from the reference counts")
        for command, value in entry["digests"].items():
            self.attempted += 1
            if self.digests[command] != value:
                self.fail(f"{command} digest differs from the reference")


def workload_counts(client: Client, checker: Checker) -> dict:
    """Exact properties of the inputs; they repeat from run to run."""
    from bhlink import WeightSystem
    from bhlink.invariants import orlik_torsion

    wl = client.workload
    systems = [workloads.canonical(s) for s in wl.systems()]
    depth = {s: orlik_torsion(WeightSystem(*s))[0].r for s in set(systems)}
    return {
        "systems": len(systems),
        "batch_rows": len(wl.batch_rows),
        "analyze_systems": len(wl.analyze),
        "pipeline_systems": len(wl.pipeline),
        "reps_total": sum(checker.reps.get(s, 0) for s in systems),
        "torsion_r_total": sum(depth[s] for s in systems),
        "repeated_system_share": 1 - len(depth) / len(systems),
        "duplicate_dual_share": 1 - checker.dual_distinct / checker.dual_total if checker.dual_total else 0.0,
        "corpus_sha256": wl.sha256(),
    }


# ----- measurement ------------------------------------------------------------


def _units(rounds: list[dict], kind: str) -> list[dict]:
    return [u for r in rounds for u in r["units"] if u["kind"] == kind]


def _checked(checker: Checker, rounds: list[dict]) -> list[dict]:
    """Check each round's outputs, then keep only its timings."""
    for r in rounds:
        checker.check_round(r)
        for key in ("batch1_csv", "batch2_csv", "verify", "analyze", "pipeline"):
            del r[key]
    return rounds


def summarize(rounds: list[dict], scaled: bool) -> dict[str, float]:
    """The timed end-to-end metrics, calibrated or as read off the clock."""
    med = statistics.median

    def factor(unit):
        return unit["scale"] if scaled else 1.0

    def rate(kind):
        """Median over all slices sent of items per second."""
        return med(u["items"] / (u["seconds"] * factor(u)) for u in _units(rounds, kind))

    def p50(kind):
        return med(ms * factor(u) for u in _units(rounds, kind) for ms in u["samples"])

    def p99(kind):
        # the 1% tail comes from a few rounds, so one round's calibration
        # error would land on it in full: scale by the run's median instead
        run_factor = med(factor(r["units"][0]) for r in rounds)
        return percentile([ms for u in _units(rounds, kind) for ms in u["samples"]], 99) * run_factor

    return {
        "batch_rows_per_s": rate("batch1"),
        "batch_rows_per_s_jobs2": rate("batch2"),
        "row_ms_p50": p50("batch1"),
        "row_ms_p99": p99("batch1"),
        "verify_table_s": med(u["seconds"] * factor(u) for u in _units(rounds, "verify")),
        "pipeline_systems_per_s": rate("pipeline"),
        "pipeline_ms_p50": p50("pipeline"),
        "pipeline_ms_p99": p99("pipeline"),
        "analyze_systems_per_s": rate("analyze"),
    }


def measure(client: Client, checker: Checker, seconds: float) -> tuple[dict, dict]:
    """One full pass, then further rounds in slice order until the next
    round would overrun ``seconds``.  Returns calibrated and raw metrics."""
    count = client.rounds_per_pass
    rounds: list[dict] = []
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        rounds += _checked(checker, [client.run_round(len(rounds) % count)])
        if len(rounds) == count:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if len(rounds) >= count and perf_counter() + (perf_counter() - start) > deadline:
            break
    print("samples " + json.dumps({
        "rounds": len(rounds), "rounds_per_pass": count,
        **{f"{kind}_units": len(_units(rounds, kind)) for kind in ("batch1", "verify", "analyze", "pipeline")},
        "row_ms": sum(len(u["samples"]) for u in _units(rounds, "batch1")),
        "pipeline_ms": sum(len(u["samples"]) for u in _units(rounds, "pipeline")),
    }))
    calibrated, raw = summarize(rounds, scaled=True), summarize(rounds, scaled=False)
    calibrated["peak_rss_mb"] = raw["peak_rss_mb"] = peak_rss_mb
    return calibrated, raw


def measure_traced(client: Client, checker: Checker, seconds: float) -> dict[str, float]:
    """Untraced and traced rounds alternate; per-layer medians over traced passes.

    Traced rounds leave out ``batch --jobs 2``: spans in forked workers are
    out of reach.  Tracing overhead is traced wall minus untraced wall over
    the same requests, summed over a pass.
    """
    per_pass: list[dict[str, float]] = []
    overhead_ms: list[float] = []
    efficiency: list[float] = []
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        tracer = layers.Tracer()
        overhead = 0.0
        for k in range(client.rounds_per_pass):
            plain = _checked(checker, [client.run_round(k, time_rows=False)])
            jobs1, jobs2 = _units(plain, "batch1")[0], _units(plain, "batch2")[0]
            efficiency.append(jobs1["seconds"] / (2 * jobs2["seconds"]))
            with tracer:
                traced = _checked(checker, [client.run_round(k, jobs2=False, time_rows=False)])
            overhead += sum(
                sign * u["seconds"] for sign, rounds in ((-1, plain), (1, traced))
                for r in rounds for u in r["units"] if u["kind"] != "batch2"
            )
        per_pass.append(layers.layer_metrics(tracer.spans))
        overhead_ms.append(overhead * 1e3)
        del tracer
        if perf_counter() + (perf_counter() - start) > deadline:
            break
    leftovers = layers.leftover_wrappers()
    checker.attempted += 1
    if leftovers:
        checker.fail(f"tracing wrappers left behind: {leftovers}")
    print("samples " + json.dumps({"traced_passes": len(per_pass), "overhead_ms": overhead_ms}))
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out["cli.batch.parallel_efficiency"] = statistics.median(efficiency)
    out["trace.overhead_ms"] = statistics.median(overhead_ms)
    return out


def _setup_in_child(name: str, seed: int) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, scale = proc.stdout.split()[-2:]
    return float(seconds), float(scale)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so that a running batch pool joins its workers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    src, generators = ROOT / "src" / "bhlink" / "__init__.py", ROOT / "tests" / "generators.py"
    if not src.is_file() or not generators.is_file():
        print(f"error: {src} or {generators} is missing; run from a bhlink checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            _, seconds, scale = setup(args.workload, args.seed, work)
            print(f"setup_s {seconds!r} {scale!r}")
            return 0
        setups = []
        if not args.trace:
            setups = [_setup_in_child(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
        client, seconds, scale = setup(args.workload, args.seed, work)
        setups.append((seconds, scale))
        import bhlink

        if Path(bhlink.__file__).resolve().parent != src.parent.resolve():
            print(f"error: imported bhlink from {bhlink.__file__}", file=sys.stderr)
            return 2
        checker = Checker(client.workload)
        if args.trace:
            values = measure_traced(client, checker, args.seconds)
        else:
            values, raw = measure(client, checker, args.seconds)
            values["setup_s"] = statistics.median(s * scale for s, scale in setups)
            raw["setup_s"] = statistics.median(s for s, _ in setups)
        counts = workload_counts(client, checker)
        checker.check_reference(counts)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(
        f"workload {args.workload}  seed {args.seed}  python {platform.python_version()}  "
        f"nproc {os.cpu_count()}  corpus_sha256 {counts['corpus_sha256']}"
    )
    print("counts " + json.dumps(counts))
    print("digests " + json.dumps(checker.digests))
    if not args.trace:
        print("setups_s_scale " + json.dumps(setups))
        print("uncalibrated " + json.dumps(raw))
    metrics = spec_metrics(bool(args.trace))
    named = {m["name"] for m in metrics}
    # measured too, but too unsteady on a shared host to carry a bound
    print("unbounded " + json.dumps({k: v for k, v in values.items() if k not in named}))
    result = report(values, checker, metrics)
    return 0 if result["correct"] else 1


def spec_metrics(trace: bool) -> list[dict]:
    """The metrics BENCHMARK.json names for this mode, with their units."""
    spec = json.loads(SPEC.read_text())
    return spec["per_layer" if trace else "end_to_end"]


def report(values: dict[str, float], checker: Checker, metrics: list[dict]) -> dict:
    """Print every named metric with its unit, then the JSON result line."""
    for message in checker.failures:
        print(f"FAILED {message}")
    for metric in metrics:
        print(f"{metric['name']:50s} {values[metric['name']]:>14.6g} {metric['unit']}")
    result = {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics
        },
    }
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself, on a tiny seeded corpus.

Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent / "tests")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def tiny(seed: int = 3) -> workloads.Workload:
    wl = workloads.survey(seed)
    rows = wl.batch_rows[:3] + wl.batch_rows[-3:]
    wide = [workloads.WIDE[0]]
    slices = {"batch_rows": 2, "analyze": 2, "pipeline": 1}
    return workloads.Workload("survey", seed, rows, rows + wide, rows[:2] + wide, slices)


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        from bhlink import cli

        self.client = run.Client(cli, tiny(), Path(self._tmp.name))

    def tearDown(self):
        self._tmp.cleanup()

    def _report(self, values, checker, trace: bool) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.report(values, checker, run.spec_metrics(trace))
        lines = out.getvalue().splitlines()
        result = json.loads(lines[-1])
        for metric in run.spec_metrics(trace):
            name, unit = metric["name"], metric["unit"]
            self.assertEqual(result["metrics"][name]["unit"], unit)
            self.assertTrue(any(line.split()[:1] == [name] and line.endswith(unit) for line in lines))
        return result

    def test_every_metric_prints_with_its_unit(self):
        with contextlib.redirect_stdout(io.StringIO()):
            checker = run.Checker(self.client.workload)
            values, raw = run.measure(self.client, checker, seconds=0)
            self.assertEqual(values.keys(), raw.keys())
            values.update(setup_s=0.1)
            result = self._report(values, checker, trace=False)
            self.assertTrue(result["correct"], checker.failures)

            checker = run.Checker(self.client.workload)
            values = run.measure_traced(self.client, checker, seconds=0)
            result = self._report(values, checker, trace=True)
        self.assertTrue(result["correct"], checker.failures)
        self.assertGreater(values["invariants.orlik_torsion.calls"], 0)

    def test_wrappers_are_all_restored(self):
        import bhlink
        from bhlink import cli, duality, invariants, polynomial

        original = invariants.homology_profile
        with layers.Tracer() as tracer:
            self.assertIsNot(cli.homology_profile, original)
            self.assertIs(cli.homology_profile, duality.homology_profile)
            self.assertIs(bhlink.homology_profile, invariants.homology_profile)
            self.assertTrue(layers.leftover_wrappers())
            self.client.call(run._argv_system("pipeline", workloads.WIDE[0]))
        self.assertEqual(layers.leftover_wrappers(), [])
        self.assertIs(cli.homology_profile, original)
        self.assertIs(duality.homology_profile, original)
        self.assertFalse(hasattr(polynomial.InvertiblePolynomial.validate, "__perfbench_original__"))
        names = {span[layers.NAME] for span in tracer.spans}
        self.assertIn("polynomial.validate", names)
        self.assertIn("invariants.homology_profile", names)

    def test_perturbed_result_fails_the_digest_gate(self):
        from bhlink import cli

        checker = run.Checker(self.client.workload)
        run._checked(checker, self.client.run_pass())
        self.assertEqual(checker.failures, [])
        counts = run.workload_counts(self.client, checker)
        reference = {
            "verify": checker.digests["verify"],
            "workloads": {"survey": {
                "seed": 3, "corpus_sha256": counts["corpus_sha256"], "digests": checker.digests,
                "counts": {k: v for k, v in counts.items() if k != "corpus_sha256"},
            }},
        }
        checker.check_reference(counts, reference)
        self.assertEqual(checker.failures, [])

        original = cli.homology_profile

        def perturbed(ws):
            profile = original(ws)
            return dataclasses.replace(profile, mu=profile.mu + 1)

        cli.homology_profile = perturbed
        try:
            perturbed_pass = self.client.run_pass()
        finally:
            cli.homology_profile = original
        fresh = run.Checker(self.client.workload)
        for r in perturbed_pass:
            fresh.check_round(dict(r))
        fresh.check_reference(counts, reference)
        self.assertTrue(any("digest differs" in f for f in fresh.failures), fresh.failures)
        run._checked(checker, perturbed_pass)
        self.assertTrue(any("changed between rounds" in f for f in checker.failures))


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-test of the benchmark harness on small inputs (well under a minute).

    python3 perfbench/selftest.py

Checks that the metric names and units the harness emits are exactly those
in ``BENCHMARK.json``, that the correctness gate fails on a perturbed
reference and on a bound that does not hold, and that the traced pass
puts every wrapped function back.
"""

from __future__ import annotations

import copy
import json
import shutil
import tempfile
import time
import unittest
from pathlib import Path

import run  # first: fixes the BLAS thread count before numpy loads
import gate
import tracer
import workloads
from workloads import Invocation


def tiny_workload(seed: int) -> workloads.Workload:
    """Every subcommand once, on graphs of at most 6 vertices."""
    graphs = {"g6.json": workloads.gnp_graph(seed, 6), "c6.json": workloads.cycle_graph(6)}
    return workloads.build_workload("tiny", seed, graphs, [
        Invocation("spectrum:g6", "spectrum", (), "g6.json"),
        Invocation("constants:g6", "constants", (), "g6.json"),
        Invocation("bounds:g6", "bounds", ("--l-list", "2,3"), "g6.json"),
        Invocation("neighborhood:g6:l66", "neighborhood", ("--l", "66"), "g6.json"),
        Invocation("curves:complete", "curves",
                   ("--family", "complete", "--grid", "3:5:1", "--l-list", "1,2", "--format", "json"),
                   seeded=False),
        Invocation("walk:c6:l2", "walk", ("--l", "2", "--format", "json"), "c6.json", seeded=False),
        Invocation("cml:g6", "cml", ("--eps", "0.9", "--steps", "200", "--trials", "2"), "g6.json"),
    ])


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.import_program()
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        cls.wl = tiny_workload(workloads.DEFAULT_SEED)
        (run.HERE / ".work").mkdir(exist_ok=True)
        cls.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.HERE / ".work"))
        cls.wl.write_inputs(cls.workdir)
        cls.env = run.child_env()
        outputs = {}
        for inv in cls.wl.invocations:
            c = run.run_child(run.cli_cmd(inv.argv(cls.workdir)), cls.workdir, cls.env)
            assert c.code == 0, c.stderr
            outputs[inv.id] = json.loads(c.stdout)
        cls.reference = {"seed": workloads.DEFAULT_SEED, "outputs": outputs}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def checker(self, reference=None):
        return run.Checker(self.wl, reference or self.reference)

    def assert_names_and_units(self, metrics: dict, section: str):
        want = {m["name"]: m["unit"] for m in self.spec[section]}
        got = {name: unit for name, (_, unit) in metrics.items()}
        self.assertEqual(got, want)

    def test_end_to_end_metrics_match_benchmark_json(self):
        checker = self.checker()
        metrics, _ = run.end_to_end(self.wl, self.workdir, self.env, 0, checker, time.perf_counter())
        self.assert_names_and_units(metrics, "end_to_end")
        self.assertEqual(checker.tally.failed, 0, checker.tally.problems)
        self.assertTrue(all(v > 0 for v, _ in metrics.values()))

    def test_per_layer_metrics_match_benchmark_json_and_restore(self):
        before = tracer.bindings()
        checker = self.checker()
        metrics, samples = run.per_layer(self.wl, self.workdir, self.env, checker)
        self.assert_names_and_units(metrics, "per_layer")
        self.assertEqual(checker.tally.failed, 0, checker.tally.problems)
        # per-invocation counts add up to the pass totals; the counts
        # themselves belong to the program and may change
        per_inv = samples["per_invocation_calls_distinct"]
        for name in tracer.KEYED:
            pairs = [c[name] for c in per_inv.values() if name in c]
            self.assertTrue(all(1 <= d <= c for c, d in pairs), name)
            self.assertEqual(sum(c for c, _ in pairs), metrics[f"{name}.calls"][0], name)
            self.assertEqual(sum(d for _, d in pairs), metrics[f"{name}.distinct"][0], name)
        after = tracer.bindings()
        self.assertEqual(before.keys(), after.keys())
        self.assertEqual([k for k in before if before[k] is not after[k]], [])

    def test_tracer_wraps_direct_imports_then_restores(self):
        import lapspec.cli
        import lapspec.spectral

        original = lapspec.spectral.spectrum
        with tracer.Tracer().installed():
            self.assertIsNot(lapspec.cli.spectrum, original)
            self.assertIs(lapspec.cli.spectrum, lapspec.spectral.spectrum)
        self.assertIs(lapspec.cli.spectrum, original)
        self.assertIs(lapspec.spectral.spectrum, original)

    def test_gate_fails_on_perturbed_reference(self):
        ref = self.reference["outputs"]
        perturbations = {
            "constants:g6": lambda o: o["h"].__setitem__("value", o["h"]["value"] * (1 + 1e-6)),
            "bounds:g6": lambda o: o["reports"][0].__setitem__("applicable", not o["reports"][0]["applicable"]),
            "spectrum:g6": lambda o: o["eigenfunctions"][1].__setitem__(0, o["eigenfunctions"][1][0] + 1e-6),
            "walk:c6:l2": lambda o: o["reports"].pop(),
            "cml:g6": lambda o: o.pop("mu"),
        }
        for inv_id, perturb in perturbations.items():
            bad = copy.deepcopy(self.reference)
            perturb(bad["outputs"][inv_id])
            checker = self.checker(bad)
            run.child_pass(self.wl, self.workdir, self.env, checker)
            self.assertEqual(checker.tally.failed, 1, inv_id)
            self.assertTrue(checker.tally.problems[0].startswith(inv_id), checker.tally.problems)
        self.assertEqual(gate.compare(ref, copy.deepcopy(ref)), [])

    def test_gate_fails_on_a_bound_that_does_not_hold(self):
        inv = self.wl.invocations[2]
        out = copy.deepcopy(self.reference["outputs"][inv.id])
        w = self.wl.weights(inv.graph)
        self.assertEqual(gate.check_invariants(inv, out, w), [])
        cheeger = next(r for r in out["reports"] if r["name"] == "cheeger")
        cheeger["upper"] = out["lambda1"] / 2
        self.assertTrue(any("does not hold" in p for p in gate.check_invariants(inv, out, w)))

    def test_failed_exit_counts_as_failure(self):
        checker = self.checker()
        checker.check(self.wl.invocations[0], 1, "", "error[Disconnected]: graph is not connected\n")
        self.assertEqual((checker.tally.attempted, checker.tally.failed), (1, 1))


if __name__ == "__main__":
    unittest.main()

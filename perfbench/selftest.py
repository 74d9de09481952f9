"""Tests of the benchmark itself (not part of the gapeig test suite).

Run from the repository root:

    PYTHONPATH=src python3 perfbench/selftest.py

They take about half a minute: each workload runs once in-process, untraced and
traced, so that the output checks can be shown to accept real outputs and
to reject corrupted copies of them.
"""

import csv
import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bench  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from gapeig import bloch, cli, supercell  # noqa: E402

SEEDS = range(5)


def rewrite_csv(path, edit):
    """Apply edit(rows) to the dict rows of a CSV file and write it back."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        fields = reader.fieldnames
        rows = list(reader)
    edit(rows)
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fields, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


class GeneratedConfigs(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def test_configs_validate_and_repeat(self):
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                path = os.path.join(self.tmp, "%s-%d.json" % (name, seed))
                workloads.write_config(name, seed, path)  # raises ConfigError if invalid
                self.assertEqual(cli.load_config(path), workloads.make_config(name, seed))
            a, b = workloads.make_config(name, 1), workloads.make_config(name, 2)
            self.assertEqual(a["potential"], b["potential"])
            self.assertNotEqual(a["perturbation"], b["perturbation"])

    def test_jitter_keeps_defect_count(self):
        for name, L, N, want in (("pollution-1d", 20, 320, 2), ("defect-2d", 2, 15, 2)):
            # 2D: one defect eigenvalue plus the band-edge value that the
            # small cell leaves inside the window (see workloads.py).
            cfg = workloads.make_config(name, 0)
            _, V, _ = cli.build_problem(cfg)
            gap = cfg["gap"]
            gw = bloch.find_gap(bloch.band_structure(V, M_q=gap.get("M_q")), 1)
            for seed in SEEDS:
                _, V, W = cli.build_problem(workloads.make_config(name, seed))
                res = supercell.supercell_spectrum(V, W, L, N, gw, method="dense")
                self.assertEqual(len(res.interior()), want, (name, seed, res.interior()))


class SelfTime(unittest.TestCase):
    # (id, name, start, end, parent, run)
    SPANS = [
        (0, "cli.main", 0.0, 10.0, None, 1),
        (1, "cli.load_config", 0.0, 1.0, 0, 1),
        (2, "fem1d.galerkin_spectrum", 2.0, 7.0, 0, 1),
        (3, "eigcore.SymmetricPencil.__init__", 2.5, 3.0, 2, 1),
        (4, "eigcore.solve_window", 3.0, 6.0, 2, 1),
        (5, "cli.write_csv", 8.0, 8.5, 0, 1),
    ]

    def test_self_times(self):
        own = layers.self_times(self.SPANS)
        self.assertEqual(own, {0: 3.5, 1: 1.0, 2: 1.5, 3: 0.5, 4: 3.0, 5: 0.5})

    def test_run_metrics(self):
        m = layers.run_metrics(self.SPANS, {"eigcore.solve_window_dof": 200, "eigcore.window_returned": 3})
        self.assertEqual(m["eigcore.solve_window_s"], 3.0)
        self.assertEqual(m["fem1d.galerkin_spectrum_s"], 1.5)
        self.assertEqual(m["cli.write_s"], 0.5)
        self.assertEqual(m["eigcore.window_yield"], 0.015)
        # glue is cli.main's own 3.5 s out of 10 - 1 s outside set-up
        self.assertAlmostEqual(m["trace.coverage"], 1.0 - 3.5 / 9.0)

    def test_nested_spans_from_tracer(self):
        t = layers.Tracer()
        t.begin_run()
        with t.span("a"):
            with t.span("b"):
                pass
        with t.span("c"):
            pass
        self.assertEqual([(s[1], s[4], s[5]) for s in t.spans], [("a", None, 1), ("b", 0, 1), ("c", None, 1)])


class Workloads(unittest.TestCase):
    """Each workload once in-process, untraced and traced; checks on real and corrupted outputs."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.mkdtemp()
        cls.runs = {}
        for name in workloads.WORKLOADS:
            work = os.path.join(cls.tmp, name)
            os.makedirs(work)
            config = workloads.write_config(name, 3, os.path.join(work, "config.json"))
            tracer = layers.Tracer()
            reps = bench.run_in_process(workloads.WORKLOADS[name]["steps"], config, work, 0, tracer)
            bench.check_reps(name, config, reps)
            refs = workloads.references(name, config, workloads.read_window(reps[0]["out"]))
            cls.runs[name] = (reps, tracer, refs)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def corrupt(self, name, filename, edit):
        reps, _, refs = self.runs[name]
        out = os.path.join(tempfile.mkdtemp(dir=self.tmp), "out")
        shutil.copytree(reps[1]["out"], out)
        rewrite_csv(os.path.join(out, filename), edit)
        with self.assertRaises(workloads.CheckFailed):
            workloads.CHECKS[name](out, refs)

    def test_real_outputs_pass(self):
        for name, (reps, _, _) in self.runs.items():
            self.assertEqual([r["error"] for r in reps], [None, None], name)
            self.assertGreater(reps[0]["ref_err"], 0.0)
            self.assertEqual(reps[0]["ref_err"], reps[1]["ref_err"])

    def test_per_layer_names_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, (reps, tracer, _) in self.runs.items():
            samples = bench.per_layer_samples(reps, tracer)
            self.assertEqual({k: layers.unit(k) for k in samples}, names, name)
            self.assertGreater(samples["trace.coverage"][0], 0.9, name)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, bench.END_TO_END_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_pollution_rejects_unpredicted_spurious_value(self):
        def shift(rows):
            r = next(r for r in rows if r["class"] == "spurious")
            r["eigenvalue"] = repr(float(r["eigenvalue"]) + 0.1)

        self.corrupt("pollution-1d", "pollution.csv", shift)

    def test_pollution_rejects_missing_pollution(self):
        def clean(rows):
            for r in rows:
                if r["class"] == "spurious":
                    r["class"] = "undetermined"

        self.corrupt("pollution-1d", "pollution.csv", clean)

    def test_augment_rejects_spurious_row(self):
        def pollute(rows):
            rows[-1]["class"] = "spurious"

        self.corrupt("augment-1d", "augment.csv", pollute)

    def test_augment_rejects_wrong_value(self):
        def move(rows):
            r = next(r for r in rows if r["class"] == "true")
            r["eigenvalue"] = repr(float(r["eigenvalue"]) + 0.05)

        self.corrupt("augment-1d", "augment.csv", move)

    def test_augment_rejects_stalled_convergence(self):
        def stall(rows):
            for r in rows:
                if r["L"] == "40" and r["class"] == "interior":
                    r["eigenvalue"] = repr(float(r["eigenvalue"]) + 1e-3)

        self.corrupt("augment-1d", "supercell.csv", stall)

    def test_defect_rejects_iterative_mismatch(self):
        def nudge(rows):
            r = next(r for r in rows if r["class"] == "interior")
            r["eigenvalue"] = repr(float(r["eigenvalue"]) + 1e-6)

        self.corrupt("defect-2d", "supercell.csv", nudge)


if __name__ == "__main__":
    unittest.main()

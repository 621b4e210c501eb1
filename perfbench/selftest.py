"""Self-tests of the campaign benchmark (stdlib unittest, about two minutes).

Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import run  # noqa: E402
import worker  # noqa: E402

SCRATCH = os.path.join(ROOT, run.OUT_DIR, "selftest")


def setUpModule():
    os.chdir(ROOT)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_main(workloads, name, trace, seconds=0):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", name, "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
            workloads,
        )
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


class WorkloadsPrintTheirMetrics(unittest.TestCase):
    def test_every_workload_at_minimal_reps(self):
        spec = _spec()
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        small = {name: replace(w, reps=2) for name, w in run.WORKLOADS.items()}
        for name in small:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    code, lines, result = _run_main(small, name, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], lines)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in spec[key]}
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
                    for metric in list(expected) + ["time_to_1pct_s", "failed_frac"]:
                        line = next(l for l in lines if l.split()[:1] == [metric])
                        self.assertEqual(line.split()[-1], run.unit_of(metric))
                    self.assertTrue(any(l.startswith("oracle: ") and "oracle_z=" in l for l in lines))
                    self.assertTrue(any(l.startswith("provenance: ") for l in lines))
                    if trace:
                        m = {l.split()[0]: float(l.split()[1]) for l in lines if l.startswith("  ")
                             and len(l.split()) == 3}
                        self.assertAlmostEqual(
                            m["campaigns.self_s"] + m["campaigns.children_s"], m["campaigns.run_s"],
                            delta=1e-6 * m["campaigns.run_s"] + 1e-5,
                        )


class OutputChecks(unittest.TestCase):
    def test_oracle_check_rejects_a_scaled_row(self):
        workload = replace(run.WORKLOADS["lattice-2d"], reps=40)
        call = run.run_call(SRC, SCRATCH, workload, 7, False, 120)
        self.assertTrue(call["ok"], call.get("error"))
        expected, expected_se = run.expected_ratio(workload, 7)
        finest = call["rows"][-1]
        self.assertTrue(run.oracle_check([finest], expected, expected_se)["ok"])
        corrupted = dict(finest, mean_ratio=1.1 * finest["mean_ratio"])
        self.assertFalse(run.oracle_check([corrupted], expected, expected_se)["ok"])

    def test_failing_cli_run_counts_in_failed_frac(self):
        # 0.3 does not divide the half width 8, so the CLI exits with code 2
        broken = {"broken": replace(run.WORKLOADS["lattice-2d"], deltas=(0.3,), reps=2)}
        code, lines, result = _run_main(broken, "broken", 0)
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])
        failed_frac = next(l for l in lines if l.split()[:1] == ["failed_frac"])
        self.assertEqual(float(failed_frac.split()[1]), 1.0)

    def test_lattice_3d_output_is_identical_at_one_and_two_threads(self):
        base = replace(run.WORKLOADS["lattice-3d"], reps=4)
        digests = []
        for threads in (1, 2):
            call_dir = os.path.join(SCRATCH, f"threads{threads}")
            call = run.run_call(SRC, call_dir, replace(base, threads=threads), 11, False, 120)
            self.assertTrue(call["ok"], call.get("error"))
            digests.append(call["csv_sha256"])
        self.assertEqual(digests[0], digests[1])

    def test_directory_without_the_program_is_refused(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lattice-2d", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class TraceAccounting(unittest.TestCase):
    def test_self_time_is_run_time_outside_the_union_of_children(self):
        S = worker.Span
        spans = [
            S(1, None, "cli.main", 0.0, 10.0, 1, {}),
            S(2, 1, "campaigns.run", 1.0, 9.0, 1, {"threads": 2}),
            S(3, 2, "sampling.grid", 2.0, 5.0, 1, {"shape": [4, 4]}),
            S(4, 2, "sampling.grid", 3.0, 6.0, 2, {"shape": [4, 4]}),
            S(5, 3, "sampling.grid_nodes", 2.0, 2.5, 1, {}),
            S(6, 2, "estimators.surface", 7.0, 8.0, 1, {}),
        ]
        m = worker.layer_summary(spans)
        self.assertAlmostEqual(m["campaigns.children_s"], 5.0)  # [2, 6] and [7, 8]
        self.assertAlmostEqual(m["campaigns.self_s"], 3.0)
        self.assertAlmostEqual(m["campaigns.busy_frac"], 7.0 / (2 * 8.0))
        self.assertAlmostEqual(m["sampling.grid_first_s"], 3.0)
        self.assertEqual(m["sampling.grid_calls"], 2)
        self.assertEqual(m["sampling.grid_torus_points"], 2 * 64)


if __name__ == "__main__":
    unittest.main()

"""Self-tests of the benchmark (not of the system it measures).

    python3 -m unittest discover -s perfbench/tests -v

The run-based tests build the driver and make short runs of every
workload (about three minutes in all; fuzz runs are long because every
window completes at least 200 ops, enough for the p95).
"""

import importlib.util
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_PY = HERE.parent / "run.py"
ROOT = HERE.parent.parent

spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

SEED = 7
_cache = {}


def bench(workload, trace=0, *extra, again=False):
    """Result line of one short run (memoized unless again=True)."""
    key = (workload, trace, extra)
    if again or key not in _cache:
        proc = subprocess.run(
            [sys.executable, str(RUN_PY), "--workload", workload, "--seed",
             str(SEED), "--seconds", "1", "--trace", str(trace), *extra],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise AssertionError(f"{workload} trace={trace} exited "
                                 f"{proc.returncode}:\n{proc.stderr[-3000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if again:
            return result
        _cache[key] = result
    return _cache[key]


class PercentileTest(unittest.TestCase):
    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(ValueError):
            run.percentile(list(range(199)), 0.95)
        with self.assertRaises(ValueError):
            run.percentile([1.0] * 10, 0.50)

    def test_nearest_rank(self):
        values = list(range(1, 201))  # 1..200
        self.assertEqual(run.percentile(values, 0.95), 190)
        self.assertEqual(run.percentile(values, 0.50), 100)


class EnvTest(unittest.TestCase):
    def test_knobs_unset_and_jobs_clamped(self):
        env, unset, jobs = run.clean_env(
            {"FPINT_SIM_FAST": "0", "FPINT_JOBS": "100000", "PATH": "/bin"})
        self.assertEqual(unset, ["FPINT_SIM_FAST"])
        self.assertNotIn("FPINT_SIM_FAST", env)
        self.assertGreaterEqual(jobs, 1)
        self.assertLess(jobs, 100000)
        self.assertEqual(env["FPINT_JOBS"], str(jobs))
        self.assertEqual(run.clean_env({"FPINT_JOBS": "x"})[2],
                         run.clean_env({})[2])


class MetricNamesTest(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)

    def test_printed_names_match(self):
        for workload in run.WORKLOADS:
            for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    r = bench(workload, trace)
                    self.assertEqual(sorted(r), ["attempted", "correct",
                                                 "failed", "metrics"])
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertEqual(list(r["metrics"]), list(table))
                    for name, m in r["metrics"].items():
                        self.assertEqual(m["unit"], table[name])
                        if trace == 0:
                            self.assertGreater(m["value"], 0, name)



class NestingTest(unittest.TestCase):
    # [op, index, parent, name, start, end]
    GOOD = [[0, 0, -1, "op", 0.0, 10.0],
            [0, 1, 0, "support.sandbox", 1.0, 9.0],
            [0, 2, 1, "testgen.oracle", 2.0, 8.0],
            [0, 3, 0, "testgen.generate", 0.5, 1.0]]

    def test_accepts_nested_spans(self):
        run.check_nesting(self.GOOD)

    def test_refuses_child_outside_parent(self):
        bad = [list(s) for s in self.GOOD]
        bad[2][5] = 9.5  # the oracle ends after its sandbox span
        with self.assertRaisesRegex(ValueError, "not inside"):
            run.check_nesting(bad)

    def test_refuses_overlapping_siblings(self):
        bad = [list(s) for s in self.GOOD]
        bad[3][5] = 1.5  # generate runs into the sandbox span
        with self.assertRaisesRegex(ValueError, "overlap"):
            run.check_nesting(bad)

    def test_traced_runs_nest(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                bench(workload, 1)
                path = (run.BUILD_DIR / "runs" /
                        f"{workload}-seed{SEED}-trace1.json")
                raw = json.loads(path.read_text())
                run.check_nesting(raw["spans"])
                run.check_nesting(raw["replay_spans"])
                names = {s[3] for s in raw["spans"]}
                if workload == "fuzz":
                    # Timed in the sandbox child, nested in the parent's span.
                    self.assertIn("testgen.oracle", names)
                if workload == "figures":
                    self.assertIn("pass.profile", names)


class InjectedFailureTest(unittest.TestCase):
    def test_wrong_golden_counts_and_run_completes(self):
        r = bench("figures", 0, "--corrupt-golden")
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)
        self.assertLess(r["failed"], r["attempted"])
        self.assertEqual(list(r["metrics"]), list(run.END_TO_END))


class DeterminismTest(unittest.TestCase):
    def test_same_seed_same_headline(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = bench(workload, 0)["metrics"]
                b = bench(workload, 0, again=True)["metrics"]
                for name in ("speedup_geomean", "offload_pct"):
                    self.assertEqual(a[name]["value"], b[name]["value"], name)


if __name__ == "__main__":
    unittest.main()

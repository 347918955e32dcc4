#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 e2ebench/test_bench.py

Runs every workload at --small size, untraced and traced, through run.py
and checks that:
  * the emitted metric names and units match BENCHMARK.json exactly;
  * every run is correct, with ok_frac 1 and a complete run record;
  * trace.cut_match is 1 (the traced stage replay reproduces the library);
  * vpartd solves equal direct library calls for the same request;
  * cut metrics repeat exactly at a fixed seed;
  * a directory holding only BENCHMARK.json and e2ebench/ fails without
    printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (PROCESSES: processes per untraced run)
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["ml-serial", "flat-fm", "ml-threads2", "vpartd-closed"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RECORD_KEYS = {"workload", "seed", "trace", "seconds", "size", "nproc",
               "cpu_model", "build_type", "git_commit", "source_digest",
               "trace_overhead_frac", "host_factor"}


def run_bench(workload, trace, seed=3, cwd=ROOT, script=RUN, env=None):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=900, env=env)


def json_lines(stdout):
    return [json.loads(l) for l in stdout.splitlines() if l.startswith("{")]


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.runs = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                proc = run_bench(workload, trace)
                if proc.returncode != 0:
                    raise AssertionError(
                        f"{workload} trace={trace} exited "
                        f"{proc.returncode}:\n{proc.stderr[-2000:]}")
                cls.runs[workload, trace] = proc.stdout

    def result(self, workload, trace):
        return json_lines(self.runs[workload, trace])[-1]

    def test_workloads_match_spec(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         WORKLOADS)

    def test_names_and_units_match_spec(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in self.spec[key]}
            for workload in WORKLOADS:
                metrics = self.result(workload, trace)["metrics"]
                emitted = {n: m["unit"] for n, m in metrics.items()}
                self.assertEqual(emitted, declared,
                                 f"{workload} trace={trace}")

    def test_results_are_correct(self):
        for (workload, trace), stdout in self.runs.items():
            result = json_lines(stdout)[-1]
            self.assertEqual(set(result), RESULT_KEYS)
            self.assertTrue(result["correct"], f"{workload} trace={trace}")
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0)
            if trace == 0:
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, f"{workload} {name}")

    def test_run_record(self):
        for (workload, trace), stdout in self.runs.items():
            record = json_lines(stdout)[-2]["run_record"]
            self.assertEqual(set(record), RECORD_KEYS)
            self.assertEqual(record["workload"], workload)
            self.assertEqual(record["build_type"], "Release")
            self.assertGreaterEqual(record["nproc"], 1)
            self.assertGreater(record["host_factor"], 0)
            if trace:
                self.assertIsNotNone(record["trace_overhead_frac"])

    def test_traced_replay_matches_library(self):
        for workload in WORKLOADS:
            metrics = self.result(workload, 1)["metrics"]
            self.assertEqual(metrics["trace.cut_match"]["value"], 1.0,
                             workload)

    def test_vpartd_solve_equals_library_call(self):
        for trace in (0, 1):
            # One note per measuring process: 1 traced, PROCESSES untraced.
            notes = [l for l in self.runs["vpartd-closed", trace].splitlines()
                     if "determinism:" in l]
            self.assertEqual(len(notes), 1 if trace else run.PROCESSES)
            for note in notes:
                checked = note.split("determinism:")[1].split()[0]
                matched, total = (int(x) for x in checked.split("/"))
                self.assertGreater(total, 0)
                self.assertEqual(matched, total)

    def test_cuts_repeat_at_fixed_seed(self):
        for workload in ("ml-serial", "vpartd-closed"):
            again = json_lines(run_bench(workload, 0).stdout)[-1]["metrics"]
            first = self.result(workload, 0)["metrics"]
            for name in ("cut_avg_geomean", "cut_min_geomean"):
                self.assertEqual(again[name], first[name], workload)

    def test_bare_directory_fails_without_result(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)  # build inside the bare copy
            proc = run_bench("ml-serial", 0, cwd=bare,
                             script=os.path.join(bare, "e2ebench", "run.py"),
                             env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(json_lines(proc.stdout), [])
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)

#!/usr/bin/env python3
"""End-to-end benchmark of the vlsipart library and the vpartd service.

Benchmark run (builds e2e_bench from the sources first, then runs it):

    python3 e2ebench/run.py --workload ml-serial --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1).  An untraced run is PROCESSES runs of
the binary, each for a share of --seconds, combined by medians.  The line before it is the run record:
host, build type, git commit (when the checkout is a git repository),
a digest of the library sources, seed and trace overhead.

Steadiness mode repeats one workload and summarizes every metric:

    python3 e2ebench/run.py --workload flat-fm --steady 5 --seconds 20 [--vary-seed]

It prints each end-to-end metric's median, quartiles, (q3 - q1)/median and
(max - min)/median, then flags any cut metric that fails to repeat exactly
at a fixed seed and any per-layer count of an engine workload that differs
between two traced runs.  It exits 1 when something is flagged.

Build products go to $CARGO_TARGET_DIR/e2ebench (default .bench_build)
under the repository root; traced runs write their spans to
<build dir>/traces/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ml-serial", "flat-fm", "ml-threads2", "vpartd-closed"]
# An untraced run is this many processes, each measuring for a share of
# --seconds, and reports the median of each metric over them.  Where a
# process's heap lands in memory and which vCPUs its threads get move its
# times by up to +-8% at a fixed seed on a shared host, and no repetition
# inside one process averages that out.
PROCESSES = 3
# Per-process limit on the measuring binary (the build is not limited).
RUN_TIMEOUT_S = 55


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2ebench")


def build():
    """Configure (once) and build e2e_bench; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "e2e_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return os.path.join(out, "e2e_bench")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def source_digest():
    """sha256 over the library and benchmark sources (names and bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace, small, stamps):
    """Run the binary; returns (exit code, stdout text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", stamps[0], "--source-digest", stamps[1]]
    if small:
        cmd.append("--small")
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, proc.stdout


def combine(texts, seconds):
    """One run's output from its processes' outputs: every '#' line, the
    first run record with the median host factor, and a result line whose
    metrics are the medians over the processes (ok_frac is recomputed
    from the summed counts)."""
    results = [last_json(t) for t in texts]
    records = [json.loads(t.strip().splitlines()[-2])["run_record"]
               for t in texts]
    lines = []
    for i, text in enumerate(texts):
        lines.append(f"# process {i + 1} of {len(texts)}")
        lines += [l for l in text.splitlines() if l.startswith("#")]
    record = dict(records[0], seconds=seconds)
    record["host_factor"] = statistics.median(r["host_factor"]
                                              for r in records)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results)
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name.startswith("cut_") and len(set(values)) > 1:
            # Same seeds in every process: the cuts must repeat exactly.
            lines.append(f"# ERROR {name} differs between processes: "
                         f"{values}")
            correct = False
        value = statistics.median(values)
        if name == "ok_frac":
            value = (attempted - failed) / attempted
        metrics[name] = {"value": value, "unit": m["unit"]}
    result = {"correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    lines += [json.dumps({"run_record": record}), json.dumps(result)]
    return "\n".join(lines) + "\n"


def run_measured(binary, workload, seed, seconds, trace, small, stamps):
    """A traced run is one process; an untraced run is PROCESSES of them,
    combined.  Returns (exit code, stdout text)."""
    if trace:
        return run_once(binary, workload, seed, seconds, trace, small, stamps)
    texts = []
    for _ in range(PROCESSES):
        code, text = run_once(binary, workload, seed, seconds / PROCESSES,
                              trace, small, stamps)
        if code != 0:
            return code, text
        texts.append(text)
    return 0, combine(texts, seconds)


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def spread(values):
    """(q1, median, q3, (q3-q1)/median, (max-min)/median)."""
    if len(values) < 2:
        v = values[0]
        return v, v, v, 0.0, 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if med == 0:
        return q1, med, q3, 0.0, 0.0
    return q1, med, q3, (q3 - q1) / med, (max(values) - min(values)) / med


def steady(binary, args, stamps):
    seeds = [args.seed + (i if args.vary_seed else 0)
             for i in range(args.steady)]
    runs = []
    for seed in seeds:
        code, text = run_measured(binary, args.workload, seed,
                                  args.seconds, 0, args.small, stamps)
        result = last_json(text) if code == 0 else None
        if result is None:
            log(f"run with seed {seed} failed")
            return 1
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"wall_s={result['metrics']['wall_s']['value']:.4f}",
              flush=True)
    flagged = []
    print(f"{'metric':<20} {'unit':<9} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'iqr/med':>8} {'range/med':>9}")
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3, iqr, rng = spread(values)
        print(f"{name:<20} {m['unit']:<9} {med:>12.6g} {q1:>12.6g} "
              f"{q3:>12.6g} {iqr:>8.4f} {rng:>9.4f}")
        if name.startswith("cut_") and not args.vary_seed \
                and len(set(values)) > 1:
            flagged.append(f"{name} does not repeat at a fixed seed: "
                           f"{sorted(set(values))}")
    if not all(r["correct"] for r in runs):
        flagged.append("a run reported correct=false")
    if args.workload != "vpartd-closed":
        traced = []
        for _ in range(2):
            code, text = run_once(binary, args.workload, args.seed,
                                  args.seconds, 1, args.small, stamps)
            if code != 0:
                log("traced run failed")
                return 1
            traced.append(last_json(text)["metrics"])
        for name, m in traced[0].items():
            if m["unit"] in ("s", "cores") or name.startswith("trace.") \
                    or name.startswith("gen."):
                continue  # timings and the trace's own figures
            if m["value"] != traced[1][name]["value"]:
                flagged.append(f"per-layer {name} differs between traced "
                               f"runs: {m['value']} vs "
                               f"{traced[1][name]['value']}")
    for f in flagged:
        print(f"FLAG {f}")
    print("steady" if not flagged else f"{len(flagged)} flag(s)")
    return 1 if flagged else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny instances and work lists (self-test)")
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="steadiness mode: repeat the workload N times")
    parser.add_argument("--vary-seed", action="store_true",
                        help="steadiness mode: seed, seed+1, ... per run")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    stamps = (git_commit(), source_digest())
    if args.steady > 0:
        return steady(binary, args, stamps)
    code, text = run_measured(binary, args.workload, args.seed,
                              args.seconds, args.trace, args.small, stamps)
    if code != 0:
        log(f"e2e_bench exited with code {code}")
        return code or 1
    sys.stdout.write(text)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

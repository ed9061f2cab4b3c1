#!/usr/bin/env python3
"""Build and run the ecovisor repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of the repository. The first form builds the ecovisor
library, the ecovisord daemon and the perfbench harness from source with
CMake (into $CARGO_TARGET_DIR, default .bench_build), runs one workload
and prints its result; the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
The second form builds and runs the benchmark's own tests.

Exits non-zero, without a result line, when the build fails (for example
when the repository sources are absent), and non-zero when the output
check fails or the metric set differs from BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (first time) and build; False on any failure."""
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--parallel", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench[kind]}


def check_result(line, trace):
    """The result line must carry exactly the declared metrics/units."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    want = declared("per_layer" if trace else "end_to_end")
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        return f"metric set/units differ from BENCHMARK.json: {got} vs {want}"
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        return 2
    binary = os.path.join(build_dir, "perfbench")

    if args.selftest:
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest"),
             os.path.join(ROOT, "BENCHMARK.json")], cwd=ROOT).returncode
    if not args.workload:
        ap.error("--workload is required")

    work_dir = os.path.join(build_dir, f"work-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ecovisord", os.path.join(build_dir, "ecovisor", "net",
                                       "ecovisord"),
           "--work-dir", work_dir,
           "--reference", os.path.join(HERE, "reference.txt")]
    env = dict(os.environ, ECOV_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"no output (exit {proc.returncode})")
        return proc.returncode or 4
    problem = check_result(lines[-1], args.trace)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if problem:
        log(problem)
        return 5
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

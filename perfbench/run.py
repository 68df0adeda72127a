#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep|scale1024|service|native|mck \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (the library sources in src/ plus the
benchmark program) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later
runs only check the build is current. Build output goes to stderr. The run's report
goes to stdout; its last line is one JSON object with the keys correct, attempted,
failed and metrics, and those metrics are checked against BENCHMARK.json. Every
scratch file lives in a per-run directory under the build directory, removed on exit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path or None."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "clof_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(build_dir, "clof_perfbench")


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this kind of run, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "scale1024", "service", "native", "mck"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1

    tmp_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", tmp_dir],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: the benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print("error: the benchmark exited with %d" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    expected = declared_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        print("\n".join(lines[:-1]))
        print("error: metrics differ from BENCHMARK.json: missing %s, undeclared %s" % (
            sorted(expected - set(result["metrics"])),
            sorted(set(result["metrics"]) - expected)), file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

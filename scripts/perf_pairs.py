#!/usr/bin/env python3
"""Records alternating perfbench pairs of a parent revision and the working tree.

Usage, from the repository root:

    scripts/perf_pairs.py --parent REV --workload W[,W...] --pairs N \
        [--seed0 S] [--label L]

perfbench measures one build at a time, and host speed drifts between runs, so a
claim compares two builds run in alternating pairs. This script:

  1. refuses to run when perfbench/ or BENCHMARK.json differ between REV and the
     working tree, since the two sides would then not run the same benchmark;
  2. extracts REV with `git archive` into a temporary directory (removed on exit)
     and builds perfbench there and in the working tree, each into its own
     CARGO_TARGET_DIR under that temporary directory;
  3. for each workload runs N pairs on seeds S+1..S+N at `--seconds 10 --trace 0`,
     alternating which side goes first;
  4. appends one JSON line per run to BENCH_perfbench.json: date, commit, parent,
     label, workload, seed, side and perfbench's final JSON object;
  5. prints, for each end-to-end metric of BENCHMARK.json, both sides' medians and
     quartiles, the change's wins, and whether the claim rule holds: the change wins
     at least 9 pairs in 10 and its median beats the parent's by more than the
     parent's quartile spread.

The working tree side is recorded as HEAD's commit, with "+dirty" when tracked
files differ from HEAD. Set TMPDIR to choose where the temporary directory goes.
"""

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "BENCH_perfbench.json")
WORKLOADS = ["sweep", "scale1024", "service", "native", "mck"]
SECONDS = "10"


def git(*args, **kwargs):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True, **kwargs).stdout.strip()


def benchmark_differs(rev):
    """True when perfbench/ or BENCHMARK.json differ between `rev` and the tree."""
    paths = ["perfbench", "BENCHMARK.json"]
    changed = subprocess.run(["git", "-C", ROOT, "diff", "--quiet", rev, "--"] + paths)
    untracked = git("ls-files", "--others", "--exclude-standard", "--", *paths)
    return changed.returncode != 0 or bool(untracked)


def extract(rev, dest):
    """Writes the tree of `rev` into `dest`."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError("git archive %s failed" % rev)


def run_perfbench(tree, build_dir, workload, seed):
    """Runs one perfbench workload; returns its final JSON object or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return None
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3), linearly interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(workload, pairs, metrics):
    """Prints both sides per end-to-end metric and whether the claim rule holds."""
    print("\n%s: %d pairs" % (workload, len(pairs)))
    print("  %-12s %26s %26s %6s %7s  %s" % ("metric", "parent q1/median/q3",
                                            "change q1/median/q3", "wins", "gap", "claim"))
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        wins = sum(1 for a, b in zip(parent, change) if (b < a if lower else b > a))
        pq1, pmed, pq3 = quartiles(parent)
        cq1, cmed, cq3 = quartiles(change)
        gain = (pmed - cmed) if lower else (cmed - pmed)
        holds = wins * 10 >= 9 * len(pairs) and gain > pq3 - pq1
        print("  %-12s %8.4g/%8.4g/%8.4g %8.4g/%8.4g/%8.4g %3d/%-2d %+6.1f%%  %s" % (
            name, pq1, pmed, pq3, cq1, cmed, cq3, wins, len(pairs),
            100.0 * (cmed - pmed) / pmed if pmed else 0.0, "holds" if holds else "no"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--workload", required=True,
                        help="comma-separated list of: " + ", ".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, default=0, help="pair i runs seed S+i")
    parser.add_argument("--label", default="", help="free text stored with every row")
    args = parser.parse_args()
    workloads = args.workload.split(",")
    if any(w not in WORKLOADS for w in workloads) or args.pairs < 1:
        parser.error("--workload takes names from %s; --pairs must be positive" % WORKLOADS)

    parent = git("rev-parse", "--verify", args.parent + "^{commit}")
    if benchmark_differs(parent):
        print("error: perfbench/ or BENCHMARK.json differ between %s and the working "
              "tree; the two sides would not run the same benchmark" % args.parent,
              file=sys.stderr)
        return 2
    head = git("rev-parse", "HEAD")
    dirty = subprocess.run(["git", "-C", ROOT, "diff", "--quiet", "HEAD", "--", ".",
                            ":(exclude)BENCH_perfbench.json"]).returncode != 0
    commit = head + ("+dirty" if dirty else "")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    workdir = tempfile.mkdtemp(prefix="perf_pairs_")
    try:
        parent_tree = os.path.join(workdir, "parent")
        extract(parent, parent_tree)
        sides = {"parent": (parent_tree, os.path.join(workdir, "parent-build")),
                 "change": (ROOT, os.path.join(workdir, "change-build"))}
        for workload in workloads:
            pairs = []
            for i in range(1, args.pairs + 1):
                seed = args.seed0 + i
                order = ["parent", "change"] if i % 2 else ["change", "parent"]
                pair = {}
                for side in order:
                    tree, build_dir = sides[side]
                    result = run_perfbench(tree, build_dir, workload, seed)
                    if result is None:
                        print("error: %s %s seed %d failed" % (side, workload, seed),
                              file=sys.stderr)
                        return 1
                    pair[side] = result
                    row = {"date": datetime.datetime.now(datetime.timezone.utc)
                                   .strftime("%Y-%m-%dT%H:%M:%SZ"),
                           "commit": parent if side == "parent" else commit,
                           "parent": parent, "label": args.label, "workload": workload,
                           "seed": seed, "side": side, "result": result}
                    with open(LEDGER, "a") as f:
                        f.write(json.dumps(row, sort_keys=True) + "\n")
                print("%s seed %d: wall_s parent %.4f change %.4f" % (
                    workload, seed, pair["parent"]["metrics"]["wall_s"]["value"],
                    pair["change"]["metrics"]["wall_s"]["value"]), flush=True)
                pairs.append(pair)
            summarize(workload, pairs, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

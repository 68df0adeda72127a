#!/usr/bin/env bash
# Times the simulator hot path in wall-clock terms and appends the measurement to the
# BENCH_wallclock.json trajectory (one JSON object per line, newest last).
#
# Builds bench/engine_bench with the `release` preset (-O2 -DNDEBUG; see
# CMakePresets.json) so the number reflects the shipped hot path, runs the pinned
# fig9-style sub-sweep (or, with --topology=cxl-pod-1024, the 1024-CPU scale scenario),
# and records one row: {date, commit, label, ...measurement}. Numbers in the trajectory
# are only comparable when produced by this script on the same class of host. Rows
# from before the timing-wheel ready queue was deleted carry a "scheduler" field; the
# heap rows among them continue the same series.
#
# Usage: scripts/bench_wallclock.sh [label] [extra engine_bench flags...]
set -euo pipefail
cd "$(dirname "$0")/.."

label="${1:-}"
shift || true

cmake --preset release >/dev/null
cmake --build --preset release -j "$(nproc)" --target engine_bench >/dev/null

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
raw="$(./build-release/bench/engine_bench "$@")"
date="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

# Merge the run metadata into the bench's own JSON object.
line="{\"date\":\"${date}\",\"commit\":\"${commit}\",\"label\":\"${label}\",${raw#\{}"
echo "${line}" >> BENCH_wallclock.json

echo "${raw}"
ops="$(echo "${raw}" | sed -n 's/.*"sim_ops_per_sec":\([0-9.]*\).*/\1/p')"
echo "bench_wallclock: ${ops} simulated ops/sec (label='${label}', appended to BENCH_wallclock.json)"

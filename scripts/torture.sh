#!/usr/bin/env bash
# Long-form lock torture: runs clof_torture across many seeds and both paper
# machines, at a longer per-run duration than the check_all.sh smoke stage. Every
# seed must produce the same verdict — the eleven mutants flagged, genuine locks
# clean — so a schedule-dependent oracle gap that a single seed would miss fails
# here. The genuine control set includes the combining locks (CC-Synch and H-Synch
# at the lowest hierarchy level) via clof_torture's defaults, so the closure-path
# oracles get the same multi-seed soak as the queue locks.
#
# Usage: scripts/torture.sh [seeds] [duration_ms] [extra clof_torture flags...]
#   seeds        number of seeds to sweep (default 8; seeds are 1..N)
#   duration_ms  per-run simulated duration (default 0.5)
set -euo pipefail
cd "$(dirname "$0")/.."

seeds="${1:-8}"
duration_ms="${2:-0.5}"
shift || true
shift || true

cmake --preset default >/dev/null
cmake --build --preset default -j "$(nproc)" --target clof_torture >/dev/null

failed=0
for machine in arm x86; do
  for ((seed = 1; seed <= seeds; ++seed)); do
    echo "=== machine=${machine} seed=${seed} duration_ms=${duration_ms} ==="
    if ! ./build/tools/clof_torture --machine="${machine}" --seed="${seed}" \
        --duration_ms="${duration_ms}" "$@"; then
      failed=1
    fi
  done
done

if [[ "${failed}" -ne 0 ]]; then
  echo "torture.sh: FAIL (at least one seed/machine combination failed)"
  exit 1
fi
echo "torture.sh: PASS (${seeds} seeds x {arm,x86} clean at ${duration_ms} ms)"

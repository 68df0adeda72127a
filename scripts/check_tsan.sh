#!/usr/bin/env bash
# ThreadSanitizer pass over the host-thread-parallel code paths: builds with the `tsan`
# preset (CMakePresets.json) and runs the tests that exercise real concurrency — the
# clof::exec work-stealing executor, the content-addressed result cache, the parallel
# scripted sweep (including its serialized in-order on_lock_done delivery), the
# parallel perturbation re-ranking under both objectives (RobustnessTest) and its fault
# injectors, the parallelized ping-pong heatmap, the quarantine/journal resume paths,
# the parallel torture harness, the adaptive facade's sweep/torture determinism tests,
# the multi-lock service layer (per-site parallel sweeps, the service bench, the
# MiniProxy app under real threads), and the native lock implementations. The
# simulator itself is single-threaded per cell (one engine per host thread,
# thread_local current pointer), so these are exactly the places a data race could
# hide.
#
# Usage: scripts/check_tsan.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"
ctest --preset tsan -j "$(nproc)" \
  -R 'Executor|Fingerprint|ResultCache|ParallelSweep|Heatmap|Native|Fault|Robustness|Torture|Journal|HexDouble|Adaptive|Service|SiteSelection|MiniProxy|Combining|CcSynch|HSynch|Timeout|McsT' "$@"

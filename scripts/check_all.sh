#!/usr/bin/env bash
# The full verification ladder in one command: the tier-1 suite on the default preset
# (followed by its five slowest test cases, with their seconds), then the ASan+UBSan
# pass (scripts/check_sanitized.sh), then the TSan pass over the
# host-thread-parallel paths (scripts/check_tsan.sh). Each stage runs even if an
# earlier one failed, so one invocation reports every broken stage; the exit status is
# nonzero if any stage failed.
#
# Usage: scripts/check_all.sh [--perf]
#   --perf  also run the wall-clock perf stage (scripts/bench_wallclock.sh, release
#           preset): times the engine microbench on the fig9-style hot path and on the
#           1024-CPU scale scenario, appends one row each to BENCH_wallclock.json, and
#           fails if either bench's series regressed below 0.9x its previous
#           check_all record.
#
# A torture smoke stage (clof_torture, short duration) runs after tier-1: the eleven
# mutant locks must be flagged and the genuine control set — including the combining
# locks and the abortable MCS-T timeout family — must stay clean, so a harness or
# oracle regression fails the ladder even when the unit tests pass. The stage also runs
# the same report with --verbose, whose deadlock and watchdog dumps carry every thread's
# state and the last 32 accesses, at --jobs=1 and the default, and fails on any byte
# difference: a trip diagnostic must not depend on the worker count. An adaptive smoke
# stage follows: `clof_bench --adaptive --check` with an explicit LC/HC pair holds the
# facade to the 10% tracking envelope (docs/ADAPTIVE.md) at both ends of a four-point
# ramp, and must print the same bytes with and without --seed=42. A robustness smoke
# stage runs `--sweep --robustness=2` (docs/FAULT_INJECTION.md), the re-ranking under
# the fault matrix, at --jobs=1 and the default, and fails on any byte difference. A
# service smoke stage runs the multi-lock scenario
# (docs/SERVICE.md) with --check: per-site selection must install different
# compositions at different sites and hold its ground against the
# single-global-winner baseline on the saturation curve. It runs four ways (--jobs=1
# and the default, each with and without --seed=42) and fails on any byte
# difference, since a service result must be a function of its configuration alone.
# A combining smoke stage runs bench/combining_bench --quick --check
# (docs/COMBINING.md): CC-Synch/H-Synch must survive the sweep unquarantined and beat
# the best non-combining entry at the saturated end. A timeout smoke stage runs the
# deadline-bounded service curve (docs/TIMEOUT.md) with --check: the unbounded
# baseline must cross the latency knee at top load while the deadline run sheds late
# requests and keeps p999 bounded; it too must print the same bytes with and without
# --seed=42 (the mode takes no --jobs). A cache smoke stage runs two sweeps at the
# same time into one --cache directory, so both processes append to one result-cache
# log, then a third run that must miss nothing; every output must match an uncached
# run apart from the cache summary line. A journal smoke stage cuts a finished sweep's
# --journal file at half its size and resumes from it: the resumed run must print the
# unjournaled run's bytes apart from the journal lines, and a third run must be served
# every cell from the journal.
set -uo pipefail
cd "$(dirname "$0")/.."

perf=0
for arg in "$@"; do
  case "${arg}" in
    --perf) perf=1 ;;
    *) echo "unknown argument: ${arg}" >&2; exit 2 ;;
  esac
done

declare -a names statuses

run_stage() {
  local name="$1"
  shift
  echo
  echo "=== ${name} ==="
  "$@"
  local status=$?
  names+=("${name}")
  statuses+=("${status}")
}

# Runs "$@" and prints its wall time on one line, `LABEL wall time: N.Ns`, whether or
# not it succeeds; returns its exit status.
timed() {
  local label="$1" start status
  shift
  start="${EPOCHREALTIME}"
  "$@"
  status=$?
  awk -v label="${label}" -v start="${start}" -v end="${EPOCHREALTIME}" \
    'BEGIN { printf "%s wall time: %.1fs\n", label, end - start }'
  return "${status}"
}

# The tier-1 stage prints the wall time of its build and of its ctest run, then the
# five slowest test cases of that run: the critical path of a parallel ctest.
tier1() {
  local junit status
  junit="$(mktemp)" || return 1
  cmake --preset default &&
    timed "tier-1 build" cmake --build --preset default -j "$(nproc)" &&
    timed "tier-1 ctest" ctest --preset default -j "$(nproc)" --output-junit "${junit}"
  status=$?
  slowest_tests "${junit}"
  rm -f "${junit}"
  return "${status}"
}

# Prints the five slowest test cases in a ctest JUnit report, one `N.Ns  NAME` line
# each, from ctest's own per-test timings; prints nothing for an empty report.
slowest_tests() {
  sed -n 's/.*<testcase name="\([^"]*\)".* time="\([0-9.]*\)".*/\2 \1/p' "$1" |
    sort -rn | head -n 5 |
    awk 'NR == 1 { print "tier-1 slowest tests:" }
         { printf "  %6.1fs  %s\n", $1, substr($0, index($0, " ") + 1) }'
}

torture_smoke() {
  # Short run of the oracle-validation driver: mutants flagged, genuine locks clean.
  # The verbose dumps must come out byte-identical at --jobs=1 and the default.
  local tmp status=0
  ./build/tools/clof_torture --duration_ms=0.1 --seed=1 || status=1
  tmp="$(mktemp -d)" || return 1
  ./build/tools/clof_torture --duration_ms=0.1 --seed=1 --verbose --jobs=1 \
    > "${tmp}/serial.txt" || status=1
  ./build/tools/clof_torture --duration_ms=0.1 --seed=1 --verbose > "${tmp}/default.txt" ||
    status=1
  if ! cmp -s "${tmp}/serial.txt" "${tmp}/default.txt"; then
    echo "byte difference: clof_torture --verbose at --jobs=1 vs the default" >&2
    diff "${tmp}/serial.txt" "${tmp}/default.txt" >&2
    status=1
  fi
  rm -rf "${tmp}"
  return "${status}"
}

# Runs `clof_bench BASE EXTRA` once per EXTRA argument (a space-separated flag list,
# possibly empty) and fails unless every run exits 0 and all of them print the first
# run's bytes.
same_bytes() {
  local base="$1"
  shift
  local tmp status=0 i=0 extra
  tmp="$(mktemp -d)" || return 1
  for extra in "$@"; do
    # shellcheck disable=SC2086  # both lists are meant to split into flags
    ./build/tools/clof_bench ${base} ${extra} > "${tmp}/${i}.txt" || status=1
    if ! cmp -s "${tmp}/0.txt" "${tmp}/${i}.txt"; then
      echo "byte difference: clof_bench ${base} ${extra} vs ${base} $1" >&2
      diff "${tmp}/0.txt" "${tmp}/${i}.txt" >&2
      status=1
    fi
    i=$((i + 1))
  done
  cat "${tmp}/0.txt"
  rm -rf "${tmp}"
  return "${status}"
}

adaptive_smoke() {
  # A four-point contention ramp with a fixed pair: --check exits nonzero when the
  # adaptive facade falls outside the 10% tracking envelope at either ramp end.
  same_bytes "--adaptive --lc=tkt-tkt-tkt --hc=mcs-mcs-mcs --levels=cache,numa,system
              --threads=1,16,48,127 --check" "" "--seed=42"
}

robustness_smoke() {
  # A small sweep re-ranked under the fault matrix: the perturbed cells run on the
  # executor, so the ranking must not depend on the worker count.
  same_bytes "--sweep --machine=arm --levels=numa,system --threads=1,4,16 --duration_ms=0.2
              --robustness=2" "--jobs=1" ""
}

service_smoke() {
  # Quick multi-lock service scenario with its acceptance checks: the binary exits
  # nonzero when the sites all agree or per-site selection loses to the global
  # baseline. Deterministic, so the four runs print identical bytes.
  same_bytes "--service --quick --check" "--jobs=1" "--jobs=1 --seed=42" "" "--seed=42"
}

combining_smoke() {
  # Quick combining-vs-queue-locks sweep with its acceptance check: exits nonzero
  # when a combining lock is quarantined or none beats the non-combining field at
  # the top thread count. Deterministic, so the outcome is CI-stable.
  ./build/bench/combining_bench --quick --check
}

timeout_smoke() {
  # Quick deadline-bounded service curve with its acceptance checks: exits nonzero
  # unless the unbounded baseline crosses the deadline at top load while the
  # deadline run drops late requests and bounds p999 below the baseline.
  same_bytes "--service --quick --deadline=2000 --check" "" "--seed=42"
}

cache_smoke() {
  # Cross-process appends to one result-cache log (docs/PARALLEL_SWEEP.md): two
  # concurrent cold sweeps share a --cache dir, a third is served entirely from it,
  # and all three print the uncached run's bytes except the `cache DIR: ...` line.
  local tmp status=0
  tmp="$(mktemp -d)" || return 1
  local sweep=(./build/tools/clof_bench --sweep --machine=arm --levels=numa,system
               --threads=1,4,16 --duration_ms=0.2 --jobs=2)
  "${sweep[@]}" > "${tmp}/plain.txt" || status=1
  "${sweep[@]}" --cache="${tmp}/cache" > "${tmp}/first.txt" &
  local first=$!
  "${sweep[@]}" --cache="${tmp}/cache" > "${tmp}/second.txt" &
  local second=$!
  wait "${first}" || status=1
  wait "${second}" || status=1
  "${sweep[@]}" --cache="${tmp}/cache" > "${tmp}/third.txt" || status=1
  if ! grep -q "^cache .*: [0-9]* hits, 0 misses, 0 stored$" "${tmp}/third.txt"; then
    echo "cache smoke: the third run missed: $(grep '^cache ' "${tmp}/third.txt")" >&2
    status=1
  fi
  for run in first second third; do
    if ! diff <(grep -v '^cache ' "${tmp}/plain.txt") \
              <(grep -v '^cache ' "${tmp}/${run}.txt") > /dev/null; then
      echo "cache smoke: the ${run} cached run differs from the uncached run" >&2
      status=1
    fi
  done
  rm -rf "${tmp}"
  return "${status}"
}

journal_smoke() {
  # Crash-safe resume (docs/PARALLEL_SWEEP.md): a journal cut mid-record, as a killed
  # sweep leaves it, resumes past its intact records to the uninterrupted output.
  local tmp status=0 cells
  tmp="$(mktemp -d)" || return 1
  local sweep=(./build/tools/clof_bench --sweep --machine=arm --levels=numa,system
               --threads=1,4,16 --duration_ms=0.2)
  "${sweep[@]}" > "${tmp}/plain.txt" || status=1
  "${sweep[@]}" --journal="${tmp}/full" > /dev/null || status=1
  head -c "$(( $(wc -c < "${tmp}/full") / 2 ))" "${tmp}/full" > "${tmp}/journal"
  "${sweep[@]}" --journal="${tmp}/journal" > "${tmp}/resumed.txt" || status=1
  "${sweep[@]}" --journal="${tmp}/journal" > "${tmp}/third.txt" || status=1
  if ! grep -q "^journal .*: resuming past [1-9][0-9]* completed cell(s)$" \
       "${tmp}/resumed.txt"; then
    echo "journal smoke: the resumed run found no completed cell in the cut journal" >&2
    status=1
  fi
  if ! diff <(grep -v '^journal ' "${tmp}/plain.txt") \
            <(grep -v '^journal ' "${tmp}/resumed.txt") > /dev/null; then
    echo "journal smoke: the resumed run differs from the unjournaled run" >&2
    status=1
  fi
  cells="$(sed -n 's/^swept [0-9]* locks (\([0-9]*\) cells.*/\1/p' "${tmp}/plain.txt")"
  if ! grep -q "^journal .*: ${cells} cell(s) served from the previous run$" \
       "${tmp}/third.txt"; then
    echo "journal smoke: the third run was not served all ${cells} cells:" \
         "$(grep '^journal .*served' "${tmp}/third.txt")" >&2
    status=1
  fi
  rm -rf "${tmp}"
  return "${status}"
}

perf_stage() {
  # Both scenarios: the historical fig9-style hot path and the 1024-CPU scale scenario.
  scripts/bench_wallclock.sh "check_all" || return $?
  scripts/bench_wallclock.sh "check_all" --topology=cxl-pod-1024 || return $?
  # Regression gate: within every "bench" series of check_all records, the row just
  # appended must be >= 0.9x the previous one (records are one JSON object per line,
  # newest last; only same-series numbers are comparable).
  awk -F'"sim_ops_per_sec":' '
    /"label":"check_all"/ {
      series = ""
      if (match($0, /"bench":"[^"]*"/)) {
        series = substr($0, RSTART, RLENGTH)
      }
      prev[series] = last[series]
      split($2, f, /[,}]/)
      last[series] = f[1]
    }
    END {
      gated = 0
      failed = 0
      for (series in last) {
        if (prev[series] == "" || last[series] == "") {
          printf "perf gate: no prior check_all record for %s, skipping\n", series
          continue
        }
        ++gated
        ratio = last[series] / prev[series]
        printf "perf gate: %s %.0f vs previous %.0f sim_ops/sec (%.2fx)\n", series,
               last[series], prev[series], ratio
        if (ratio < 0.9) {
          printf "perf gate: FAIL — %s regressed below 0.9x of the previous record\n",
                 series
          failed = 1
        }
      }
      if (gated == 0) {
        print "perf gate: no prior check_all records to compare against, skipping"
      }
      exit failed
    }' BENCH_wallclock.json
}

run_stage "tier-1 (default preset)" tier1
run_stage "torture smoke" torture_smoke
run_stage "adaptive smoke" adaptive_smoke
run_stage "robustness smoke" robustness_smoke
run_stage "service smoke" service_smoke
run_stage "combining smoke" combining_smoke
run_stage "timeout smoke" timeout_smoke
run_stage "cache smoke" cache_smoke
run_stage "journal smoke" journal_smoke
run_stage "asan+ubsan" scripts/check_sanitized.sh
run_stage "tsan" scripts/check_tsan.sh
if [[ "${perf}" -eq 1 ]]; then
  run_stage "perf (release preset + 0.9x gate)" perf_stage
fi

echo
echo "=== summary ==="
failed=0
for i in "${!names[@]}"; do
  if [[ "${statuses[$i]}" -eq 0 ]]; then
    echo "PASS  ${names[$i]}"
  else
    echo "FAIL  ${names[$i]} (exit ${statuses[$i]})"
    failed=1
  fi
done
exit "${failed}"

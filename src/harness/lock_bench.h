// The lock benchmark harness: runs a named lock under a workload profile on a simulated
// machine and reports virtual-time throughput. This is the engine behind every
// paper-figure bench binary and behind the scripted lock selection (§4.3).
#ifndef CLOF_SRC_HARNESS_LOCK_BENCH_H_
#define CLOF_SRC_HARNESS_LOCK_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/clof/registry.h"
#include "src/clof/run_spec.h"
#include "src/sim/platform.h"
#include "src/sim/watchdog.h"
#include "src/topo/topology.h"
#include "src/trace/trace.h"
#include "src/workload/profiles.h"

namespace clof::harness {

struct BenchConfig {
  // What to run: machine, hierarchy, registry, profile, seed, ClofParams. Shared with
  // SweepConfig so the sweep executor fingerprints one canonical value.
  RunSpec spec;
  std::string lock_name;                   // name in `spec.registry`
  int num_threads = 1;                     // thread i runs on virtual CPU i...
  std::vector<int> cpu_assignment;         // ...unless set: thread i -> cpu_assignment[i]
  double duration_ms = 1.0;                // virtual milliseconds
  // Optional event sink installed on the engine for the run (e.g. a trace::TraceBuffer
  // for Chrome-trace export). Observers never perturb virtual time, so results are
  // bit-identical with or without one.
  trace::EventSink* trace_sink = nullptr;
  // Optional runaway protection (src/sim/watchdog.h): default-disabled, so plain
  // benches take the exact historical code path. When armed, the harness reports one
  // unit of progress per completed critical section, a deadlock or budget trip
  // surfaces as SimDeadlockError/SimWatchdogError with a per-thread diagnostic, and
  // an untripped run's results stay bit-identical to an unwatched one.
  sim::WatchdogConfig watchdog;
};

struct BenchResult {
  std::string lock_name;
  int num_threads = 0;
  uint64_t total_ops = 0;
  double duration_ms = 0.0;
  double throughput_per_us = 0.0;          // iterations per virtual microsecond
  std::vector<uint64_t> per_thread_ops;
  double fairness_index = 1.0;             // Jain's index over per-thread ops

  // --- Observability (docs/OBSERVABILITY.md) ---
  // Engine coherence totals and per-level breakdown (trace::LevelBucket layout; the
  // buckets' line_transfers sum to total_line_transfers).
  uint64_t total_accesses = 0;
  uint64_t total_line_transfers = 0;
  std::vector<trace::LevelMetrics> level_metrics;
  // Lock handovers bucketed by the topology level separating consecutive owners
  // (same layout as level_metrics; the same-cpu bucket counts reacquisitions by the
  // previous owner's CPU). Sums to total_ops minus the first acquisition.
  std::vector<uint64_t> handovers_by_level;
  uint64_t total_handovers = 0;
  // Fraction of handovers that stayed within a `topo_level` cohort (cumulative over
  // same-cpu and all levels <= topo_level). This is the paper's §5 handover-locality
  // rate: HC-best compositions win because it is high at the low levels.
  double HandoverLocalityAt(int topo_level) const;
  // Virtual-time Acquire() latency (contended and uncontended alike).
  trace::LatencySummary acquire_latency;
  // The lock's own per-hierarchy-level counters (empty for baselines; see LevelStats).
  std::vector<LevelStats> lock_level_stats;
  // Point-in-virtual-time annotations the lock recorded (Lock::Markers(); e.g. the
  // adaptive facade's switch events). The Chrome export renders them as instant
  // events next to the access stream.
  std::vector<trace::Marker> lock_markers;

  // --- Robustness (docs/FAULT_INJECTION.md) ---
  // Exact nearest-rank percentiles (runtime::Percentile) over the raw per-acquire
  // latency samples, in nanoseconds. Collected on every run, faulted or not.
  double acquire_p50_ns = 0.0;
  double acquire_p99_ns = 0.0;
  double acquire_p999_ns = 0.0;
  double max_acquire_ns = 0.0;  // the longest single wait (starvation indicator)
  // Benchmark threads that completed zero iterations. Churn-stopped threads still
  // count their pre-stop iterations, so a nonzero value means genuine starvation.
  int starved_threads = 0;

  // --- Deadlines (docs/TIMEOUT.md) ---
  // Acquisitions abandoned because spec.deadline_ns expired (always 0 when deadlines
  // are disabled). Dropped attempts complete no critical section: they are excluded
  // from total_ops, throughput and the latency percentiles, which therefore describe
  // the served requests only — the graceful-degradation contract.
  uint64_t dropped_ops = 0;
  // dropped / (served + dropped); 0 when nothing was attempted.
  double DropRate() const {
    const uint64_t attempts = total_ops + dropped_ops;
    return attempts == 0 ? 0.0 : static_cast<double>(dropped_ops) / attempts;
  }
};

// Runs one configuration. Deterministic: identical config => identical result.
BenchResult RunLockBench(const BenchConfig& config);

// Runs `runs` times with distinct seeds and returns the median-throughput result
// (the paper reports medians; §5.3 uses 3 runs).
BenchResult RunLockBenchMedian(const BenchConfig& config, int runs);

// The paper's thread-count sweep points for each machine (§5: up to 95 on the 96-CPU
// x86 box and 127 on the 128-CPU Arm box — one CPU is left to the OS).
std::vector<int> PaperThreadCounts(const topo::Topology& topology);

}  // namespace clof::harness

#endif  // CLOF_SRC_HARNESS_LOCK_BENCH_H_

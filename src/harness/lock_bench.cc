#include "src/harness/lock_bench.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "src/harness/run_driver.h"
#include "src/harness/shared_state.h"
#include "src/runtime/rng.h"
#include "src/runtime/stats.h"
#include "src/sim/engine.h"

namespace clof::harness {

BenchResult RunLockBench(const BenchConfig& config) {
  config.spec.ValidateOrThrow("RunLockBench");
  if (config.spec.sites.size() > 1) {
    throw std::invalid_argument(
        "RunLockBench simulates one lock; multi-site specs run under "
        "harness::RunServiceBench");
  }
  const sim::Machine& machine = *config.spec.machine;
  RunDriver driver({.caller = "RunLockBench",
                    .machine = &machine,
                    .num_threads = config.num_threads,
                    .cpu_assignment = config.cpu_assignment,
                    .duration_ms = config.duration_ms,
                    .seed = config.spec.seed,
                    .fault = config.spec.fault,
                    .trace_sink = config.trace_sink,
                    .watchdog = config.watchdog});
  const int lock = driver.AddLock(config.spec.ResolveRegistry().Make(
      config.lock_name, config.spec.hierarchy, config.spec.params));
  const workload::Profile& p = config.spec.ActiveProfile();
  SharedState shared(p);
  // A per-request deadline bounds each acquisition (docs/TIMEOUT.md): a request that
  // cannot acquire in time is dropped, completes no critical section, and is counted
  // apart.
  const std::optional<double> budget_ns =
      config.spec.deadline_ns > 0.0 ? std::optional(config.spec.deadline_ns) : std::nullopt;

  const int num_levels = machine.topology.num_levels();
  std::vector<uint64_t> ops(config.num_threads, 0);

  BenchResult result;
  result.handovers_by_level.assign(trace::NumLevelBuckets(num_levels), 0);
  // Host-side handover bookkeeping. Fibers run on one host thread and critical sections
  // are mutually exclusive in virtual time, so a plain variable observes the exact
  // ownership order without adding any simulated accesses.
  int last_owner_cpu = -1;
  // Raw per-acquire waits for the exact percentile report; the deterministic fiber
  // interleaving makes the sample order (and therefore the sorted values) reproducible.
  std::vector<double> latency_ns;
  latency_ns.reserve(1 << 16);  // skip early regrowth; long runs still grow geometrically

  driver.Run(
      [&](int t, runtime::Xoshiro256& rng) {
        auto& eng = sim::Engine::Current();
        const sim::Time stop = driver.StopTime(t);
        while (eng.Now() < stop) {
          if (p.think_ns > 0.0) {
            double jitter = 1.0 + p.think_jitter * (2.0 * rng.NextDouble() - 1.0);
            eng.Work(p.think_ns * jitter);
          }
          const sim::Time acquire_begin = eng.Now();
          // Bookkeeping runs on whichever CPU runs the critical section: the
          // combiner's when a combining lock delegates it.
          auto body = [&] {
            const sim::Time waited = eng.Now() - acquire_begin;
            result.acquire_latency.Record(waited);
            latency_ns.push_back(sim::NsFromPs(waited));
            const int owner_cpu = eng.Cpu();
            if (last_owner_cpu >= 0) {
              const int level = last_owner_cpu == owner_cpu
                                    ? topo::Topology::kSameCpu
                                    : machine.topology.SharingLevel(last_owner_cpu, owner_cpu);
              ++result.handovers_by_level[trace::LevelBucket(level, num_levels)];
              ++result.total_handovers;
            }
            last_owner_cpu = owner_cpu;
            shared.TouchCriticalSection(rng);
            if (p.cs_work_ns > 0.0) {
              eng.Work(p.cs_work_ns);
            }
          };
          if (driver.CriticalSection(t, lock, budget_ns, body)) {
            ++ops[t];
          } else {
            ++result.dropped_ops;
          }
          eng.ReportProgress();  // a critical section or a drop is forward progress for
                                 // the watchdog; a no-op when none is armed
        }
      },
      [&](runtime::Xoshiro256& rng, int lines) { shared.HammerLines(rng, lines); });
  shared.VerifyCounters();

  result.lock_name = config.lock_name;
  result.num_threads = config.num_threads;
  result.per_thread_ops = ops;
  for (uint64_t n : ops) {
    result.total_ops += n;
  }
  result.duration_ms = config.duration_ms;
  result.throughput_per_us =
      static_cast<double>(result.total_ops) / (config.duration_ms * 1e3);
  std::vector<double> per_thread(ops.begin(), ops.end());
  result.fairness_index = runtime::JainFairnessIndex(per_thread);
  result.total_accesses = driver.engine().total_accesses();
  result.total_line_transfers = driver.engine().total_line_transfers();
  result.level_metrics = driver.engine().level_metrics();
  result.lock_level_stats = driver.lock(lock).Stats();
  result.lock_markers = driver.lock(lock).Markers();
  std::sort(latency_ns.begin(), latency_ns.end());  // one sort, three O(1) queries
  result.acquire_p50_ns = runtime::PercentileSorted(latency_ns, 0.50);
  result.acquire_p99_ns = runtime::PercentileSorted(latency_ns, 0.99);
  result.acquire_p999_ns = runtime::PercentileSorted(latency_ns, 0.999);
  result.max_acquire_ns = sim::NsFromPs(result.acquire_latency.max_ps());
  for (uint64_t n : ops) {
    if (n == 0) {
      ++result.starved_threads;
    }
  }
  return result;
}

double BenchResult::HandoverLocalityAt(int topo_level) const {
  if (total_handovers == 0 || handovers_by_level.empty()) {
    return 0.0;
  }
  const int num_levels = static_cast<int>(handovers_by_level.size()) - 2;
  uint64_t local = handovers_by_level[trace::SameCpuBucket(num_levels)];
  for (int level = 0; level <= topo_level && level < num_levels; ++level) {
    local += handovers_by_level[level];
  }
  return static_cast<double>(local) / static_cast<double>(total_handovers);
}

BenchResult RunLockBenchMedian(const BenchConfig& config, int runs) {
  std::vector<BenchResult> results;
  results.reserve(runs);
  for (int r = 0; r < runs; ++r) {
    BenchConfig cfg = config;
    cfg.spec.seed = config.spec.seed + static_cast<uint64_t>(r) * 7919;
    results.push_back(RunLockBench(cfg));
  }
  std::sort(results.begin(), results.end(), [](const BenchResult& a, const BenchResult& b) {
    return a.throughput_per_us < b.throughput_per_us;
  });
  return results[results.size() / 2];
}

std::vector<int> PaperThreadCounts(const topo::Topology& topology) {
  std::vector<int> counts = {1, 4, 8, 16, 24, 32, 48, 64, 95, 127};
  std::vector<int> out;
  for (int c : counts) {
    if (c < topology.num_cpus()) {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace clof::harness

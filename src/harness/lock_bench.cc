#include "src/harness/lock_bench.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "src/fault/injector.h"
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
  // A run needs a positive, finite span of virtual time.
  if (!(config.duration_ms > 0.0 && std::isfinite(config.duration_ms))) {
    throw std::invalid_argument("RunLockBench: duration_ms must be positive and finite");
  }
  const sim::Machine& machine = *config.spec.machine;
  const Registry& registry = config.spec.ResolveRegistry();
  if (config.num_threads < 1 || config.num_threads > machine.topology.num_cpus()) {
    throw std::invalid_argument("num_threads out of range for machine");
  }
  if (!config.cpu_assignment.empty() &&
      static_cast<int>(config.cpu_assignment.size()) < config.num_threads) {
    throw std::invalid_argument("cpu_assignment shorter than num_threads");
  }

  sim::Engine engine(machine.topology, machine.platform);
  engine.SetEventSink(config.trace_sink);
  if (config.watchdog.Enabled()) {
    engine.SetWatchdog(config.watchdog);
  }
  // Fault injection (docs/FAULT_INJECTION.md): only installed when some injector is
  // enabled, so a disabled plan takes the exact historical code path byte for byte.
  const fault::FaultPlan& fault_plan = config.spec.fault;
  std::unique_ptr<fault::Injector> injector;
  if (fault_plan.AnyEnabled()) {
    injector = std::make_unique<fault::Injector>(fault_plan, config.spec.seed,
                                                 machine.topology.num_cpus());
    engine.SetFaultHook(injector.get());
  }
  auto lock = registry.Make(config.lock_name, config.spec.hierarchy, config.spec.params);
  SharedState shared(config.spec.ActiveProfile());
  // Combining locks run critical sections as closures (docs/COMBINING.md): the work may
  // execute on the current combiner's thread. Non-combining locks keep the classic
  // acquire/release path byte for byte unless a test forces the closure shim. A
  // per-request deadline bounds *this thread's* acquisition, which delegation cannot
  // express, so deadline runs use the classic Acquire/Release surface (every combining
  // lock keeps it) and the timed path below.
  const double deadline_ns = config.spec.deadline_ns;
  const bool closure_path =
      (lock->combining() || config.force_closure_api) && deadline_ns == 0.0;

  const sim::Time end = sim::PsFromNs(config.duration_ms * 1e6);
  const int num_levels = machine.topology.num_levels();
  std::vector<uint64_t> ops(config.num_threads, 0);
  std::vector<uint64_t> drops(config.num_threads, 0);

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

  for (int t = 0; t < config.num_threads; ++t) {
    int cpu = config.cpu_assignment.empty() ? t : config.cpu_assignment[t];
    // Churn injector: a seeded subset of threads stops acquiring at stop_point.
    sim::Time thread_end = end;
    if (fault_plan.churn.enabled) {
      runtime::Xoshiro256 churn_rng(fault_plan.seed * 0x9e3779b97f4a7c15ull + 0xC0FFEEull +
                                    static_cast<uint64_t>(t));
      if (churn_rng.NextDouble() < fault_plan.churn.stop_fraction) {
        thread_end = static_cast<sim::Time>(static_cast<double>(end) *
                                            fault_plan.churn.stop_point);
      }
    }
    engine.Spawn(cpu, [&, t, cpu, thread_end] {
      runtime::Xoshiro256 rng(config.spec.seed * 0x9e3779b97f4a7c15ull + t);
      auto ctx = lock->MakeContext();
      auto& eng = sim::Engine::Current();
      const workload::Profile& p = config.spec.ActiveProfile();
      while (eng.Now() < thread_end) {
        if (p.think_ns > 0.0) {
          double jitter = 1.0 + p.think_jitter * (2.0 * rng.NextDouble() - 1.0);
          eng.Work(p.think_ns * jitter);
        }
        const sim::Time acquire_begin = eng.Now();
        if (closure_path) {
          // All bookkeeping happens at closure entry, on whichever CPU actually runs
          // the critical section (the combiner's under delegation). For non-combining
          // locks the default Execute shim runs this on the announcing thread at the
          // exact virtual instant the classic path would — same simulated access
          // sequence, so BenchResult is byte-identical (tests/combining_test.cc).
          auto body = [&] {
            const sim::Time waited = eng.Now() - acquire_begin;
            result.acquire_latency.Record(waited);
            latency_ns.push_back(sim::NsFromPs(waited));
            const int owner_cpu = sim::Engine::Current().Cpu();
            if (last_owner_cpu >= 0) {
              const int level =
                  last_owner_cpu == owner_cpu
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
          lock->Execute(*ctx, body);
          ++ops[t];
          eng.ReportProgress();
          continue;
        }
        if (deadline_ns > 0.0) {
          // Timed path (docs/TIMEOUT.md): a request that cannot acquire within its
          // deadline is dropped — it completes no critical section and is counted
          // separately. Abortable locks bound the wait for real; for the rest
          // TryAcquireFor degrades to the blocking shim (the no-deadline baseline).
          if (!lock->TryAcquireFor(*ctx, deadline_ns)) {
            ++drops[t];
            eng.ReportProgress();  // a drop is forward progress, not a hang
            continue;
          }
        } else {
          lock->Acquire(*ctx);
        }
        const sim::Time waited = eng.Now() - acquire_begin;
        result.acquire_latency.Record(waited);
        latency_ns.push_back(sim::NsFromPs(waited));
        if (last_owner_cpu >= 0) {
          const int level = last_owner_cpu == cpu
                                ? topo::Topology::kSameCpu
                                : machine.topology.SharingLevel(last_owner_cpu, cpu);
          ++result.handovers_by_level[trace::LevelBucket(level, num_levels)];
          ++result.total_handovers;
        }
        last_owner_cpu = cpu;
        shared.TouchCriticalSection(rng);
        if (p.cs_work_ns > 0.0) {
          eng.Work(p.cs_work_ns);
        }
        lock->Release(*ctx);
        ++ops[t];
        eng.ReportProgress();  // one critical section done: feeds the no-progress
                               // watchdog; a no-op (not even a simulated access)
                               // when no watchdog is armed
      }
    });
  }
  if (fault_plan.interference.enabled) {
    // Interference fibers: spawned after the benchmark threads so thread ids 0..N-1
    // keep meaning "benchmark thread t" for churn and per-thread ops. They never take
    // the lock, so they terminate at `end` and cannot deadlock the run.
    runtime::Xoshiro256 place_rng(fault_plan.seed ^ 0xa24baed4963ee407ull);
    for (int i = 0; i < fault_plan.interference.threads; ++i) {
      const int cpu = static_cast<int>(
          place_rng.NextBounded(static_cast<uint64_t>(machine.topology.num_cpus())));
      engine.Spawn(cpu, [&, i] {
        runtime::Xoshiro256 rng(fault_plan.seed * 0x9e3779b97f4a7c15ull + 0xBADCAFEull +
                                static_cast<uint64_t>(i));
        auto& eng = sim::Engine::Current();
        while (eng.Now() < end) {
          eng.Work(fault_plan.interference.gap_ns);
          shared.HammerLines(rng, fault_plan.interference.lines_per_burst);
        }
      });
    }
  }
  engine.Run();
  shared.VerifyCounters();

  result.lock_name = config.lock_name;
  result.num_threads = config.num_threads;
  result.per_thread_ops = ops;
  for (uint64_t n : ops) {
    result.total_ops += n;
  }
  for (uint64_t n : drops) {
    result.dropped_ops += n;
  }
  result.duration_ms = config.duration_ms;
  result.throughput_per_us =
      static_cast<double>(result.total_ops) / (config.duration_ms * 1e3);
  std::vector<double> per_thread(ops.begin(), ops.end());
  result.fairness_index = runtime::JainFairnessIndex(per_thread);
  result.total_accesses = engine.total_accesses();
  result.total_line_transfers = engine.total_line_transfers();
  result.level_metrics = engine.level_metrics();
  result.lock_level_stats = lock->Stats();
  result.lock_markers = lock->Markers();
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

// Layer probes: the workload-independent part of the traced ledger. Each probe times
// calls into one layer's public entry points from outside, or reads exact counts off
// a public result, and reports a median over batches.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/clof/registry.h"
#include "src/clof/timeout.h"
#include "src/combining/combining.h"
#include "src/exec/fingerprint.h"
#include "src/exec/result_cache.h"
#include "src/harness/lock_bench.h"
#include "src/mem/sim_memory.h"
#include "src/runtime/fiber.h"
#include "src/runtime/rng.h"
#include "src/sim/engine.h"
#include "src/sim/platform.h"
#include "src/topo/topology.h"
#include "src/workload/arrivals.h"

namespace perfbench {
namespace {

using namespace clof;
using SimAtomic = mem::SimMemory::Atomic<uint64_t>;

// Keeps a computed value observable so the timed loop is not optimized away.
template <class T>
void Keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

double NsPer(Clock::time_point start, double ops) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count() / ops;
}

// runtime: host ns per Fiber::Switch round trip (main -> task -> main).
double FiberRoundTripNs() {
  constexpr int kTrips = 100'000;
  runtime::Fiber main = runtime::Fiber::Main();
  std::unique_ptr<runtime::Fiber> task;
  task = std::make_unique<runtime::Fiber>(
      [&] {
        for (int i = 0; i < kTrips; ++i) {
          runtime::Fiber::Switch(*task, main);
        }
      },
      &main);
  const auto start = Clock::now();
  for (int i = 0; i < kTrips; ++i) {
    runtime::Fiber::Switch(main, *task);
  }
  const double ns = NsPer(start, kTrips);
  runtime::Fiber::Switch(main, *task);  // lets the task return
  return ns;
}

struct alignas(64) Line {
  SimAtomic value;
};

// sim: host ns per Engine access on each path, one path per timed phase. Threads
// start at far-apart virtual times, so each phase's loop runs alone on the host.
struct AccessPaths {
  double hit_ns = 0.0;
  double read_miss_ns = 0.0;
  double write_miss_ns = 0.0;
};
AccessPaths AccessPathNs(const sim::Machine& machine) {
  constexpr int kLines = 8192;
  constexpr double kPhaseGapNs = 1e8;  // far longer than any phase's virtual duration
  auto lines = std::make_unique<Line[]>(kLines);
  AccessPaths paths;
  sim::Engine engine(machine.topology, machine.platform);
  engine.Spawn(0, [&] {  // owner: writes every line, then hits one line repeatedly
    for (int i = 0; i < kLines; ++i) {
      lines[i].value.Store(1);
    }
    const auto start = Clock::now();
    uint64_t sum = 0;
    for (int i = 0; i < kLines; ++i) {
      sum += lines[0].value.Load();
    }
    Keep(sum);
    paths.hit_ns = NsPer(start, kLines);
  });
  engine.Spawn(machine.topology.num_cpus() - 1, [&] {  // remote reader: read misses
    sim::Engine::Current().Work(kPhaseGapNs);
    const auto start = Clock::now();
    uint64_t sum = 0;
    for (int i = 0; i < kLines; ++i) {
      sum += lines[i].value.Load();
    }
    Keep(sum);
    paths.read_miss_ns = NsPer(start, kLines);
  });
  engine.Spawn(machine.topology.num_cpus() / 4, [&] {  // third CPU: write misses
    sim::Engine::Current().Work(2 * kPhaseGapNs);
    const auto start = Clock::now();
    for (int i = 0; i < kLines; ++i) {
      lines[i].value.Store(2);
    }
    paths.write_miss_ns = NsPer(start, kLines);
  });
  engine.Run();
  return paths;
}

// sim: host ns per park + wake handoff, two threads ping-ponging one flag.
double ParkWakeNs(const sim::Machine& machine) {
  constexpr uint64_t kRounds = 20'000;
  Line flag;
  sim::Engine engine(machine.topology, machine.platform);
  engine.Spawn(0, [&] {
    for (uint64_t i = 0; i < kRounds; ++i) {
      flag.value.Store(2 * i + 1);
      mem::SimMemory::SpinUntil(flag.value, [i](uint64_t v) { return v == 2 * i + 2; });
    }
  });
  engine.Spawn(1, [&] {
    for (uint64_t i = 0; i < kRounds; ++i) {
      mem::SimMemory::SpinUntil(flag.value, [i](uint64_t v) { return v == 2 * i + 1; });
      flag.value.Store(2 * i + 2);
    }
  });
  const auto start = Clock::now();
  engine.Run();
  return NsPer(start, 2.0 * kRounds);
}

// sim: host ns per woken waiter, from the releasing store until the last of `waiters`
// parked spinners has re-probed the line and returned.
double HerdWakeNsPerWaiter(const sim::Machine& machine, int waiters) {
  Line flag;
  Clock::time_point released;
  Clock::time_point last;
  sim::Engine engine(machine.topology, machine.platform);
  for (int w = 0; w < waiters; ++w) {
    engine.Spawn(w % machine.topology.num_cpus(), [&] {
      mem::SimMemory::SpinUntil(flag.value, [](uint64_t v) { return v != 0; });
      last = Clock::now();
    });
  }
  engine.Spawn(0, [&] {
    sim::Engine::Current().Work(1e6);  // every waiter has parked by now
    released = Clock::now();
    flag.value.Store(1);
  });
  engine.Run();
  return std::chrono::duration<double, std::nano>(last - released).count() / waiters;
}

// topo: host ns per SharingLevel lookup over seeded random CPU pairs.
double SharingLevelNs(const topo::Topology& topology, bool matrix) {
  constexpr int kPairs = 4096;
  constexpr int kPasses = 64;
  runtime::Xoshiro256 rng(7);
  std::vector<std::pair<int, int>> pairs(kPairs);
  for (auto& [a, b] : pairs) {
    a = static_cast<int>(rng.NextBounded(topology.num_cpus()));
    b = static_cast<int>(rng.NextBounded(topology.num_cpus()));
  }
  const auto start = Clock::now();
  int64_t sum = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const auto& [a, b] : pairs) {
      sum += matrix ? topology.SharingLevelFromMatrix(a, b) : topology.SharingLevel(a, b);
    }
    Keep(sum);
  }
  return NsPer(start, static_cast<double>(kPairs) * kPasses);
}

template <class F>
double MedianOf(int batches, F&& sample) {
  std::vector<double> values;
  for (int i = 0; i < batches; ++i) {
    values.push_back(sample());
  }
  return Median(values);
}

// locks: exact simulated accesses and line transfers per completed acquisition.
void LockProtocolCounts(Report& report) {
  const sim::Machine x86 = sim::Machine::PaperX86();
  const Registry& base = SimRegistry(true);
  const Registry with_timeout = timeout::WithTimeout(base, {});
  const Registry with_combining = combining::WithCombining(base, {});
  const std::vector<std::vector<std::string>> levels = {
      {"system"}, {"cache", "system"}, {"cache", "numa", "system"},
      {"core", "cache", "numa", "system"}};
  struct Probe {
    std::string name;
    int depth;
    const Registry* registry;
  };
  const std::vector<Probe> probes = {
      {"tkt", 1, &base},          {"mcs", 1, &base},
      {"clh", 1, &base},          {"hem", 1, &base},
      {"mcst", 1, &with_timeout}, {"hmcs", 3, &base},
      {"ccsynch", 3, &with_combining}, {"mcs-mcs", 2, &base},
      {"mcs-mcs-mcs", 3, &base},  {"mcs-mcs-mcs-mcs", 4, &base}};
  const int top = harness::PaperThreadCounts(x86.topology).back();
  for (const Probe& probe : probes) {
    for (int threads : {1, top}) {
      harness::BenchConfig config;
      config.spec.machine = &x86;
      config.spec.hierarchy = topo::Hierarchy::Select(x86.topology, levels[probe.depth - 1]);
      config.spec.registry = probe.registry;
      config.lock_name = probe.name;
      config.num_threads = threads;
      config.duration_ms = 0.2;
      const harness::BenchResult r = harness::RunLockBench(config);
      report.Check(1, r.total_ops > 0 ? 0 : 1, probe.name + " completed no acquisition");
      const double ops = static_cast<double>(std::max<uint64_t>(r.total_ops, 1));
      const std::string suffix = probe.name + ".t" + std::to_string(threads);
      report.Metric("locks.sim_accesses_per_acquire." + suffix, r.total_accesses / ops,
                    "count");
      report.Metric("locks.line_transfers_per_acquire." + suffix,
                    r.total_line_transfers / ops, "count");
    }
  }
}

// exec: result-cache Store / hit Lookup / miss Lookup, microseconds per call.
void CacheProbe(const Options& opts, Report& report) {
  constexpr int kEntries = 256;
  const auto dir = opts.tmp_dir / "probe-cache";
  std::vector<double> store_us, hit_us, miss_us;
  {
    exec::ResultCache cache(dir.string());
    auto fingerprint = [](int i) {
      exec::Fingerprint fp;
      fp.Add("probe", i);
      fp.Add("payload", std::string(512, 'x'));  // transcript of a realistic length
      return fp;
    };
    exec::CellResult value;
    value.throughput_per_us = 1.25;
    for (int i = 0; i < kEntries; ++i) {
      const auto fp = fingerprint(i);
      auto start = Clock::now();
      cache.Store(fp, value);
      store_us.push_back(NsPer(start, 1e3));
    }
    uint64_t mismatches = 0;
    for (int i = 0; i < kEntries; ++i) {
      const auto fp = fingerprint(i);
      auto start = Clock::now();
      const auto hit = cache.Lookup(fp);
      hit_us.push_back(NsPer(start, 1e3));
      mismatches += hit.has_value() && *hit == value ? 0 : 1;
      const auto absent = fingerprint(kEntries + i);
      start = Clock::now();
      const auto miss = cache.Lookup(absent);
      miss_us.push_back(NsPer(start, 1e3));
      mismatches += miss.has_value() ? 1 : 0;
    }
    report.Check(2 * kEntries, mismatches, "result cache probe returned wrong entries");
  }
  std::filesystem::remove_all(dir);
  report.Timing("exec.cache_store_us", store_us, "us", "stores");
  report.Timing("exec.cache_lookup_hit_us", hit_us, "us", "hit lookups");
  report.Timing("exec.cache_lookup_miss_us", miss_us, "us", "miss lookups");
}

}  // namespace

void RunLayerProbes(const Options& opts, Report& report) {
  const sim::Machine x86 = sim::Machine::PaperX86();
  const sim::Machine cxl = sim::Machine::CxlPod1024();

  report.Metric("runtime.fiber_switch_ns", MedianOf(9, FiberRoundTripNs), "ns");

  std::vector<double> hit, read_miss, write_miss;
  for (int i = 0; i < 9; ++i) {
    const AccessPaths paths = AccessPathNs(x86);
    hit.push_back(paths.hit_ns);
    read_miss.push_back(paths.read_miss_ns);
    write_miss.push_back(paths.write_miss_ns);
  }
  report.Metric("sim.access_hit_ns", Median(hit), "ns");
  report.Metric("sim.access_read_miss_ns", Median(read_miss), "ns");
  report.Metric("sim.access_write_miss_ns", Median(write_miss), "ns");
  report.Metric("sim.park_wake_ns", MedianOf(9, [&] { return ParkWakeNs(x86); }), "ns");
  for (int waiters : {64, 256, 1024}) {
    report.Metric("sim.herd_wake_ns_per_waiter." + std::to_string(waiters),
                  MedianOf(9, [&] { return HerdWakeNsPerWaiter(cxl, waiters); }), "ns");
  }

  report.Metric("topo.sharing_level_ns.x86",
                MedianOf(9, [&] { return SharingLevelNs(x86.topology, false); }), "ns");
  report.Metric("topo.sharing_level_ns.cxl1024",
                MedianOf(9, [&] { return SharingLevelNs(cxl.topology, false); }), "ns");
  report.Metric("topo.sharing_level_matrix_ns.cxl1024",
                MedianOf(9, [&] { return SharingLevelNs(cxl.topology, true); }), "ns");

  LockProtocolCounts(report);
  NativeLayerProbe(opts, report);
  report.Metric("harness.service_host_us_per_request", ServiceHostUsPerRequest(opts.seed),
                "us");

  const workload::ZipfSampler zipf(1 << 16, 0.99);
  const workload::OpenLoopArrivals arrivals(1.0);
  runtime::Xoshiro256 rng(opts.seed);
  constexpr int kDraws = 200'000;
  report.Metric("workload.zipf_sample_ns", MedianOf(9, [&] {
                  const auto start = Clock::now();
                  uint64_t sum = 0;
                  for (int i = 0; i < kDraws; ++i) {
                    sum += zipf.Next(rng);
                  }
                  Keep(sum);
                  return NsPer(start, kDraws);
                }),
                "ns");
  report.Metric("workload.poisson_sample_ns", MedianOf(9, [&] {
                  const auto start = Clock::now();
                  double sum = 0.0;
                  for (int i = 0; i < kDraws; ++i) {
                    sum += arrivals.NextGapNs(rng);
                  }
                  Keep(sum);
                  return NsPer(start, kDraws);
                }),
                "ns");

  CacheProbe(opts, report);
  MckLayerProbe(report);
}

}  // namespace perfbench

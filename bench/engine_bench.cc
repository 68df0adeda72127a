// Wall-clock microbenchmark of the simulated-access hot path.
//
// Everything downstream — the fig9 N^M sweep, the robustness matrix, the heatmap —
// funnels through sim::Engine::Access, so the simulator's own host throughput bounds
// how much of the design space a sweep can afford to explore (ROADMAP north star).
// This binary times a pinned workload and reports *simulated atomic ops per
// wall-clock second*: engine accesses divided by host seconds. Two scenarios:
//
//  * default ("sim_hot_path"): a fixed fig9-style sub-sweep (a pinned set of
//    generated CLoF locks, thread counts, seeds and durations on both paper
//    machines) — the historical trajectory in BENCH_wallclock.json;
//  * --topology=cxl-pod-1024 ("sim_scale_cxl1024"): the data-center scale scenario —
//    a 4-level hierarchy on the 1024-CPU CXL-pod preset, thread counts up to the
//    full machine, mixing local-handover compositions with global-spinning ones so
//    the engine sees a 1024-entry ready queue, herd wakeups and deep sharing-level
//    lookups.
//
// Run through scripts/bench_wallclock.sh (release preset) to append labelled
// records to BENCH_wallclock.json; raw output is one JSON object on stdout.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/clof/registry.h"
#include "src/harness/lock_bench.h"
#include "src/sim/platform.h"
#include "src/topo/topology.h"

namespace {

using namespace clof;

struct SweepTotals {
  uint64_t sim_ops = 0;        // engine accesses (the hot-path unit of work)
  uint64_t lock_acquires = 0;  // completed critical sections, for context
};

// One fixed sub-sweep: every listed lock at every thread count, one run each.
SweepTotals RunVariant(const sim::Machine& machine, const std::vector<std::string>& levels,
                       bool ctr_registry, double duration_ms,
                       const std::vector<std::string>& locks, const std::vector<int>& threads) {
  SweepTotals totals;
  harness::BenchConfig config;
  config.spec.machine = &machine;
  config.spec.hierarchy = topo::Hierarchy::Select(machine.topology, levels);
  config.spec.registry = &SimRegistry(ctr_registry);
  config.duration_ms = duration_ms;
  for (const std::string& lock : locks) {
    config.lock_name = lock;
    for (int t : threads) {
      config.num_threads = t;
      harness::BenchResult result = harness::RunLockBench(config);
      totals.sim_ops += result.total_accesses;
      totals.lock_acquires += result.total_ops;
    }
  }
  return totals;
}

// The historical sim_hot_path workload: fig9c/d highlighted compositions plus uniform
// stacks — a mix of handover-local winners and global-spinning losers, so the engine
// sees both short critical-path handovers and refetch-storm park/wake churn.
SweepTotals RunHotPath(const sim::Machine& x86, const sim::Machine& arm, double duration_ms) {
  const std::vector<std::string> locks = {"hem-mcs-tkt", "tkt-mcs-mcs", "clh-tkt-tkt",
                                          "mcs-mcs-mcs", "tkt-clh-tkt", "mcs-tkt-hem"};
  const std::vector<int> threads = {1, 8, 24, 48};
  SweepTotals a = RunVariant(x86, {"cache", "numa", "system"}, true, duration_ms, locks,
                             threads);
  SweepTotals b = RunVariant(arm, {"cache", "numa", "system"}, false, duration_ms, locks,
                             threads);
  return {a.sim_ops + b.sim_ops, a.lock_acquires + b.lock_acquires};
}

// The scale workload: a 4-level hierarchy over all 1024 CPUs of the CXL-pod preset.
// Compositions chosen as in the hot path — keep-local winners (mcs/clh stacks) next
// to a uniform ticket stack whose waiters spin globally within each cohort, so its
// wakeups arrive as herds for the batched heap build (8–15 waiters each, measured).
SweepTotals RunScale(const sim::Machine& machine, double duration_ms) {
  const std::vector<std::string> locks = {"mcs-mcs-mcs-mcs", "tkt-mcs-mcs-mcs",
                                          "clh-clh-mcs-tkt", "tkt-tkt-tkt-tkt"};
  const std::vector<int> threads = {64, 256, 1024};
  return RunVariant(machine, {"cache", "numa", "pod", "system"}, true, duration_ms, locks,
                    threads);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv, {"duration_ms", "repeat", "topology"});
  const int repeat = flags.GetInt("repeat", 3);
  const std::string topology = flags.GetString("topology", "");
  const bool scale = topology == "cxl-pod-1024";
  if (!topology.empty() && !scale) {
    flags.Fail("--topology expects cxl-pod-1024, got --topology=" + topology);
  }
  // Scale-scenario default tuned so per-run setup (1024 fibers, lock construction over
  // 1024 CPUs) amortizes against steady-state simulation: below ~4 virtual ms the
  // number measures startup, not the hot path.
  const double duration_ms = flags.GetDouble("duration_ms", scale ? 6.0 : 8.0);

  auto x86 = sim::Machine::PaperX86();
  auto arm = sim::Machine::PaperArm();
  auto cxl = sim::Machine::CxlPod1024();

  uint64_t sim_ops = 0;
  uint64_t lock_acquires = 0;
  double best_wall_s = -1.0;
  // Repeat the whole workload and keep the fastest pass: the virtual-time results are
  // identical every pass (determinism invariant), so variance is pure host noise.
  for (int r = 0; r < repeat; ++r) {
    auto begin = std::chrono::steady_clock::now();
    SweepTotals totals = scale ? RunScale(cxl, duration_ms) : RunHotPath(x86, arm, duration_ms);
    auto end = std::chrono::steady_clock::now();
    double wall_s = std::chrono::duration<double>(end - begin).count();
    sim_ops = totals.sim_ops;
    lock_acquires = totals.lock_acquires;
    if (best_wall_s < 0.0 || wall_s < best_wall_s) {
      best_wall_s = wall_s;
    }
  }

  double ops_per_sec = static_cast<double>(sim_ops) / best_wall_s;
  std::printf("{\"bench\":\"%s\",\"duration_ms\":%.3f,\"repeat\":%d,"
              "\"sim_ops\":%llu,\"lock_acquires\":%llu,\"best_wall_s\":%.4f,"
              "\"sim_ops_per_sec\":%.0f}\n",
              scale ? "sim_scale_cxl1024" : "sim_hot_path", duration_ms, repeat,
              static_cast<unsigned long long>(sim_ops),
              static_cast<unsigned long long>(lock_acquires), best_wall_s, ops_per_sec);
  return 0;
}

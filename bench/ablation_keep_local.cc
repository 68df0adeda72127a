// Ablation: the keep_local threshold H (§4.1.2). The paper fixes H = 128 per level
// (following HMCS) and notes that excessively high values hurt short-term fairness.
// This bench sweeps H and reports throughput, Jain's fairness index, and the leaf
// level's measured local-pass ratio, exposing the trade-off behind the default.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/harness/lock_bench.h"
#include "src/runtime/rng.h"
#include "src/sim/engine.h"

namespace {

using namespace clof;

// Leaf-level local-pass ratio under the same contention (separate run that keeps the
// lock object alive so its counters can be read).
double LeafPassRatio(const sim::Machine& machine, const topo::Hierarchy& hierarchy,
                     uint32_t threshold, double duration_ms) {
  ClofParams params;
  params.keep_local_threshold = threshold;
  auto lock = SimRegistry(false).Make("tkt-clh-tkt-tkt", hierarchy, params);
  sim::Engine engine(machine.topology, machine.platform);
  auto profile = workload::Profile::LevelDbReadRandom();
  sim::Time end = sim::PsFromNs(duration_ms * 1e6);
  for (int t = 0; t < 64; ++t) {
    engine.Spawn(t, [&, t] {
      runtime::Xoshiro256 rng(42 + t);
      auto ctx = lock->MakeContext();
      auto& eng = sim::Engine::Current();
      while (eng.Now() < end) {
        eng.Work(profile.think_ns * (0.75 + 0.5 * rng.NextDouble()));
        Lock::Guard guard(*lock, *ctx);
        eng.Work(profile.cs_work_ns + 12.0 * profile.cs_hot_lines);
      }
    });
  }
  engine.Run();
  return lock->Stats()[0].LocalPassRatio();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv, {"duration_ms", "quick"});
  double duration = flags.GetPositive("duration_ms", flags.GetBool("quick") ? 0.4 : 1.5);

  auto machine = sim::Machine::PaperArm();
  auto h4 = topo::Hierarchy::Select(machine.topology,
                                    {"cache", "numa", "package", "system"});
  const std::vector<uint32_t> thresholds{1, 4, 16, 64, 128, 512, 2048};

  std::printf("\n== Ablation: keep_local threshold H (tkt-clh-tkt-tkt, Armv8, 64T) ==\n");
  std::printf("%-10s%12s%10s%14s\n", "H", "iter/us", "jain", "leaf-pass%");
  for (uint32_t h : thresholds) {
    harness::BenchConfig config;
    config.spec.machine = &machine;
    config.spec.hierarchy = h4;
    config.lock_name = "tkt-clh-tkt-tkt";
    config.spec.registry = &SimRegistry(false);
    config.spec.profile = workload::Profile::LevelDbReadRandom();
    config.num_threads = 64;
    config.duration_ms = duration;
    config.spec.params.keep_local_threshold = h;
    auto result = harness::RunLockBench(config);
    double ratio = LeafPassRatio(machine, h4, h, duration * 0.5);
    std::printf("%-10u%12.3f%10.3f%13.1f%%\n", h, result.throughput_per_us,
                result.fairness_index, ratio * 100.0);
  }
  std::printf("\nExpected: throughput and the leaf pass ratio rise with H and saturate\n"
              "(the cohort population bounds the streaks before H does past ~4);\n"
              "short-term fairness (Jain over the finite run) degrades for large H.\n");
  return 0;
}

// Ablation: the keep_local threshold H (§4.1.2). The paper fixes H = 128 per level
// (following HMCS) and notes that excessively high values hurt short-term fairness.
// This bench sweeps H and reports throughput, Jain's fairness index, and the leaf
// level's measured local-pass ratio, all from one run per H, exposing the trade-off
// behind the default.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/harness/lock_bench.h"

int main(int argc, char** argv) {
  using namespace clof;
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
    std::printf("%-10u%12.3f%10.3f%13.1f%%\n", h, result.throughput_per_us,
                result.fairness_index, result.lock_level_stats[0].LocalPassRatio() * 100.0);
  }
  std::printf("\nExpected: throughput and the leaf pass ratio rise with H and saturate\n"
              "(the cohort population bounds the streaks before H does past ~4);\n"
              "short-term fairness (Jain over the finite run) degrades for large H.\n");
  return 0;
}

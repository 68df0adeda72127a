// §5.2.3: fairness — per-thread throughput distribution of CLoF locks vs HMCS (both use
// the same keep_local strategy, so their fairness should closely match), with Jain's
// index as the summary statistic. An unfair composition (TTAS at a level) is included
// to show what unfairness looks like.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/harness/lock_bench.h"
#include "src/runtime/stats.h"

int main(int argc, char** argv) {
  using namespace clof;
  bench::Flags flags(argc, argv, {"duration_ms", "quick"});
  double duration = flags.GetPositive("duration_ms", flags.GetBool("quick") ? 0.5 : 2.0);

  auto machine = sim::Machine::PaperArm();
  auto h4 = topo::Hierarchy::Select(machine.topology,
                                    {"cache", "numa", "package", "system"});
  auto h1 = topo::Hierarchy::Select(machine.topology, {"system"});

  struct Row {
    const char* label;
    const char* lock;
    const topo::Hierarchy* hierarchy;
  };
  const std::vector<Row> rows{
      {"CLoF<4>-Arm (tkt-clh-tkt-tkt)", "tkt-clh-tkt-tkt", &h4},
      {"CLoF<4> HC (tkt-clh-clh-clh)", "tkt-clh-clh-clh", &h4},
      {"HMCS<4>", "hmcs", &h4},
      {"MCS (FIFO reference)", "mcs", &h1},
      {"TTAS (unfair reference)", "ttas", &h1},
  };

  std::printf("\n== Fairness (%s, 64 threads, %.1fms): per-thread ops ==\n",
              machine.platform.name.c_str(), duration);
  std::printf("%-32s%10s%10s%10s%10s\n", "lock", "jain", "min", "median", "max");
  for (const auto& row : rows) {
    harness::BenchConfig config;
    config.spec.machine = &machine;
    config.spec.hierarchy = *row.hierarchy;
    config.lock_name = row.lock;
    config.spec.registry = &SimRegistry(false);
    config.spec.profile = workload::Profile::LevelDbReadRandom();
    config.num_threads = 64;
    config.duration_ms = duration;
    auto result = harness::RunLockBench(config);
    std::vector<double> ops(result.per_thread_ops.begin(), result.per_thread_ops.end());
    std::printf("%-32s%10.3f%10.0f%10.0f%10.0f\n", row.label, result.fairness_index,
                runtime::Min(ops), runtime::Median(ops), runtime::Max(ops));
  }
  std::printf("\nExpected: CLoF's Jain index closely matches HMCS (same keep_local\n"
              "strategy); MCS is the strict-FIFO upper reference; TTAS shows unfairness.\n");
  return 0;
}

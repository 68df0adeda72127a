// Ablation: the §6 fast-path extension. A TAS fast path should cut uncontended acquire
// latency (Dice & Kogan study this for NUMA-aware locks at low contention) while the
// CLoF waiting room preserves locality under load — at the price of strict fairness.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/curve_runner.h"

int main(int argc, char** argv) {
  using namespace clof;
  bench::Flags flags(argc, argv, {"duration_ms", "quick"});
  auto machine = sim::Machine::PaperArm();
  auto h4 = topo::Hierarchy::Select(machine.topology,
                                    {"cache", "numa", "package", "system"});

  std::vector<bench::CurveSpec> specs{
      {"CLoF<4> (tkt-clh-tkt-tkt)", "tkt-clh-tkt-tkt", h4, {}},
      {"fp-CLoF<4>", "fp-tkt-clh-tkt-tkt", h4, {}},
      {"HMCS<4>", "hmcs", h4, {}},
  };
  bench::CurveRunOptions options;
  options.duration_ms = flags.GetDouble("duration_ms", flags.GetBool("quick") ? 0.3 : 1.0);
  options.registry = &SimRegistry(false);
  std::vector<int> thread_counts{1, 2, 4, 8, 16, 32, 64, 127};
  auto rows = bench::RunCurves(machine, specs, thread_counts,
                               workload::Profile::LevelDbReadRandom(), options);
  bench::PrintCurveTable("Ablation: TAS fast path on CLoF (Armv8)", thread_counts, rows);

  // Fairness cost of the fast path at mid contention.
  for (const char* name : {"tkt-clh-tkt-tkt", "fp-tkt-clh-tkt-tkt"}) {
    harness::BenchConfig config;
    config.spec.machine = &machine;
    config.spec.hierarchy = h4;
    config.lock_name = name;
    config.spec.registry = options.registry;
    config.spec.profile = workload::Profile::LevelDbReadRandom();
    config.num_threads = 32;
    config.duration_ms = options.duration_ms;
    auto result = harness::RunLockBench(config);
    std::printf("%-22s 32T jain fairness index: %.3f\n", name, result.fairness_index);
  }
  std::printf("\nExpected: fp- wins at low contention (one CAS vs the whole hierarchy)\n"
              "and trails plain CLoF somewhat under load — barging disturbs the\n"
              "hierarchy's handover locality, the latency/locality trade-off of §6.\n");
  return 0;
}

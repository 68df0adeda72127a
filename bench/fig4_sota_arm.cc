// Figure 4: LevelDB on Armv8 with increasing contention — MCS, CNA, ShflLock, HMCS<4>
// and CLoF<4>-Arm.
//
// Paper shapes: CNA/ShflLock trail MCS below 32 threads (shuffling overhead), match it
// after the NUMA level is crossed and beat it past 64 threads; HMCS<4> far outperforms
// all of them by using the full hierarchy; CLoF<4>-Arm adds another ~10-15% over HMCS
// through level-heterogeneity.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/curve_runner.h"

int main(int argc, char** argv) {
  using namespace clof;
  bench::Flags flags(argc, argv, {"duration_ms", "runs", "quick"});
  auto machine = sim::Machine::PaperArm();
  const topo::Topology& topo = machine.topology;

  auto h1 = topo::Hierarchy::Select(topo, {"system"});
  auto h2 = topo::Hierarchy::Select(topo, {"numa", "system"});
  auto h4 = topo::Hierarchy::Select(topo, {"cache", "numa", "package", "system"});

  std::vector<bench::CurveSpec> specs{
      {"MCS", "mcs", h1, {}},
      {"CNA", "cna", h2, {}},
      {"ShflLock", "shfl", h2, {}},
      {"HMCS<4>", "hmcs", h4, {}},
      {"CLoF<4>-Arm", "tkt-clh-tkt-tkt", h4, {}},  // LC-best of Fig. 9b / Fig. 10
  };

  bench::CurveRunOptions options;
  options.duration_ms = flags.GetDouble("duration_ms", flags.GetBool("quick") ? 0.3 : 1.0);
  options.runs = flags.GetInt("runs", 1);
  options.registry = &SimRegistry(false);  // Arm: Hemlock without CTR
  auto thread_counts = harness::PaperThreadCounts(topo);
  auto rows = bench::RunCurves(machine, specs, thread_counts,
                               workload::Profile::LevelDbReadRandom(), options);
  bench::PrintCurveTable("Figure 4: LevelDB Armv8 — state-of-the-art locks vs CLoF",
                         thread_counts, rows);
  return 0;
}

// Figure 2: LevelDB on x86 with increasing contention — MCS vs HMCS<2>/<3>/<4> vs
// CLoF<4>-x86. Shows the value of each additional hierarchy level, in particular the
// cache-group level no OS tool reports (§3.1).
//
// Paper shapes to reproduce: HMCS<2> overtakes MCS once the NUMA level is crossed
// (>24 threads); HMCS<3> lags HMCS<2> below 48 threads (core-level overhead with one
// SMT sibling) and wins above; HMCS<4> gains up to ~60% over HMCS<3>; CLoF<4>-x86
// outperforms HMCS<4> at most contention levels (~5% at 8 threads, ~33% at 95).
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/curve_runner.h"

int main(int argc, char** argv) {
  using namespace clof;
  bench::Flags flags(argc, argv, {"duration_ms", "runs", "quick"});
  auto machine = sim::Machine::PaperX86();
  const topo::Topology& topo = machine.topology;

  auto h1 = topo::Hierarchy::Select(topo, {"system"});
  auto h2 = topo::Hierarchy::Select(topo, {"numa", "system"});
  auto h3 = topo::Hierarchy::Select(topo, {"core", "numa", "system"});
  auto h4 = topo::Hierarchy::Select(topo, {"core", "cache", "numa", "system"});

  std::vector<bench::CurveSpec> specs{
      {"MCS", "mcs", h1, {}},
      {"HMCS<2>", "hmcs", h2, {}},
      {"HMCS<3>", "hmcs", h3, {}},
      {"HMCS<4>", "hmcs", h4, {}},
      {"CLoF<4>-x86", "tkt-tkt-mcs-mcs", h4, {}},  // LC-best of Fig. 9a / Fig. 10
  };

  bench::CurveRunOptions options;
  options.duration_ms = flags.GetDouble("duration_ms", flags.GetBool("quick") ? 0.3 : 1.0);
  options.runs = flags.GetInt("runs", 1);
  auto thread_counts = harness::PaperThreadCounts(topo);
  auto rows = bench::RunCurves(machine, specs, thread_counts,
                               workload::Profile::LevelDbReadRandom(), options);
  bench::PrintCurveTable("Figure 2: LevelDB x86 — HMCS level configurations vs CLoF",
                         thread_counts, rows);
  return 0;
}

// Figure 10: the best (LC) CLoF locks in action — LevelDB and Kyoto Cabinet workloads on
// both machines, comparing CLoF<3>/CLoF<4> of *both* platforms (cross-platform locks
// included), HMCS<4>, CNA and ShflLock. (§5.3 runs 3 x 10s; scale with --runs/--duration_ms.)
//
// Paper shapes: CLoF<4>-x86 gains ~23% over CLoF<3>-x86 once hyperthreads activate
// (>48 threads); on Arm the 4th level gains little; a lock selected for one platform
// deteriorates on the other (towards HMCS); CLoF<4> beats HMCS<4> in most scenarios and
// CNA/ShflLock by up to ~2x at high contention.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/curve_runner.h"

namespace {

using namespace clof;

void RunMachineWorkload(const char* title, const sim::Machine& machine,
                        const workload::Profile& profile, const bench::CurveRunOptions& options) {
  const topo::Topology& topo = machine.topology;
  bool is_x86 = machine.platform.arch == sim::Arch::kX86;
  auto h2 = topo::Hierarchy::Select(topo, {"numa", "system"});
  auto h3 = topo::Hierarchy::Select(topo, {"cache", "numa", "system"});
  auto h4 = is_x86
                ? topo::Hierarchy::Select(topo, {"core", "cache", "numa", "system"})
                : topo::Hierarchy::Select(topo, {"cache", "numa", "package", "system"});

  // LC-best locks per Figure 10's legend.
  std::vector<bench::CurveSpec> specs{
      {"CLoF<3>-x86", "tkt-mcs-mcs", h3, {}},
      {"CLoF<4>-x86", "tkt-tkt-mcs-mcs", h4, {}},
      {"CLoF<3>-Arm", "tkt-clh-tkt", h3, {}},
      {"CLoF<4>-Arm", "tkt-clh-tkt-tkt", h4, {}},
      {"HMCS<4>", "hmcs", h4, {}},
      {"CNA", "cna", h2, {}},
      {"ShflLock", "shfl", h2, {}},
  };
  auto thread_counts = harness::PaperThreadCounts(topo);
  auto rows = bench::RunCurves(machine, specs, thread_counts, profile, options);
  bench::PrintCurveTable(title, thread_counts, rows);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv, {"duration_ms", "runs", "jobs", "quick"});
  bench::CurveRunOptions options;
  options.duration_ms = flags.GetDouble("duration_ms", flags.GetBool("quick") ? 0.3 : 1.0);
  options.runs = flags.GetInt("runs", flags.GetBool("quick") ? 1 : 3);
  options.jobs = flags.GetInt("jobs", 0);  // 0 = one executor worker per host CPU

  auto x86 = sim::Machine::PaperX86();
  auto arm = sim::Machine::PaperArm();
  auto leveldb = workload::Profile::LevelDbReadRandom();
  // Kyoto's CS is ~50x longer; use a longer virtual run so counts stay meaningful.
  bench::CurveRunOptions kyoto_options = options;
  kyoto_options.duration_ms = options.duration_ms * 10.0;
  auto kyoto = workload::Profile::KyotoMix();

  RunMachineWorkload("Figure 10: LevelDB - x86", x86, leveldb, options);
  RunMachineWorkload("Figure 10: LevelDB - Armv8", arm, leveldb, options);
  RunMachineWorkload("Figure 10: Kyoto Cabinet - x86", x86, kyoto, kyoto_options);
  RunMachineWorkload("Figure 10: Kyoto Cabinet - Armv8", arm, kyoto, kyoto_options);
  return 0;
}

// Figure 3: LevelDB throughput of the NUMA-oblivious basic locks when all contention is
// confined to a single cohort of each level (one thread per immediate sub-cohort, the
// paper's "maximum contention" per level: e.g. 8 threads — one per cache group — for an
// x86 NUMA cohort; 2 threads — one per package — for the system cohort).
//
// Paper shapes: the best lock differs per level (A2) and per architecture (A3);
// Ticketlock wins the 2-thread system cohort but is worst at the NUMA cohort; hem-ctr
// beats hem on x86 but collapses to ~0 on Armv8 (§3.2).
#include <cstdio>
#include <set>
#include <vector>

#include "bench/bench_util.h"
#include "src/harness/lock_bench.h"

namespace {

using namespace clof;

// One thread per cohort of level `level_index - 1` (or per CPU if it is the lowest
// level), all within cohort 0 of level `level_index`.
std::vector<int> CohortMaxContentionCpus(const topo::Topology& topo, int level_index) {
  auto members = topo.CohortCpus(level_index, 0);
  if (level_index == 0) {
    return members;
  }
  std::vector<int> cpus;
  int sub = level_index - 1;
  std::set<int> seen;
  for (int cpu : members) {
    if (seen.insert(topo.CohortOf(cpu, sub)).second) {
      cpus.push_back(cpu);
    }
  }
  return cpus;
}

void RunMachine(const char* label, const sim::Machine& machine, double duration_ms) {
  const topo::Topology& topo = machine.topology;
  auto h1 = topo::Hierarchy::Select(topo, {"system"});
  struct Row {
    const char* name;
    const char* lock;
    const Registry* registry;
  };
  const std::vector<Row> rows{
      {"tkt", "tkt", &SimRegistry(false)}, {"mcs", "mcs", &SimRegistry(false)},
      {"clh", "clh", &SimRegistry(false)}, {"hem", "hem", &SimRegistry(false)},
      {"hem-ctr", "hem", &SimRegistry(true)},
  };

  std::vector<std::pair<std::string, std::vector<int>>> cohorts;  // (label, cpus)
  for (int level = topo.num_levels() - 1; level >= 0; --level) {
    auto cpus = CohortMaxContentionCpus(topo, level);
    if (cpus.size() >= 2) {
      cohorts.emplace_back(
          topo.level(level).name + "(" + std::to_string(cpus.size()) + "T)", cpus);
    }
  }

  std::printf("\n== Figure 3 (%s): basic locks per cohort at max contention (iter/ms) ==\n",
              label);
  std::printf("%-10s", "lock");
  for (const auto& [name, cpus] : cohorts) {
    std::printf("%14s", name.c_str());
  }
  std::printf("\n");
  for (const auto& row : rows) {
    std::printf("%-10s", row.name);
    for (const auto& [name, cpus] : cohorts) {
      harness::BenchConfig config;
      config.spec.machine = &machine;
      config.spec.hierarchy = h1;
      config.lock_name = row.lock;
      config.spec.registry = row.registry;
      config.spec.profile = workload::Profile::LevelDbReadRandom();
      config.num_threads = static_cast<int>(cpus.size());
      config.cpu_assignment = cpus;
      config.duration_ms = duration_ms;
      auto result = harness::RunLockBench(config);
      std::printf("%14.0f", result.throughput_per_us * 1000.0);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv, {"duration_ms", "quick"});
  double duration = flags.GetDouble("duration_ms", flags.GetBool("quick") ? 0.3 : 1.0);
  RunMachine("x86", sim::Machine::PaperX86(), duration);
  RunMachine("Armv8", sim::Machine::PaperArm(), duration);
  return 0;
}

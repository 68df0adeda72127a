// Table 2: throughput speedups of two threads sharing the atomic counter in the same
// cohort over the system cohort, for both machines — paper values vs measured.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/discover/heatmap.h"

namespace {

using namespace clof;

void RunMachine(const char* label, const sim::Machine& machine, int stride, int jobs,
                const std::map<std::string, double>& paper) {
  discover::HeatmapOptions options;
  options.rounds_per_pair = 60;
  options.cpu_stride = stride;
  options.jobs = jobs;
  discover::Heatmap map = discover::RunPingPongHeatmap(machine, options);
  auto speedups = discover::CohortSpeedups(machine.topology, map);
  std::printf("\n== Table 2 (%s): cohort speedup over system cohort ==\n", label);
  std::printf("%-14s%10s%10s\n", "cohort", "paper", "measured");
  for (int l = machine.topology.num_levels() - 1; l >= 0; --l) {
    const std::string& name = machine.topology.level(l).name;
    auto it = paper.find(name);
    if (it == paper.end() || speedups[l] == 0.0) {
      continue;
    }
    std::printf("%-14s%10.2f%10.2f\n", name.c_str(), it->second, speedups[l]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  clof::bench::Flags flags(argc, argv, {"stride", "jobs", "quick"});
  // x86 stride must hit SMT siblings (0/48 stay aligned for even strides) and cache
  // mates (3 consecutive cores): stride 2 preserves both.
  int stride = flags.GetInt("stride", flags.GetBool("quick") ? 2 : 1);
  int jobs = flags.GetInt("jobs", 0);  // 0 = one executor worker per host CPU
  RunMachine("x86", sim::Machine::PaperX86(), stride, jobs,
             {{"system", 1.00}, {"package", 1.54}, {"numa", 1.54}, {"cache", 9.07},
              {"core", 12.18}});
  // Arm stride must hit same-cache pairs (groups of 4): stride 1 or 2.
  RunMachine("Armv8", sim::Machine::PaperArm(), std::min(stride, 2), jobs,
             {{"system", 1.00}, {"package", 1.76}, {"numa", 2.98}, {"cache", 7.04}});
  return 0;
}

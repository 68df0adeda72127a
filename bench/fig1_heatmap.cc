// Figure 1: throughput heatmap of two threads ping-ponging a shared counter, for every
// CPU pair on both simulated machines. Also demonstrates the automated level inference
// (the paper's "identifying levels in a heatmap can be easily automated").
//
// Output: ASCII heatmaps + CSV files (fig1_x86.csv, fig1_arm.csv) + inferred levels.
#include <cstdio>
#include <fstream>

#include "bench/bench_util.h"
#include "src/discover/heatmap.h"

namespace {

using namespace clof;

void RunMachine(const char* label, const sim::Machine& machine,
                const discover::HeatmapOptions& options, const std::string& csv_path) {
  std::printf("\n== Figure 1 (%s): ping-pong heatmap, %d CPUs, stride %d ==\n", label,
              machine.topology.num_cpus(), options.cpu_stride);
  discover::Heatmap map = discover::RunPingPongHeatmap(machine, options);
  std::printf("%s", discover::HeatmapToAscii(map).c_str());
  std::ofstream(csv_path) << discover::HeatmapToCsv(map);
  std::printf("(full heatmap written to %s)\n", csv_path.c_str());

  topo::Topology inferred = discover::InferTopology(map);
  std::printf("inferred hierarchy levels (low to high):");
  for (int l = 0; l < inferred.num_levels(); ++l) {
    std::printf(" %s[%d cohorts]", inferred.level(l).name.c_str(),
                inferred.level(l).num_cohorts);
  }
  std::printf("\nactual    hierarchy levels (low to high):");
  for (int l = 0; l < machine.topology.num_levels(); ++l) {
    std::printf(" %s[%d cohorts]", machine.topology.level(l).name.c_str(),
                machine.topology.level(l).num_cohorts);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  clof::bench::Flags flags(argc, argv, {"rounds", "stride", "jobs", "quick"});
  discover::HeatmapOptions options;
  options.rounds_per_pair = flags.GetInt("rounds", 60);
  options.cpu_stride = flags.GetInt("stride", flags.GetBool("quick") ? 4 : 1);
  options.jobs = flags.GetInt("jobs", 0);  // 0 = one executor worker per host CPU
  RunMachine("x86", sim::Machine::PaperX86(), options, "fig1_x86.csv");
  RunMachine("Armv8", sim::Machine::PaperArm(), options, "fig1_arm.csv");
  return 0;
}

// Robustness study (docs/FAULT_INJECTION.md): how much of their ideal throughput the
// sweep winners retain under deterministic perturbations — lock-holder preemption,
// heterogeneous CPU speed, cache-line interference, and thread churn — and whether the
// robustness-aware ranking picks a different winner than the ideal HC policy.
//
// The ideal sweep evaluates every lock in a vacuum; this bench answers the follow-up
// question a deployer actually asks: does the winner still win when the machine
// misbehaves? Fair queue locks (MCS/CLH/ticket) are the interesting case — FIFO
// handover turns one preempted holder into a convoy, while unfair locks let a running
// thread steal past the stalled one.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/select/scripted_bench.h"

namespace {

using namespace clof;

void RunVariant(const sim::Machine& machine, const std::vector<std::string>& levels,
                double duration_ms, int jobs, int candidates) {
  auto hierarchy = topo::Hierarchy::Select(machine.topology, levels);
  select::PerturbationConfig config;
  config.sweep.spec.machine = &machine;
  config.sweep.spec.hierarchy = hierarchy;
  config.sweep.spec.registry = &SimRegistry(machine.platform.arch == sim::Arch::kX86);
  config.sweep.duration_ms = duration_ms;
  config.sweep.jobs = jobs;
  config.candidates = candidates;
  auto result = select::RunPerturbationRanking(config);

  std::printf("\n== %s, %d-level robustness matrix at %d threads ==\n",
              machine.platform.name.c_str(), hierarchy.depth(), result.probe_threads);
  std::printf("ideal HC-best %-18s LC-best %-18s\n",
              result.sweep.selection.hc_best.c_str(),
              result.sweep.selection.lc_best.c_str());

  // Retention matrix: candidates as rows, scenarios as columns.
  std::printf("\n%-18s%10s", "lock", "baseline");
  for (const auto& scenario : result.scenarios) {
    std::printf("%14s", scenario.name.c_str());
  }
  std::printf("%10s\n", "robust");
  for (const auto& lock : result.locks) {
    std::printf("%-18s%10.3f", lock.name.c_str(), lock.baseline_throughput);
    for (const auto& outcome : lock.outcomes) {
      std::printf("%13.1f%%", 100.0 * outcome.retention);
    }
    std::printf("%10.3f\n", lock.score);
  }

  // Tail-latency matrix: the same cells, p99 acquire latency in ns.
  std::printf("\n%-18s%10s", "p99 (ns)", "baseline");
  for (const auto& scenario : result.scenarios) {
    std::printf("%14s", scenario.name.c_str());
  }
  std::printf("\n");
  for (const auto& lock : result.locks) {
    std::printf("%-18s%10.1f", lock.name.c_str(), lock.baseline_p99_ns);
    for (const auto& outcome : lock.outcomes) {
      std::printf("%14.1f", outcome.acquire_p99_ns);
    }
    std::printf("\n");
  }

  std::printf("\nrobust winner: %-18s (score %.3f)%s\n", result.best.c_str(),
              result.best_score,
              result.winner_changed ? "  [differs from ideal HC-best]" : "");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv, {"duration_ms", "jobs", "candidates", "only", "quick"});
  double duration = flags.GetDouble("duration_ms", flags.GetBool("quick") ? 0.15 : 0.5);
  int jobs = flags.GetInt("jobs", 0);  // 0 = one worker per host CPU
  int candidates = flags.GetInt("candidates", 4);
  std::string only = flags.GetString("only", "");
  auto x86 = sim::Machine::PaperX86();
  auto arm = sim::Machine::PaperArm();
  if (only.empty() || only == "arm") {
    RunVariant(arm, {"cache", "numa", "system"}, duration, jobs, candidates);
  }
  if (only.empty() || only == "x86") {
    RunVariant(x86, {"cache", "numa", "system"}, duration, jobs, candidates);
  }
  return 0;
}

// Combining locks vs the queue-lock compositions (docs/COMBINING.md).
//
// Sweeps every generated CLoF composition of the chosen hierarchy depth, every
// depth-adaptive baseline (HMCS, CNA, ShflLock, the cohort locks, ...), and the
// combining locks (CC-Synch, H-Synch) across the thread grid, then prints the
// fig-style comparison: where delegation starts paying. Paper shape: under low
// contention combining trails the queue locks (the announce Exchange and the
// combiner's serving loop are pure overhead), but at the top thread counts the
// combiner keeps the critical-section lines in one cache for H consecutive sections
// while every queue lock migrates them on every handover — so a combining lock wins
// the saturated end outright.
//
//   combining_bench [--quick] [--check]
//
// --check exits nonzero unless, at the top thread count, some combining lock beats
// every non-combining entry in the sweep (this is the self-check scripts/check_all.sh
// runs). Flags: --machine (bench::ParseMachine), --levels=a,b,..., --threads=csv,
// --duration_ms, --seed, --jobs, --H (combining degree / keep-local threshold),
// --top=mcs|tkt|clh.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/combining/combining.h"
#include "src/harness/lock_bench.h"
#include "src/select/scripted_bench.h"

namespace {

using namespace clof;

bool Contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv,
                     {"machine", "levels", "threads", "duration_ms", "seed", "jobs", "H",
                      "top", "quick", "check"});
  const bool quick = flags.GetBool("quick");
  const bool check = flags.GetBool("check");
  const sim::Machine machine = bench::ParseMachine(flags);

  // Default hierarchies keep the sweep tractable: depth 3 is 64 generated
  // compositions; --quick drops to depth 2 (16) for the smoke-test path.
  const topo::Hierarchy hierarchy = bench::ParseHierarchy(
      flags, machine.topology, quick ? "numa,system" : "cache,numa,system");

  combining::CombiningOptions options;
  options.combine_degree = 0;  // ClofParams.keep_local_threshold (--H) at Make time
  options.top_lock = flags.GetString("top", "mcs");
  for (int i = 0; i + 1 < hierarchy.depth(); ++i) {
    options.hsynch_levels.push_back(hierarchy.LevelName(i));
  }
  if (options.hsynch_levels.empty()) {
    options.hsynch_levels.push_back(hierarchy.LevelName(hierarchy.depth() - 1));
  }
  const Registry& base = SimRegistry(machine.platform.arch == sim::Arch::kX86);
  const Registry registry = combining::WithCombining(base, options);
  const std::vector<std::string> combining_names =
      combining::CombiningLockNames(options);

  select::SweepConfig config;
  config.spec.machine = &machine;
  config.spec.hierarchy = hierarchy;
  config.spec.registry = &registry;
  config.spec.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  config.spec.params.keep_local_threshold =
      static_cast<uint32_t>(flags.GetInt("H", 128));
  config.duration_ms = flags.GetPositive("duration_ms", quick ? 0.25 : 0.5);
  config.jobs = flags.GetInt("jobs", 0);
  config.thread_counts = flags.GetList<int>("threads");
  if (config.thread_counts.empty()) {
    const auto all = harness::PaperThreadCounts(machine.topology);
    if (quick) {
      // The low-, mid-, and saturated-contention points of the full grid.
      config.thread_counts = {all.front(), all[all.size() / 2], all.back()};
    } else {
      config.thread_counts = all;
    }
  }
  // Every non-combining entry that can run at this depth — the full generated space
  // plus the depth-adaptive baselines — and the combining locks on top.
  config.lock_names =
      registry.Names({.levels = hierarchy.depth(), .generated_only = true});
  for (const auto& name : registry.Names()) {
    const Registry::LockInfo info = registry.Info(name);
    if (info.kind == Registry::Kind::kBaseline && info.levels == Registry::kAnyDepth &&
        !Contains(combining_names, name)) {
      config.lock_names.push_back(name);
    }
  }
  const size_t non_combining = config.lock_names.size();
  for (const auto& name : combining_names) {
    config.lock_names.push_back(name);
  }

  std::printf("machine %s, hierarchy %s, H=%u, top=%s\n", machine.platform.name.c_str(),
              hierarchy.Describe().c_str(), config.spec.params.keep_local_threshold,
              options.top_lock.c_str());
  std::printf("sweeping %zu non-combining entries + %zu combining locks, %.2f ms/cell\n",
              non_combining, combining_names.size(), config.duration_ms);

  const auto result = select::RunScriptedBenchmark(config);
  for (const auto& failure : result.failures) {
    std::printf("quarantined cell: %s @ %d threads: %s\n", failure.lock_name.c_str(),
                failure.num_threads, failure.message.c_str());
  }

  // Rank by top-thread-count throughput; print the combining locks plus the best
  // non-combining entries so the crossover is visible in one table.
  const auto eligible = result.EligibleCurves();
  const size_t top_index = result.thread_counts.size() - 1;
  auto top_throughput = [&](const select::LockCurve& curve) {
    return curve.throughput.empty() ? 0.0 : curve.throughput[top_index];
  };
  std::vector<const select::LockCurve*> ranked;
  for (const auto& curve : eligible) {
    ranked.push_back(&curve);
  }
  std::sort(ranked.begin(), ranked.end(),
            [&](const select::LockCurve* a, const select::LockCurve* b) {
              return top_throughput(*a) > top_throughput(*b);
            });

  std::printf("\n%-18s", "lock (iter/us)");
  for (int t : result.thread_counts) {
    std::printf("%10d", t);
  }
  std::printf("\n");
  size_t printed_non_combining = 0;
  for (const select::LockCurve* curve : ranked) {
    const bool is_combining = Contains(combining_names, curve->name);
    if (!is_combining && printed_non_combining >= 5) {
      continue;  // the table shows every combining lock and the 5 best others
    }
    printed_non_combining += is_combining ? 0 : 1;
    std::printf("%-18s", (curve->name + (is_combining ? " *" : "")).c_str());
    for (size_t i = 0; i < curve->throughput.size(); ++i) {
      std::printf("%10.3f", curve->throughput[i]);
    }
    std::printf("\n");
  }
  std::printf("(* = combining; %zu further non-combining entries elided)\n",
              non_combining - std::min(non_combining, printed_non_combining));

  // The headline numbers: best of each family at the saturated end.
  const select::LockCurve* best_combining = nullptr;
  const select::LockCurve* best_classic = nullptr;
  for (const select::LockCurve* curve : ranked) {
    auto& slot = Contains(combining_names, curve->name) ? best_combining : best_classic;
    if (slot == nullptr) {
      slot = curve;
    }
  }
  if (best_combining == nullptr || best_classic == nullptr) {
    std::fprintf(stderr, "error: a whole family was quarantined out of the sweep\n");
    return 1;
  }
  const double combining_tput = top_throughput(*best_combining);
  const double classic_tput = top_throughput(*best_classic);
  std::printf("\nat %d threads: best combining %s %.3f iter/us vs best"
              " non-combining %s %.3f iter/us (%+.1f%%)\n",
              result.thread_counts.back(), best_combining->name.c_str(), combining_tput,
              best_classic->name.c_str(), classic_tput,
              classic_tput > 0.0 ? 100.0 * (combining_tput / classic_tput - 1.0) : 0.0);

  if (check) {
    for (const auto& name : combining_names) {
      if (result.Quarantined(name)) {
        std::fprintf(stderr, "CHECK FAILED: combining lock %s was quarantined\n",
                     name.c_str());
        return 1;
      }
    }
    if (combining_tput <= classic_tput) {
      std::fprintf(stderr,
                   "CHECK FAILED: no combining lock beat the non-combining field at"
                   " %d threads (%.3f vs %.3f iter/us)\n",
                   result.thread_counts.back(), combining_tput, classic_tput);
      return 1;
    }
    std::printf("combining check passed: %s beats every non-combining entry at %d"
                " threads\n",
                best_combining->name.c_str(), result.thread_counts.back());
  }
  return 0;
}

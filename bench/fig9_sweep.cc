// Figure 9 (a-d): the scripted benchmark (§4.3) — every generated CLoF lock of the
// given depth on the given platform, ranked by the HC and LC selection policies, with
// HMCS at the same hierarchy as baseline. Runs all four paper variants by default:
//   (a) x86 4-level   (b) Armv8 4-level   (c) x86 3-level   (d) Armv8 3-level
//
// Paper results for reference:
//   (a) HC-best hem-hem-mcs-clh, LC-best tkt-tkt-mcs-mcs, worst mcs-clh-tkt-mcs
//   (b) HC-best tkt-clh-clh-clh, LC-best tkt-clh-tkt-tkt, worst mcs-tkt-tkt-tkt
//   (c) HC-best hem-mcs-tkt,     LC-best tkt-mcs-mcs,     worst clh-tkt-tkt
//   (d) HC/LC-best tkt-clh-tkt,                           worst mcs-tkt-hem
#include <cstdio>
#include <fstream>

#include "bench/bench_util.h"
#include "bench/curve_runner.h"
#include "src/select/preselect.h"
#include "src/select/scripted_bench.h"

namespace {

using namespace clof;

void RunVariant(const char* tag, const sim::Machine& machine,
                const std::vector<std::string>& levels, bool ctr_hem, double duration_ms,
                bool verbose, bool preselect, int jobs) {
  auto hierarchy = topo::Hierarchy::Select(machine.topology, levels);
  select::SweepConfig config;
  config.spec.machine = &machine;
  config.spec.hierarchy = hierarchy;
  config.spec.registry = &SimRegistry(ctr_hem);
  config.duration_ms = duration_ms;
  config.jobs = jobs;
  if (preselect) {
    // §4.3 footnote: prune the search space with the per-level Figure-3 heuristic.
    select::PreselectConfig pre;
    pre.machine = &machine;
    pre.hierarchy = hierarchy;
    pre.registry = config.spec.registry;
    auto chosen = select::PreselectLocks(pre);
    config.lock_names = chosen.combinations;
    std::printf("\npre-selection kept %zu of %d combinations:", config.lock_names.size(),
                static_cast<int>(1) << (2 * hierarchy.depth()));
    for (int d = 0; d < hierarchy.depth(); ++d) {
      std::printf(" %s={%s,%s}", hierarchy.LevelName(d).c_str(),
                  chosen.survivors[d][0].c_str(), chosen.survivors[d][1].c_str());
    }
    std::printf("\n");
  }
  auto result = select::RunScriptedBenchmark(config);

  std::printf("\n== Figure 9%s: %s, %d-level sweep (%zu locks) ==\n", tag,
              machine.platform.name.c_str(), hierarchy.depth(), result.curves.size());
  std::printf("HC-best: %-18s (score %.3f)\n", result.selection.hc_best.c_str(),
              result.selection.hc_best_score);
  std::printf("LC-best: %-18s (score %.3f)\n", result.selection.lc_best.c_str(),
              result.selection.lc_best_score);
  std::printf("worst:   %-18s (score %.3f)\n", result.selection.worst.c_str(),
              result.selection.worst_score);

  // Print the highlighted curves plus HMCS at the same hierarchy (run through the same
  // parallel cell executor as the sweep).
  bench::CurveRunOptions hmcs_options;
  hmcs_options.duration_ms = duration_ms;
  hmcs_options.registry = config.spec.registry;
  hmcs_options.jobs = jobs;
  auto hmcs_rows = bench::RunCurves(machine, {{"HMCS", "hmcs", hierarchy, {}}},
                                    result.thread_counts, config.spec.profile,
                                    hmcs_options);
  auto find_curve = [&](const std::string& name) {
    const select::LockCurve* curve = result.Curve(name);
    return curve != nullptr ? curve->throughput : std::vector<double>();
  };
  std::vector<std::pair<std::string, std::vector<double>>> rows;
  rows.emplace_back("HC-best " + result.selection.hc_best,
                    find_curve(result.selection.hc_best));
  rows.emplace_back("LC-best " + result.selection.lc_best,
                    find_curve(result.selection.lc_best));
  rows.emplace_back("HMCS", hmcs_rows[0].second);
  rows.emplace_back("worst " + result.selection.worst, find_curve(result.selection.worst));
  bench::PrintCurveTable("highlighted curves", result.thread_counts, rows);

  // Full data to CSV (the gray "Others" beam of the figure).
  std::string csv_path = std::string("fig9") + tag + ".csv";
  std::ofstream csv(csv_path);
  csv << "lock";
  for (int t : result.thread_counts) {
    csv << ',' << t;
  }
  csv << '\n';
  for (const auto& curve : result.curves) {
    csv << curve.name;
    for (double v : curve.throughput) {
      csv << ',' << v;
    }
    csv << '\n';
  }
  std::printf("(all %zu curves written to %s)\n", result.curves.size(), csv_path.c_str());

  if (verbose) {
    // Rank only the eligible curves: a quarantined lock's zeroed slots would place it
    // in the ranking with a meaningless (deflated) score instead of excluding it.
    auto hc = select::Rank(result.EligibleCurves(), result.thread_counts,
                           select::Policy::kHighContention);
    std::printf("full HC ranking:\n");
    for (const auto& [name, score] : hc) {
      std::printf("  %-20s %.3f\n", name.c_str(), score);
    }
    if (!result.quarantined.empty()) {
      std::printf("  (%zu quarantined lock(s) excluded from the ranking)\n",
                  result.quarantined.size());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv,
                     {"duration_ms", "jobs", "only", "preselect", "verbose", "quick"});
  double duration = flags.GetPositive("duration_ms", flags.GetBool("quick") ? 0.15 : 1.0);
  bool verbose = flags.GetBool("verbose");
  bool preselect = flags.GetBool("preselect");
  int jobs = flags.GetInt("jobs", 0);  // 0 = one worker per host CPU
  std::string only = flags.GetString("only", "");
  auto x86 = sim::Machine::PaperX86();
  auto arm = sim::Machine::PaperArm();
  if (only.empty() || only == "a") {
    RunVariant("a", x86, {"core", "cache", "numa", "system"}, true, duration, verbose,
               preselect, jobs);
  }
  if (only.empty() || only == "b") {
    RunVariant("b", arm, {"cache", "numa", "package", "system"}, false, duration, verbose,
               preselect, jobs);
  }
  if (only.empty() || only == "c") {
    RunVariant("c", x86, {"cache", "numa", "system"}, true, duration, verbose, preselect,
               jobs);
  }
  if (only.empty() || only == "d") {
    RunVariant("d", arm, {"cache", "numa", "system"}, false, duration, verbose, preselect,
               jobs);
  }
  return 0;
}

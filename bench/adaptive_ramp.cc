// Contention ramp for the adaptive facade (docs/ADAPTIVE.md): the LC lock, the HC
// lock, and adaptive::AdaptiveLock wrapping the pair, across the paper's thread
// counts. The figure this draws is the runtime counterpart of Figure 9: at the low
// end the facade should ride the LC winner's curve, at the high end the HC winner's,
// with the crossover visible as one or two recorded switch events.
//
// By default the LC/HC pair and the detector thresholds are derived from an ordinary
// scripted sweep (select::PlanAdaptive); pass --lc=NAME --hc=NAME to skip the sweep.
// The binary self-checks the tracking envelope — adaptive within 10% of the LC lock
// at the lowest point and of the HC lock at the highest — and exits nonzero outside
// it, so it doubles as a smoke test (scripts/check_all.sh runs it with --quick).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/clof/adaptive.h"
#include "src/harness/lock_bench.h"
#include "src/select/adaptive_policy.h"
#include "src/select/scripted_bench.h"

namespace {

using namespace clof;

std::vector<int> ParseThreads(const bench::Flags& flags, const topo::Topology& topology,
                              bool quick) {
  if (!flags.Has("threads")) {
    std::vector<int> full = harness::PaperThreadCounts(topology);
    if (!quick || full.size() <= 5) {
      return full;
    }
    // Quick mode trims interior ramp points but always keeps both ends — the
    // envelope self-check compares against exactly those two.
    return {full.front(), full[full.size() / 3], full[(2 * full.size()) / 3],
            full.back()};
  }
  return flags.GetList<int>("threads");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv,
                     {"machine", "threads", "duration_ms", "seed", "jobs", "lc", "hc", "quick"});
  const bool quick = flags.GetBool("quick");
  // Quick mode trims ramp points, not cell duration: cells shorter than ~1ms make
  // the envelope check measure the detector's one-window pre-switch transient
  // instead of the tracking (at 127 threads the transient alone costs ~10%).
  const double duration = flags.GetDouble("duration_ms", 1.0);
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const sim::Machine machine = bench::ParseMachine(flags);
  auto hierarchy =
      topo::Hierarchy::Select(machine.topology, {"cache", "numa", "system"});
  const Registry& registry = SimRegistry(machine.platform.arch == sim::Arch::kX86);
  auto threads = ParseThreads(flags, machine.topology, quick);

  adaptive::AdaptiveOptions options;
  const std::string lc = flags.GetString("lc", "");
  const std::string hc = flags.GetString("hc", "");
  if (!lc.empty() && !hc.empty()) {
    options.lc_lock = lc;
    options.hc_lock = hc;
  } else {
    select::SweepConfig sweep;
    sweep.spec.machine = &machine;
    sweep.spec.hierarchy = hierarchy;
    sweep.spec.registry = &registry;
    sweep.spec.seed = seed;
    sweep.duration_ms = duration;
    sweep.thread_counts = threads;
    sweep.jobs = flags.GetInt("jobs", 0);
    auto swept = select::RunScriptedBenchmark(sweep);
    options = select::PlanAdaptive(swept);
    std::printf("planned from %zu-lock sweep: lc %s, hc %s, up %.0f ns, down %.0f ns\n",
                swept.curves.size(), options.lc_lock.c_str(), options.hc_lock.c_str(),
                options.up_latency_ns, options.down_latency_ns);
  }

  const Registry with_adaptive = adaptive::WithAdaptive(registry, options);
  const std::string names[3] = {options.lc_lock, options.hc_lock, "adaptive"};
  std::vector<std::vector<double>> curves(3, std::vector<double>(threads.size(), 0.0));
  std::vector<size_t> switches(threads.size(), 0);
  for (size_t ti = 0; ti < threads.size(); ++ti) {
    for (int i = 0; i < 3; ++i) {
      harness::BenchConfig config;
      config.spec.machine = &machine;
      config.spec.hierarchy = hierarchy;
      config.spec.registry = &with_adaptive;
      config.spec.seed = seed;
      config.lock_name = names[i];
      config.num_threads = threads[ti];
      config.duration_ms = duration;
      auto result = harness::RunLockBench(config);
      curves[i][ti] = result.throughput_per_us;
      if (i == 2) {
        switches[ti] = result.lock_markers.size();
      }
    }
  }

  bench::PrintCurveTable("adaptive contention ramp: " + machine.platform.name, threads,
                         {{"LC " + options.lc_lock, curves[0]},
                          {"HC " + options.hc_lock, curves[1]},
                          {"adaptive", curves[2]}});
  std::printf("%-22s", "switches");
  for (size_t ti = 0; ti < threads.size(); ++ti) {
    std::printf("%9zu", switches[ti]);
  }
  std::printf("\n");

  // Tracking envelope: the facade's whole point is to cost at most the gate overhead
  // against whichever inner lock wins the current phase.
  const double low_ratio =
      curves[0].front() > 0.0 ? curves[2].front() / curves[0].front() : 0.0;
  const double high_ratio =
      curves[1].back() > 0.0 ? curves[2].back() / curves[1].back() : 0.0;
  std::printf("\nlow end (%d threads): adaptive at %.1f%% of the LC lock (target >= 90%%)\n",
              threads.front(), 100.0 * low_ratio);
  std::printf("high end (%d threads): adaptive at %.1f%% of the HC lock (target >= 90%%)\n",
              threads.back(), 100.0 * high_ratio);
  const bool ok = low_ratio >= 0.9 && high_ratio >= 0.9;
  std::printf("envelope: %s\n", ok ? "OK" : "VIOLATED");
  return ok ? 0 : 1;
}

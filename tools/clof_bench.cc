// clof_bench — the swiss-army driver for the CLoF toolkit.
//
//   clof_bench --list[=<levels>]                     list registered locks + metadata
//   clof_bench --discover [--machine=arm]            heatmap + inferred hierarchy (§3.1)
//   clof_bench --sweep [--levels=cache,numa,system]  scripted benchmark + selection (§4.3)
//              [--jobs=N]                            executor workers (0 = all host CPUs)
//              [--cache=results/cache]               content-addressed result cache:
//                                                    unchanged cells are served from disk
//              [--journal=FILE]                      crash-safe sweep journal: a killed
//                                                    sweep resumes where it stopped
//                                                    (docs/PARALLEL_SWEEP.md)
//              [--robustness[=K]]                    re-rank the top-K sweep winners under
//                                                    the fault matrix (docs/FAULT_INJECTION.md)
//              [--latency[=K]]                       re-rank the top-K sweep winners by
//                                                    worst-case acquire p999 under churn
//                                                    instead of throughput (docs/TIMEOUT.md);
//                                                    enrolls the abortable mcst compositions
//              [--deadline=NS]                       bound every acquire at NS virtual ns via
//                                                    Lock::TryAcquireFor; timed-out attempts
//                                                    count as drops, the knob joins the cache
//                                                    fingerprint, and the abortable mcst
//                                                    compositions join the sweep
//   clof_bench --torture [--lock=<name>]             torture oracles (docs/TORTURE.md):
//                                                    named lock, or validate against the
//                                                    mutants when no lock is given
//   clof_bench --adaptive [--lc=tkt --hc=tkt-mcs-tkt]
//              [--threads=1,8,64] [--fault=SPEC]     contention ramp over the LC lock, the
//              [--trace=out.json]                    HC lock, and the adaptive facade that
//              [--up_ns=N --down_ns=N]               hot-swaps between them (docs/ADAPTIVE.md);
//              [--force_switch=N]                    omit --lc/--hc to derive the pair from
//                                                    an ordinary sweep (select::PlanAdaptive)
//   clof_bench --lock=tkt-clh-tkt [--threads=8,64] [--profile=kyoto]
//              [--stats=per-level]                  run one lock, print per-level stats
//              [--fault=preempt,hetero|all|storm]   perturb the run (src/fault/scenarios.h)
//              [--trace=out.json]                   Chrome trace of the last sweep point
//                                                   (open in Perfetto / chrome://tracing)
//   clof_bench --service [--shards=N] [--loads=0.5,2,8]
//              [--quick] [--check]                  multi-lock service scenario
//                                                   (docs/SERVICE.md): per-site scripted
//                                                   selection for the MiniProxy sites,
//                                                   then the aggregate-throughput-vs-
//                                                   offered-load curve comparing per-site
//                                                   winners against the single global
//                                                   winner; --check exits nonzero unless
//                                                   per-site selection holds its ground
//              [--deadline=NS]                      graceful-degradation curve instead of
//                                                   selection (docs/TIMEOUT.md): the same
//                                                   abortable mcst composition on every
//                                                   site, request p999 + drop rate per
//                                                   offered load, deadline run vs the
//                                                   no-deadline baseline; --check exits
//                                                   nonzero unless the deadline bounds the
//                                                   served tail and sheds load above the
//                                                   knee where the baseline's p999 grows
//                                                   without bound
//
// Common flags: --machine=x86|arm|cxl-pod-1024|dc-4level (default arm; the last two
// are the 1024-CPU data-center presets, EXPERIMENTS.md "1024-CPU sweep"),
// --topology=<spec> (custom machine,
// see topo::Topology::FromSpec), --levels=<names,comma>, --duration_ms, --seed, --H.
// --combining enrolls the combining locks (docs/COMBINING.md) — "ccsynch" plus one
// "hsynch-<level>" per non-system hierarchy level — next to the queue-lock
// compositions in --sweep (incl. --robustness), --service, and --lock= runs; their
// registry entries carry the combining options in the description, so cached sweep
// cells with and without --combining never collide.
// docs/OBSERVABILITY.md documents the per-level metrics and the trace workflow;
// docs/PARALLEL_SWEEP.md documents the executor and the cache key;
// docs/FAULT_INJECTION.md documents the perturbation layer and the robustness mode.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <memory>

#include "bench/bench_util.h"
#include "src/clof/adaptive.h"
#include "src/clof/timeout.h"
#include "src/combining/combining.h"
#include "src/discover/heatmap.h"
#include "src/fault/scenarios.h"
#include "src/exec/executor.h"
#include "src/exec/result_cache.h"
#include "src/harness/lock_bench.h"
#include "src/exec/sweep_journal.h"
#include "src/harness/service_bench.h"
#include "src/select/adaptive_policy.h"
#include "src/select/scripted_bench.h"
#include "src/select/site_selection.h"
#include "src/sim/engine.h"
#include "src/torture/mutants.h"
#include "src/torture/torture.h"
#include "src/trace/chrome_export.h"
#include "src/trace/trace.h"

namespace {

using namespace clof;

std::vector<std::string> SplitCsv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream stream(text);
  std::string token;
  while (std::getline(stream, token, ',')) {
    out.push_back(token);
  }
  return out;
}

std::vector<int> ParseThreads(const std::string& text, const topo::Topology& topology) {
  if (text.empty()) {
    return harness::PaperThreadCounts(topology);
  }
  std::vector<int> out;
  for (const auto& token : SplitCsv(text)) {
    out.push_back(std::stoi(token));
  }
  return out;
}

topo::Hierarchy DefaultHierarchy(const topo::Topology& topology, const std::string& levels) {
  if (!levels.empty()) {
    return topo::Hierarchy::Select(topology, SplitCsv(levels));
  }
  // All non-degenerate levels: skip a level whose cohorts match the one below it.
  std::vector<std::string> names;
  int previous_cohorts = -1;
  for (int i = 0; i < topology.num_levels(); ++i) {
    if (topology.level(i).num_cohorts != previous_cohorts) {
      names.push_back(topology.level(i).name);
      previous_cohorts = topology.level(i).num_cohorts;
    }
  }
  return topo::Hierarchy::Select(topology, names);
}

workload::Profile ProfileByName(const std::string& name) {
  if (name == "kyoto") {
    return workload::Profile::KyotoMix();
  }
  if (name == "raw") {
    return workload::Profile::RawHandover();
  }
  return workload::Profile::LevelDbReadRandom();
}

// The observability report behind --stats: where handovers landed, what the coherence
// traffic per level was, and the lock's own per-hierarchy-level counters.
void PrintObservability(const harness::BenchResult& result, const sim::Machine& machine,
                        const topo::Hierarchy& hierarchy) {
  const topo::Topology& topology = machine.topology;
  const int buckets = static_cast<int>(result.level_metrics.size());

  std::printf("\nlock handovers at %d threads (%llu total):\n", result.num_threads,
              static_cast<unsigned long long>(result.total_handovers));
  std::printf("%-10s%12s%10s%12s\n", "level", "handovers", "share", "cumulative");
  for (int b = 0; b < buckets; ++b) {
    uint64_t n = b < static_cast<int>(result.handovers_by_level.size())
                     ? result.handovers_by_level[b]
                     : 0;
    if (n == 0) {
      continue;
    }
    double share = result.total_handovers == 0
                       ? 0.0
                       : 100.0 * static_cast<double>(n) /
                             static_cast<double>(result.total_handovers);
    // Cumulative distance order: same-cpu, then the topology levels low to high.
    double cumulative =
        b == trace::SameCpuBucket(topology.num_levels())
            ? 100.0 * result.HandoverLocalityAt(topo::Topology::kSameCpu)
            : (b < topology.num_levels() ? 100.0 * result.HandoverLocalityAt(b) : 100.0);
    std::printf("%-10s%12llu%9.1f%%%11.1f%%\n",
                trace::BucketName(b, topology).c_str(), static_cast<unsigned long long>(n),
                share, cumulative);
  }

  std::printf("\ncoherence traffic per level (%llu accesses, %llu transfers):\n",
              static_cast<unsigned long long>(result.total_accesses),
              static_cast<unsigned long long>(result.total_line_transfers));
  std::printf("%-10s%12s%14s%10s%16s\n", "level", "transfers", "invalidations", "wakeups",
              "port-queue(us)");
  for (int b = 0; b < buckets; ++b) {
    const trace::LevelMetrics& m = result.level_metrics[b];
    if (m.line_transfers == 0 && m.invalidations == 0 && m.spin_wakeups == 0) {
      continue;
    }
    std::printf("%-10s%12llu%14llu%10llu%16.3f\n", trace::BucketName(b, topology).c_str(),
                static_cast<unsigned long long>(m.line_transfers),
                static_cast<unsigned long long>(m.invalidations),
                static_cast<unsigned long long>(m.spin_wakeups),
                sim::NsFromPs(m.port_queue_ps) * 1e-3);
  }

  // Exact nearest-rank percentiles over the raw samples (the histogram only bounds
  // them); these are the numbers the robustness mode ranks on.
  std::printf("\nacquire latency: mean %.1f ns, p50 %.1f ns, p99 %.1f ns, p99.9 %.1f ns,"
              " max %.1f ns\n",
              result.acquire_latency.MeanNs(), result.acquire_p50_ns,
              result.acquire_p99_ns, result.acquire_p999_ns, result.max_acquire_ns);
  if (result.starved_threads > 0) {
    std::printf("starvation: %d thread(s) completed zero operations\n",
                result.starved_threads);
  }

  if (!result.lock_level_stats.empty()) {
    std::printf("\nper-level lock statistics:\n");
    std::printf("%-10s%14s%12s%12s%12s%12s%12s\n", "level", "acquisitions", "inherited",
                "passes", "climbs", "H-climbs", "pass-ratio");
    const auto& stats = result.lock_level_stats;
    for (size_t level = 0; level < stats.size(); ++level) {
      std::printf("%-10s%14llu%12llu%12llu%12llu%12llu%11.1f%%\n",
                  hierarchy.LevelName(static_cast<int>(level)).c_str(),
                  static_cast<unsigned long long>(stats[level].acquisitions),
                  static_cast<unsigned long long>(stats[level].inherited),
                  static_cast<unsigned long long>(stats[level].local_passes),
                  static_cast<unsigned long long>(stats[level].climbs),
                  static_cast<unsigned long long>(stats[level].threshold_climbs),
                  stats[level].LocalPassRatio() * 100.0);
    }
  }
}

// The quarantine report behind --sweep: which cells failed (deadlock / watchdog trip /
// exception), and which locks selection therefore refused to consider.
void PrintQuarantine(const select::SweepResult& result) {
  if (result.failures.empty()) {
    return;
  }
  std::printf("\nquarantine report (%zu failed cell(s)):\n", result.failures.size());
  for (const auto& failure : result.failures) {
    std::printf("  %-18s %4d threads  %-9s %s\n", failure.lock_name.c_str(),
                failure.num_threads, failure.kind.c_str(), failure.message.c_str());
  }
  std::printf("selection excludes %zu quarantined lock(s):",
              result.quarantined.size());
  for (const auto& name : result.quarantined) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");
}

// The tail report behind --sweep --latency: per-candidate p999 under each perturbation,
// then the p999-ascending re-ranking a deadline-bound service deploys from
// (docs/TIMEOUT.md).
void PrintLatencyRanking(const select::PerturbationResult& result) {
  if (!result.note.empty()) {
    std::printf("\nnote: %s\n", result.note.c_str());
  }
  if (result.locks.empty()) {
    return;  // the baseline quarantined everything; the note + quarantine report say why
  }
  std::printf("\nbounded-latency matrix at %d threads (%zu candidates x %zu scenarios):\n",
              result.probe_threads, result.locks.size(), result.scenarios.size());
  for (const auto& lock : result.locks) {
    std::printf("\n%-18s baseline p999 %8.1f ns, %8.3f iter/us\n", lock.name.c_str(),
                lock.baseline_p999_ns, lock.baseline_throughput);
    std::printf("  %-14s%12s%12s\n", "scenario", "iter/us", "p999(ns)");
    for (const auto& outcome : lock.outcomes) {
      if (outcome.failed) {
        // The perturbed cell never finished: the tail is unbounded by definition.
        std::printf("  %-14s%12s%12s  (%s)\n", outcome.scenario.c_str(), "-", "inf",
                    outcome.failure_kind.c_str());
        continue;
      }
      std::printf("  %-14s%12.3f%12.1f\n", outcome.scenario.c_str(),
                  outcome.throughput_per_us, outcome.acquire_p999_ns);
    }
  }
  std::printf("\nbounded-latency ranking (ascending worst-case acquire p999):\n");
  std::printf("%-18s%12s%16s\n", "lock", "HC score", "worst p999(ns)");
  for (const auto& lock : result.locks) {
    if (std::isinf(lock.worst_p999_ns)) {
      std::printf("%-18s%12.3f%16s\n", lock.name.c_str(), lock.hc_score, "inf");
    } else {
      std::printf("%-18s%12.3f%16.1f\n", lock.name.c_str(), lock.hc_score,
                  lock.worst_p999_ns);
    }
  }
  if (result.winner_changed) {
    std::printf("\nlatency winner %s (worst p999 %.1f ns) differs from throughput HC-best"
                " %s: the throughput winner's tail degrades more under churn.\n",
                result.best.c_str(), result.best_score,
                result.sweep.selection.hc_best.c_str());
  } else {
    std::printf("\nlatency winner %s (worst p999 %.1f ns) confirms the throughput"
                " HC-best.\n",
                result.best.c_str(), result.best_score);
  }
}

// The robustness report behind --sweep --robustness: per-candidate retention and tail
// latency under each perturbation, then the robustness-aware re-ranking.
void PrintRobustness(const select::PerturbationResult& result) {
  if (!result.note.empty()) {
    std::printf("\nnote: %s\n", result.note.c_str());
  }
  if (result.locks.empty()) {
    return;  // the baseline quarantined everything; the note + quarantine report say why
  }
  std::printf("\nrobustness matrix at %d threads (%zu candidates x %zu scenarios):\n",
              result.probe_threads, result.locks.size(), result.scenarios.size());
  for (const auto& lock : result.locks) {
    std::printf("\n%-18s baseline %8.3f iter/us, p99 %8.1f ns\n", lock.name.c_str(),
                lock.baseline_throughput, lock.baseline_p99_ns);
    std::printf("  %-14s%12s%11s%12s%10s\n", "scenario", "iter/us", "retained",
                "p99(ns)", "starved");
    for (const auto& outcome : lock.outcomes) {
      if (outcome.failed) {
        // The perturbed cell never finished: nothing retained, by definition.
        std::printf("  %-14s%12s%10.1f%%%12s%10s  (%s)\n", outcome.scenario.c_str(),
                    "-", 0.0, "-", "-", outcome.failure_kind.c_str());
        continue;
      }
      std::printf("  %-14s%12.3f%10.1f%%%12.1f%10d\n", outcome.scenario.c_str(),
                  outcome.throughput_per_us, 100.0 * outcome.retention,
                  outcome.acquire_p99_ns, outcome.starved_threads);
    }
  }
  std::printf("\nrobustness ranking (robust score = HC score x worst retention):\n");
  std::printf("%-18s%12s%17s%14s\n", "lock", "HC score", "worst retention", "robust score");
  for (const auto& lock : result.locks) {
    std::printf("%-18s%12.3f%16.1f%%%14.3f\n", lock.name.c_str(), lock.hc_score,
                100.0 * lock.worst_retention, lock.score);
  }
  if (result.winner_changed) {
    std::printf("\nrobust winner %s differs from ideal HC-best %s: the ideal winner does"
                " not survive the perturbation matrix.\n",
                result.best.c_str(), result.sweep.selection.hc_best.c_str());
  } else {
    std::printf("\nrobust winner %s confirms the ideal HC-best.\n", result.best.c_str());
  }
}

// The cache and journal summary a sweep-backed mode prints after its sweep; a null
// cache or journal prints nothing.
void PrintCacheAndJournal(const exec::ResultCache* cache, const exec::SweepJournal* journal) {
  if (cache != nullptr) {
    std::printf("cache %s: %llu hits, %llu misses, %llu stored\n", cache->dir().c_str(),
                static_cast<unsigned long long>(cache->hits()),
                static_cast<unsigned long long>(cache->misses()),
                static_cast<unsigned long long>(cache->stores()));
  }
  if (journal != nullptr) {
    std::printf("journal %s: %llu cell(s) served from the previous run\n",
                journal->path().c_str(), static_cast<unsigned long long>(journal->served()));
  }
}

// --combining (docs/COMBINING.md): ccsynch plus one hsynch per non-system level of `h`.
// Derived per mode because --service may narrow the hierarchy first.
combining::CombiningOptions CombiningOptionsFor(const topo::Hierarchy& h) {
  combining::CombiningOptions options;
  for (int i = 0; i + 1 < h.depth(); ++i) {
    options.hsynch_levels.push_back(h.LevelName(i));
  }
  if (options.hsynch_levels.empty()) {  // depth-1 hierarchy: combine at that level
    options.hsynch_levels.push_back(h.LevelName(h.depth() - 1));
  }
  return options;
}

// `registry` plus the combining locks and the abortable mcst compositions, in that
// order; null when neither is asked for, so the run keeps the builtin registry and with
// it every historical cache fingerprint.
std::unique_ptr<Registry> AugmentedRegistry(const Registry& registry,
                                            const topo::Hierarchy& hierarchy,
                                            bool with_combining, bool with_timeout) {
  if (!with_combining && !with_timeout) {
    return nullptr;
  }
  Registry augmented = registry;
  if (with_combining) {
    augmented = combining::WithCombining(augmented, CombiningOptionsFor(hierarchy));
  }
  if (with_timeout) {
    augmented = timeout::WithTimeout(augmented, {});
  }
  return std::make_unique<Registry>(std::move(augmented));
}

int Run(const bench::Flags& flags) {
  // Reject typos up front: benchmarking silently with a default because --thread=8
  // didn't parse as --threads=8 is the worst possible failure mode for a tool whose
  // output people paste into papers.
  const auto unknown = flags.UnknownKeys(
      {"machine", "topology", "list",   "discover",  "rounds",   "stride",
       "jobs",    "sweep",    "levels", "profile",   "seed",     "duration_ms",
       "threads", "cache",    "journal", "robustness", "torture", "lock",
       "verbose", "adaptive", "lc",     "hc",        "up_ns",    "down_ns",
       "force_switch", "fault", "trace", "trace_capacity", "stats", "H",
       "service", "shards",   "loads",  "quick",     "check",   "combining",
       "deadline", "latency"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "unknown flag(s):");
    for (const auto& key : unknown) {
      std::fprintf(stderr, " --%s", key.c_str());
    }
    std::fprintf(stderr,
                 "\nusage: clof_bench --list | --discover | --sweep | --torture |"
                 " --adaptive | --service | --lock=<name>\n"
                 "       (see the header of tools/clof_bench.cc for every mode's"
                 " flags)\n");
    return 2;
  }
  // --deadline / --latency (docs/TIMEOUT.md) are validated strictly up front: a
  // deadline that silently parsed as 0 would quietly benchmark the deadline-free path,
  // the worst failure mode for a flag whose whole point is the timed path.
  double deadline_ns = 0.0;
  if (const std::string value = flags.GetString("deadline", ""); !value.empty()) {
    char* end = nullptr;
    deadline_ns = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || !std::isfinite(deadline_ns) ||
        deadline_ns <= 0.0) {
      std::fprintf(stderr,
                   "error: --deadline expects a positive virtual-ns budget"
                   " (e.g. --deadline=2000), got --deadline=%s\n",
                   value.c_str());
      return 2;
    }
  }
  int latency_candidates = 0;  // 0 = off, -1 = default top-K
  if (flags.GetBool("latency")) {
    const std::string value = flags.GetString("latency", "true");
    if (value == "true") {
      latency_candidates = -1;
    } else {
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed < 1) {
        std::fprintf(stderr,
                     "error: --latency expects a positive candidate count"
                     " (e.g. --latency=3) or no value, got --latency=%s\n",
                     value.c_str());
        return 2;
      }
      latency_candidates = static_cast<int>(parsed);
    }
    if (!flags.GetBool("sweep")) {
      std::fprintf(stderr, "error: --latency requires --sweep\n");
      return 2;
    }
    if (flags.GetBool("robustness")) {
      std::fprintf(stderr,
                   "error: --latency and --robustness are mutually exclusive; run two"
                   " sweeps (a shared --cache makes the second one cheap)\n");
      return 2;
    }
  }
  if (deadline_ns > 0.0 &&
      (flags.GetBool("list") || flags.GetBool("discover") || flags.GetBool("torture") ||
       flags.GetBool("adaptive"))) {
    std::fprintf(stderr,
                 "error: --deadline applies to --sweep, --service and --lock= runs"
                 " only\n");
    return 2;
  }
  std::string machine_name = flags.GetString("machine", "arm");
  std::string topology_spec = flags.GetString("topology", "");
  sim::Machine machine = machine_name == "x86"            ? sim::Machine::PaperX86()
                         : machine_name == "cxl-pod-1024" ? sim::Machine::CxlPod1024()
                         : machine_name == "dc-4level"    ? sim::Machine::Dc4Level()
                                                          : sim::Machine::PaperArm();
  if (!topology_spec.empty()) {
    machine.topology = topo::Topology::FromSpec(topology_spec);
    // Custom machines reuse the Arm cost model, one latency per level, scaled linearly.
    machine.platform.level_latency_ns.assign(machine.topology.num_levels(), 0.0);
    for (int i = 0; i < machine.topology.num_levels(); ++i) {
      machine.platform.level_latency_ns[i] =
          10.0 + 110.0 * i / std::max(1, machine.topology.num_levels() - 1);
    }
  }
  const Registry& registry = SimRegistry(machine.platform.arch == sim::Arch::kX86);
  double duration = flags.GetDouble("duration_ms", 1.0);
  auto seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  if (flags.GetBool("list")) {
    std::string value = flags.GetString("list", "true");  // --list=3 filters by depth
    int levels = value == "true" ? Registry::kAnyDepth : std::stoi(value);
    for (const auto& name : registry.Names({.levels = levels})) {
      // Registration metadata straight from the registry — no name parsing.
      Registry::LockInfo info = registry.Info(name);
      std::printf("%-22s %7s  %-6s  %s\n", name.c_str(),
                  info.levels == Registry::kAnyDepth
                      ? "any"
                      : std::to_string(info.levels).c_str(),
                  info.fair ? "fair" : "unfair",
                  info.kind == Registry::Kind::kGenerated ? "generated" : "baseline");
    }
    return 0;
  }

  if (flags.GetBool("discover")) {
    discover::HeatmapOptions options;
    options.rounds_per_pair = flags.GetInt("rounds", 60);
    options.cpu_stride = flags.GetInt("stride", 2);
    options.jobs = flags.GetInt("jobs", 0);
    auto heatmap = discover::RunPingPongHeatmap(machine, options);
    std::printf("%s\n", discover::HeatmapToAscii(heatmap).c_str());
    auto inferred = discover::InferTopology(heatmap);
    std::printf("inferred hierarchy: %s\n", inferred.ToSpec().c_str());
    auto speedups = discover::CohortSpeedups(inferred, heatmap);
    for (int l = inferred.num_levels() - 1; l >= 0; --l) {
      if (speedups[l] > 0.0) {
        std::printf("  %-10s %6.2fx over system cohort\n", inferred.level(l).name.c_str(),
                    speedups[l]);
      }
    }
    return 0;
  }

  auto hierarchy = DefaultHierarchy(machine.topology, flags.GetString("levels", ""));

  // --combining enrolls ccsynch and one hsynch per non-system hierarchy level next to
  // the queue-lock compositions. Flag-gated so the default registry description — and
  // with it every historical cache fingerprint — stays untouched.
  const bool combining_enabled = flags.GetBool("combining");
  // The sweep's default enrollment when --combining is on: every generated
  // composition of the hierarchy's depth plus the combining locks.
  auto combining_sweep_names = [&registry](const topo::Hierarchy& h) {
    std::vector<std::string> names =
        registry.Names({.levels = h.depth(), .generated_only = true});
    for (const auto& name : combining::CombiningLockNames(CombiningOptionsFor(h))) {
      names.push_back(name);
    }
    return names;
  };

  if (flags.GetBool("service")) {
    // Service scenario (docs/SERVICE.md): per-site selection, then the offered-load
    // curve. Default to a 2-level hierarchy when --levels was not given — the 3-site
    // sweep is three full scripted benchmarks, and the depth-2 composition space (16
    // locks) already separates the sites' preferences.
    if (flags.GetString("levels", "").empty() && hierarchy.depth() > 2) {
      hierarchy = topo::Hierarchy::Select(
          machine.topology,
          {hierarchy.LevelName(hierarchy.depth() - 3), hierarchy.LevelName(hierarchy.depth() - 1)});
    }
    std::printf("machine %s, hierarchy %s\n", machine.platform.name.c_str(),
                hierarchy.Describe().c_str());
    const bool quick = flags.GetBool("quick");

    if (deadline_ns > 0.0) {
      // Graceful-degradation curve (docs/TIMEOUT.md): the same abortable composition
      // on every site, driven across the offered-load grid twice — without and with
      // the per-request deadline. Below the knee the runs match; above it the
      // deadline-free run's request p999 tracks the growing backlog while the
      // deadline run sheds late requests and keeps its served tail near the budget.
      const Registry timeout_registry = timeout::WithTimeout(registry, {});
      const auto chains = timeout::TimeoutLockNames({});
      const std::string site_lock =
          hierarchy.depth() <= static_cast<int>(chains.size())
              ? chains[hierarchy.depth() - 1]
              : std::string("mcst-flat");

      std::vector<double> loads;
      for (const auto& token : SplitCsv(
               flags.GetString("loads", quick ? "4,12,20" : "1,2,4,8,12,16,20,24"))) {
        loads.push_back(std::stod(token));
      }
      const double service_duration = flags.GetDouble("duration_ms", quick ? 0.25 : 1.0);

      harness::ServiceBenchConfig bench;
      bench.spec.machine = &machine;
      bench.spec.hierarchy = hierarchy;
      bench.spec.registry = &timeout_registry;
      bench.spec.seed = seed;
      bench.service = workload::ServiceProfile::MiniProxy(flags.GetInt("shards", 8));
      bench.num_threads = harness::PaperThreadCounts(machine.topology).back();
      bench.duration_ms = service_duration;
      bench.site_locks.assign(bench.service.sites.size(), site_lock);

      std::printf("\ngraceful degradation under a %.0f ns request deadline: %s on every"
                  " site, %d threads, %.2f virtual ms per point\n",
                  deadline_ns, site_lock.c_str(), bench.num_threads, service_duration);
      std::printf("%-14s%16s%12s%16s%12s%10s\n", "offered(/us)", "p999 nodl(us)",
                  "completed", "p999 dl(us)", "completed", "drops");
      double base_top_p999 = 0.0;
      double bounded_top_p999 = 0.0;
      uint64_t base_top_drops = 0;
      uint64_t bounded_top_drops = 0;
      for (double load : loads) {
        bench.offered_load_per_us = load;
        bench.spec.deadline_ns = 0.0;
        auto base = harness::RunServiceBench(bench);
        bench.spec.deadline_ns = deadline_ns;
        auto bounded = harness::RunServiceBench(bench);
        std::printf("%-14.2f%16.3f%11.1f%%%16.3f%11.1f%%%9.1f%%\n", load,
                    base.request_p999_ns * 1e-3, 100.0 * base.completion_ratio,
                    bounded.request_p999_ns * 1e-3, 100.0 * bounded.completion_ratio,
                    100.0 * bounded.drop_rate);
        base_top_p999 = base.request_p999_ns;
        bounded_top_p999 = bounded.request_p999_ns;
        base_top_drops = base.dropped_requests;
        bounded_top_drops = bounded.dropped_requests;
      }

      if (flags.GetBool("check")) {
        // Self-check (scripts/check_all.sh), evaluated at the grid's top load: the
        // baseline must queue (never drop) with a tail past the deadline, and the
        // deadline run must shed load while keeping its served tail below the
        // baseline's.
        if (base_top_drops != 0) {
          std::fprintf(stderr, "CHECK FAILED: the deadline-free baseline dropped %llu"
                       " request(s)\n",
                       static_cast<unsigned long long>(base_top_drops));
          return 1;
        }
        if (base_top_p999 <= deadline_ns) {
          std::fprintf(stderr,
                       "CHECK FAILED: baseline p999 %.1f ns never crossed the %.0f ns"
                       " deadline — the load grid stayed below the knee\n",
                       base_top_p999, deadline_ns);
          return 1;
        }
        if (bounded_top_drops == 0) {
          std::fprintf(stderr, "CHECK FAILED: the deadline shed nothing above the"
                       " knee\n");
          return 1;
        }
        if (bounded_top_p999 >= base_top_p999) {
          std::fprintf(stderr,
                       "CHECK FAILED: deadline p999 %.1f ns did not improve on the"
                       " baseline's %.1f ns\n",
                       bounded_top_p999, base_top_p999);
          return 1;
        }
        std::printf("deadline check passed: baseline tail %.3f us grows past the"
                    " deadline while the deadline run holds %.3f us and sheds load\n",
                    base_top_p999 * 1e-3, bounded_top_p999 * 1e-3);
      }
      return 0;
    }

    select::SiteSweepConfig config;
    config.service = workload::ServiceProfile::MiniProxy(flags.GetInt("shards", 8));
    config.base.spec.machine = &machine;
    config.base.spec.hierarchy = hierarchy;
    config.base.spec.registry = &registry;
    config.base.spec.seed = seed;
    const std::unique_ptr<Registry> service_registry =
        AugmentedRegistry(registry, hierarchy, combining_enabled, false);
    if (service_registry != nullptr) {
      config.base.spec.registry = service_registry.get();
      config.base.lock_names = combining_sweep_names(hierarchy);
    }
    config.base.duration_ms = flags.GetDouble("duration_ms", 0.5);
    config.base.thread_counts =
        flags.GetString("threads", "").empty() && quick
            ? std::vector<int>{4, 8, 16, 48}
            : ParseThreads(flags.GetString("threads", ""), machine.topology);
    config.base.jobs = flags.GetInt("jobs", 0);
    // The service itself always runs with every simulated CPU but one (the paper's
    // convention), even in --quick — quick only trims the sweep grid and the curve.
    // Probe points are therefore read off the same effective concurrencies in both
    // modes, so quick and full agree on the winners.
    config.service_threads = harness::PaperThreadCounts(machine.topology).back();

    // The demo service saturates its stats bottleneck near 10 req/us; the default
    // load grid brackets that knee, and the in-situ refinement calibrates at the
    // grid's top — the point where the bottleneck site's composition matters most.
    std::vector<double> loads;
    for (const auto& token :
         SplitCsv(flags.GetString("loads", quick ? "4,12,20" : "1,2,4,8,12,16,20,24"))) {
      loads.push_back(std::stod(token));
    }
    const double service_duration = flags.GetDouble("duration_ms", quick ? 0.25 : 1.0);
    config.calibration_load_per_us = *std::max_element(loads.begin(), loads.end());
    config.refine_duration_ms = service_duration;
    std::unique_ptr<exec::ResultCache> cache;
    const std::string cache_dir = flags.GetString("cache", "");
    if (!cache_dir.empty()) {
      cache = std::make_unique<exec::ResultCache>(cache_dir);
      config.base.cache = cache.get();
    }
    std::unique_ptr<exec::SweepJournal> journal;
    const std::string journal_path = flags.GetString("journal", "");
    if (!journal_path.empty()) {
      journal = std::make_unique<exec::SweepJournal>(journal_path);
      config.base.journal = journal.get();
    }

    auto selection = select::RunSiteSelection(config);
    std::printf("\nper-site selection (%zu sites, %zu locks swept each):\n",
                selection.sites.size(),
                selection.sites.empty() ? 0 : selection.sites.front().sweep.curves.size());
    std::printf("%-14s%8s%10s%8s  %-14s%14s  %-14s\n", "site", "share", "instances",
                "probe", "sweep winner", "iter/us@probe", "installed");
    for (const auto& report : selection.sites) {
      std::printf("%-14s%7.0f%%%10d%8d  %-14s%14.3f  %-14s\n", report.site.name.c_str(),
                  100.0 * report.site.share, report.site.instances,
                  report.probe_threads,
                  report.winner.empty() ? "(quarantined)" : report.winner.c_str(),
                  report.winner_score, report.installed.c_str());
      PrintQuarantine(report.sweep);
    }
    std::printf("single global winner: %-18s (share-weighted score %.3f)\n",
                selection.global_winner.empty() ? "(none)"
                                                : selection.global_winner.c_str(),
                selection.global_score);
    if (selection.calibration_global > 0.0) {
      std::printf("in-situ refinement at %.0f req/us offered: global %.3f /us ->"
                  " per-site %.3f /us (%+.1f%%)\n",
                  config.calibration_load_per_us, selection.calibration_global,
                  selection.calibration_per_site,
                  100.0 * (selection.calibration_per_site / selection.calibration_global -
                           1.0));
    }
    PrintCacheAndJournal(cache.get(), nullptr);
    if (selection.global_winner.empty()) {
      std::fprintf(stderr, "error: no composition survived every site's sweep\n");
      return 1;
    }

    // The fig9-style curve: aggregate completed throughput vs offered load, per-site
    // winners against the one-composition-everywhere baseline.
    std::vector<std::string> per_site_locks;
    std::vector<std::string> global_locks;
    for (const auto& report : selection.sites) {
      per_site_locks.push_back(report.installed);
      global_locks.push_back(selection.global_winner);
    }
    const int service_threads = config.service_threads;

    harness::ServiceBenchConfig bench;
    bench.spec = config.base.spec;
    bench.service = config.service;
    bench.num_threads = service_threads;
    bench.duration_ms = service_duration;
    std::printf("\nservice curve: %d threads, %.2f virtual ms per point\n",
                service_threads, service_duration);
    std::printf("%-14s%16s%12s%16s%12s%9s\n", "offered(/us)", "per-site(/us)",
                "completed", "global(/us)", "completed", "gain");
    double per_site_mean = 0.0;
    double global_mean = 0.0;
    for (double load : loads) {
      bench.offered_load_per_us = load;
      bench.site_locks = per_site_locks;
      auto per_site = harness::RunServiceBench(bench);
      bench.site_locks = global_locks;
      auto global = harness::RunServiceBench(bench);
      per_site_mean += per_site.throughput_per_us / loads.size();
      global_mean += global.throughput_per_us / loads.size();
      std::printf("%-14.2f%16.3f%11.1f%%%16.3f%11.1f%%%8.1f%%\n", load,
                  per_site.throughput_per_us, 100.0 * per_site.completion_ratio,
                  global.throughput_per_us, 100.0 * global.completion_ratio,
                  global.throughput_per_us > 0.0
                      ? 100.0 * (per_site.throughput_per_us / global.throughput_per_us - 1.0)
                      : 0.0);
    }
    std::printf("\nmean aggregate throughput: per-site winners %.3f /us, global winner"
                " %.3f /us (%+.1f%%)\n",
                per_site_mean, global_mean,
                global_mean > 0.0 ? 100.0 * (per_site_mean / global_mean - 1.0) : 0.0);

    if (flags.GetBool("check")) {
      // Self-check (scripts/check_all.sh): per-site selection must actually differ
      // between sites and must not lose to the site-blind baseline.
      if (!selection.SitesDiffer()) {
        std::fprintf(stderr, "CHECK FAILED: every site selected the same composition\n");
        return 1;
      }
      if (per_site_mean + 1e-9 < global_mean) {
        std::fprintf(stderr,
                     "CHECK FAILED: per-site winners (%.3f /us) lost to the global"
                     " winner (%.3f /us)\n",
                     per_site_mean, global_mean);
        return 1;
      }
      std::printf("service check passed: winners differ across sites and per-site"
                  " selection holds its ground\n");
    }
    return 0;
  }
  std::printf("machine %s, hierarchy %s\n", machine.platform.name.c_str(),
              hierarchy.Describe().c_str());

  if (flags.GetBool("torture")) {
    // Torture mode (docs/TORTURE.md): correctness oracles instead of throughput. With
    // --lock= the named genuine lock runs the matrix (clean = exit 0); without it the
    // eight mutants run and every one must be flagged (oracle validation).
    torture::TortureConfig config;
    config.machine = &machine;
    config.hierarchy = hierarchy;
    config.num_threads = flags.GetInt("threads", 6);
    config.duration_ms = flags.GetDouble("duration_ms", 0.1);
    config.seed = seed;
    config.jobs = flags.GetInt("jobs", 0);
    const std::string lock_name = flags.GetString("lock", "");
    if (lock_name.empty()) {
      config.registry = &torture::MutantRegistry();
      config.lock_names = torture::MutantNames();
    } else {
      config.registry = &registry;
      config.lock_names = SplitCsv(lock_name);
    }
    auto report = torture::RunTorture(config);
    std::printf("%s", torture::FormatTortureReport(report, flags.GetBool("verbose")).c_str());
    if (lock_name.empty()) {
      for (const auto& name : config.lock_names) {
        if (!report.Flagged(name)) {
          std::printf("ORACLE GAP: mutant %s was not flagged\n", name.c_str());
          return 1;
        }
      }
      return 0;
    }
    return report.AllClean() ? 0 : 1;
  }

  if (flags.GetBool("sweep")) {
    select::SweepConfig config;
    config.spec.machine = &machine;
    config.spec.hierarchy = hierarchy;
    config.spec.registry = &registry;
    config.spec.profile = ProfileByName(flags.GetString("profile", "leveldb"));
    config.spec.seed = seed;
    // --deadline / --latency enroll the abortable MCS-T compositions: their chains are
    // Kind::kGenerated at exact depth, so the default (empty) lock list picks them up
    // from the augmented registry automatically.
    const bool timeout_enrolled = deadline_ns > 0.0 || latency_candidates != 0;
    const std::unique_ptr<Registry> sweep_registry =
        AugmentedRegistry(registry, hierarchy, combining_enabled, timeout_enrolled);
    if (sweep_registry != nullptr) {
      config.spec.registry = sweep_registry.get();
      if (combining_enabled) {
        config.lock_names = combining_sweep_names(hierarchy);
        if (timeout_enrolled) {
          const auto chains = timeout::TimeoutLockNames({});
          if (hierarchy.depth() <= static_cast<int>(chains.size())) {
            config.lock_names.push_back(chains[hierarchy.depth() - 1]);
          }
        }
      }
    }
    config.spec.deadline_ns = deadline_ns;
    config.duration_ms = duration;
    config.thread_counts = ParseThreads(flags.GetString("threads", ""), machine.topology);
    config.jobs = flags.GetInt("jobs", 0);
    std::unique_ptr<exec::ResultCache> cache;
    const std::string cache_dir = flags.GetString("cache", "");
    if (!cache_dir.empty()) {
      cache = std::make_unique<exec::ResultCache>(cache_dir);
      config.cache = cache.get();
    }
    std::unique_ptr<exec::SweepJournal> journal;
    const std::string journal_path = flags.GetString("journal", "");
    if (!journal_path.empty()) {
      journal = std::make_unique<exec::SweepJournal>(journal_path);
      config.journal = journal.get();
      if (journal->loaded() > 0) {
        std::printf("journal %s: resuming past %zu completed cell(s)\n",
                    journal_path.c_str(), journal->loaded());
      }
    }
    if (flags.GetBool("robustness") || latency_candidates != 0) {
      // The two flags are mutually exclusive (validated above); each picks an objective.
      const bool latency = latency_candidates != 0;
      select::PerturbationConfig perturbation;
      perturbation.sweep = config;
      perturbation.objective =
          latency ? select::Objective::kWorstP999 : select::Objective::kRetainedThroughput;
      if (latency) {
        if (latency_candidates > 0) {
          perturbation.candidates = latency_candidates;  // --latency=K: top-K candidates
        }
      } else if (const std::string value = flags.GetString("robustness", "true");
                 value != "true") {
        perturbation.candidates = std::stoi(value);  // --robustness=K: top-K candidates
      }
      auto result = select::RunPerturbationRanking(perturbation);
      std::printf(latency ? "swept %zu locks; measured top %zu under %zu scenario(s)\n"
                          : "swept %zu locks; perturbed top %zu under %zu scenarios\n",
                  result.sweep.curves.size(), result.locks.size(),
                  result.scenarios.size());
      std::printf("HC-best %-18s (score %.3f)   LC-best %-18s (score %.3f)\n",
                  result.sweep.selection.hc_best.c_str(),
                  result.sweep.selection.hc_best_score,
                  result.sweep.selection.lc_best.c_str(),
                  result.sweep.selection.lc_best_score);
      PrintCacheAndJournal(cache.get(), journal.get());
      PrintQuarantine(result.sweep);
      if (latency) {
        PrintLatencyRanking(result);
      } else {
        PrintRobustness(result);
      }
      return 0;
    }
    auto result = select::RunScriptedBenchmark(config);
    const size_t cells = result.curves.size() * result.thread_counts.size();
    std::printf("swept %zu locks (%zu cells, %d workers)\n", result.curves.size(), cells,
                exec::ResolveJobs(config.jobs));
    PrintCacheAndJournal(cache.get(), journal.get());
    PrintQuarantine(result);
    // Report *why* a composition ranked where it did, not just its throughput: the
    // paper's §5 analysis ties HC-best wins to handover locality and low line traffic.
    auto explain = [&](const char* tag, const std::string& name, double score) {
      if (name.empty()) {
        // No selection at all: every swept lock was quarantined. The quarantine
        // report above says why; a lookup on the empty name would just throw.
        std::printf("%s (none: every swept lock was quarantined)\n", tag);
        return;
      }
      Registry::LockInfo info = config.spec.registry->Info(name);
      std::printf("%s %-18s (score %.3f, %s)", tag, name.c_str(), score,
                  info.fair ? "fair" : "unfair");
      const select::LockCurve* curve = result.Curve(name);
      if (curve != nullptr && !curve->local_handover_rate.empty()) {
        std::printf("  local handover %5.1f%%, %.2f transfers/op at %d threads",
                    100.0 * curve->local_handover_rate.back(),
                    curve->transfers_per_op.back(), result.thread_counts.back());
      }
      std::printf("\n");
    };
    explain("HC-best", result.selection.hc_best, result.selection.hc_best_score);
    explain("LC-best", result.selection.lc_best, result.selection.lc_best_score);
    explain("worst  ", result.selection.worst, result.selection.worst_score);
    return 0;
  }

  if (flags.GetBool("adaptive")) {
    // Adaptive mode (docs/ADAPTIVE.md): ramp the LC lock, the HC lock, and the
    // adaptive facade across the thread counts. The facade should track whichever
    // inner lock wins at each point — "vs-best" is its throughput against the better
    // of the two, and "switches" counts its recorded side transitions.
    auto threads = ParseThreads(flags.GetString("threads", ""), machine.topology);
    adaptive::AdaptiveOptions options;
    const std::string lc = flags.GetString("lc", "");
    const std::string hc = flags.GetString("hc", "");
    if (!lc.empty() && !hc.empty()) {
      options.lc_lock = lc;
      options.hc_lock = hc;
    } else {
      // No explicit pair: derive it the workflow's way — run the ordinary sweep and
      // let the policy turn its LC/HC selection into detector thresholds.
      select::SweepConfig sweep;
      sweep.spec.machine = &machine;
      sweep.spec.hierarchy = hierarchy;
      sweep.spec.registry = &registry;
      sweep.spec.profile = ProfileByName(flags.GetString("profile", "leveldb"));
      sweep.spec.seed = seed;
      sweep.duration_ms = duration;
      sweep.thread_counts = threads;
      sweep.jobs = flags.GetInt("jobs", 0);
      auto swept = select::RunScriptedBenchmark(sweep);
      PrintQuarantine(swept);
      options = select::PlanAdaptive(swept);  // throws with a clear message if empty
      std::printf("planned from sweep: lc %s, hc %s, up %.0f ns, down %.0f ns\n",
                  options.lc_lock.c_str(), options.hc_lock.c_str(),
                  options.up_latency_ns, options.down_latency_ns);
    }
    if (double v = flags.GetDouble("up_ns", 0.0); v > 0.0) {
      options.up_latency_ns = v;
    }
    if (double v = flags.GetDouble("down_ns", 0.0); v > 0.0) {
      options.down_latency_ns = v;
    }
    options.force_switch_period = static_cast<uint64_t>(flags.GetInt("force_switch", 0));

    fault::FaultPlan fault_plan;
    const std::string fault_spec = flags.GetString("fault", "");
    if (!fault_spec.empty()) {
      fault_plan = fault::PlanFromSpec(fault_spec, seed);
      std::printf("fault plan: %s (seed %llu)\n", fault_spec.c_str(),
                  static_cast<unsigned long long>(fault_plan.seed));
    }

    const Registry with_adaptive = adaptive::WithAdaptive(registry, options);
    const std::string trace_path = flags.GetString("trace", "");
    trace::TraceBuffer trace_buffer(
        static_cast<size_t>(flags.GetInt("trace_capacity", 1 << 20)));
    harness::BenchResult last;

    std::printf("adaptive facade: %s\n", adaptive::DescribeOptions(options).c_str());
    std::printf("%-10s%16s%16s%14s%10s%10s\n", "threads", options.lc_lock.c_str(),
                options.hc_lock.c_str(), "adaptive", "vs-best", "switches");
    for (int t : threads) {
      const std::string names[3] = {options.lc_lock, options.hc_lock, "adaptive"};
      double tput[3] = {0.0, 0.0, 0.0};
      for (int i = 0; i < 3; ++i) {
        harness::BenchConfig config;
        config.spec.machine = &machine;
        config.spec.hierarchy = hierarchy;
        config.spec.registry = &with_adaptive;
        config.spec.profile = ProfileByName(flags.GetString("profile", "leveldb"));
        config.spec.seed = seed;
        config.spec.fault = fault_plan;
        config.lock_name = names[i];
        config.num_threads = t;
        config.duration_ms = duration;
        if (i == 2 && !trace_path.empty() && t == threads.back()) {
          config.trace_sink = &trace_buffer;  // trace the most contended adaptive run
        }
        auto result = harness::RunLockBench(config);
        tput[i] = result.throughput_per_us;
        if (i == 2) {
          last = std::move(result);
        }
      }
      const double best = std::max(tput[0], tput[1]);
      std::printf("%-10d%16.3f%16.3f%14.3f%9.1f%%%10zu\n", t, tput[0], tput[1], tput[2],
                  best > 0.0 ? 100.0 * tput[2] / best : 0.0, last.lock_markers.size());
    }
    if (!trace_path.empty()) {
      trace::WriteChromeTraceFile(trace_path, trace_buffer, machine.topology,
                                  last.lock_markers);
      std::printf("\nwrote %llu events + %zu switch marker(s) to %s (open in Perfetto)\n",
                  static_cast<unsigned long long>(trace_buffer.recorded() -
                                                  trace_buffer.dropped()),
                  last.lock_markers.size(), trace_path.c_str());
    }
    return 0;
  }

  std::string lock_name = flags.GetString("lock", "");
  if (lock_name.empty()) {
    std::fprintf(stderr,
                 "usage: clof_bench --list | --discover | --sweep [--jobs=N]"
                 " [--cache=DIR] [--journal=FILE] [--robustness[=K]] |"
                 " --torture [--lock=<name>] |"
                 " --adaptive [--lc=<name> --hc=<name>] | --lock=<name> [--fault=SPEC]\n"
                 "       --adaptive  ramp the LC lock, the HC lock, and the adaptive"
                 " facade (docs/ADAPTIVE.md)\n"
                 "       --jobs=N   executor worker threads (0 = all host CPUs)\n"
                 "       --cache=DIR  content-addressed sweep result cache\n"
                 "       --journal=FILE  crash-safe sweep journal (resume a killed"
                 " sweep)\n"
                 "       --torture  correctness oracles under the fault matrix"
                 " (docs/TORTURE.md)\n"
                 "       --robustness[=K]  re-rank the top-K sweep winners under the\n"
                 "                         deterministic fault matrix\n"
                 "       --latency[=K]  rank the top-K sweep winners by p999 under churn\n"
                 "                      (requires --sweep; docs/TIMEOUT.md)\n"
                 "       --deadline=NS  per-request deadline: drop accounting in"
                 " lock/sweep\n"
                 "                      runs, degradation curve under --service\n"
                 "       --fault=SPEC  perturb a single-lock run; SPEC is a csv of\n"
                 "                     preempt,hetero,interference,churn or all|storm|none\n"
                 "       (see the header of tools/clof_bench.cc, docs/PARALLEL_SWEEP.md"
                 " and docs/FAULT_INJECTION.md)\n");
    return 2;
  }
  ClofParams params;
  params.keep_local_threshold = static_cast<uint32_t>(flags.GetInt("H", 128));
  // --deadline makes the abortable compositions nameable.
  const std::unique_ptr<Registry> single_registry =
      AugmentedRegistry(registry, hierarchy, combining_enabled, deadline_ns > 0.0);
  const Registry* active_registry =
      single_registry != nullptr ? single_registry.get() : &registry;
  auto threads = ParseThreads(flags.GetString("threads", ""), machine.topology);
  const std::string trace_path = flags.GetString("trace", "");
  const bool want_stats = flags.GetBool("stats");
  fault::FaultPlan fault_plan;
  const std::string fault_spec = flags.GetString("fault", "");
  if (!fault_spec.empty()) {
    fault_plan = fault::PlanFromSpec(fault_spec, seed);
    std::printf("fault plan: %s (seed %llu)\n", fault_spec.c_str(),
                static_cast<unsigned long long>(fault_plan.seed));
  }
  trace::TraceBuffer trace_buffer(
      static_cast<size_t>(flags.GetInt("trace_capacity", 1 << 20)));
  harness::BenchResult last;
  if (want_stats) {
    std::printf("%-10s%12s%10s%12s%12s%12s", "threads", "iter/us", "jain", "p50(ns)",
                "p99(ns)", "p99.9(ns)");
  } else {
    std::printf("%-10s%12s%10s", "threads", "iter/us", "jain");
  }
  if (deadline_ns > 0.0) {
    std::printf("%10s", "drop");  // served/dropped accounting for the timed path
  }
  std::printf("\n");
  for (int t : threads) {
    harness::BenchConfig config;
    config.spec.machine = &machine;
    config.spec.hierarchy = hierarchy;
    config.spec.registry = active_registry;
    config.spec.profile = ProfileByName(flags.GetString("profile", "leveldb"));
    config.spec.seed = seed;
    config.spec.params = params;
    config.spec.fault = fault_plan;
    config.spec.deadline_ns = deadline_ns;
    config.lock_name = lock_name;
    config.num_threads = t;
    config.duration_ms = duration;
    if (!trace_path.empty() && t == threads.back()) {
      config.trace_sink = &trace_buffer;  // trace the most contended sweep point
    }
    auto result = harness::RunLockBench(config);
    if (want_stats) {
      std::printf("%-10d%12.3f%10.3f%12.1f%12.1f%12.1f", t, result.throughput_per_us,
                  result.fairness_index, result.acquire_p50_ns, result.acquire_p99_ns,
                  result.acquire_p999_ns);
    } else {
      std::printf("%-10d%12.3f%10.3f", t, result.throughput_per_us,
                  result.fairness_index);
    }
    if (deadline_ns > 0.0) {
      std::printf("%9.1f%%", 100.0 * result.DropRate());
    }
    std::printf("\n");
    last = std::move(result);
  }
  if (!trace_path.empty()) {
    trace::WriteChromeTraceFile(trace_path, trace_buffer, machine.topology);
    std::printf("\nwrote %llu events to %s (%llu dropped; open in Perfetto)\n",
                static_cast<unsigned long long>(trace_buffer.recorded() -
                                                trace_buffer.dropped()),
                trace_path.c_str(), static_cast<unsigned long long>(trace_buffer.dropped()));
  }
  if (want_stats) {
    PrintObservability(last, machine, hierarchy);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(bench::Flags(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

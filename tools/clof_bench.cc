// clof_bench — the command-line tool for the CLoF workflow: discover the machine's
// hierarchy (§3.1), list and sweep the generated compositions and select from them
// (§4.3), and run single locks, the adaptive facade and the multi-lock service.
//
// kUsage below is the flag reference, printed on every usage error. Each mode is one
// function over a Context built once, and the mode table names the flags each one
// reads: a flag the selected mode does not read is a usage error. The workflows are
// documented in docs/OBSERVABILITY.md (--stats, --trace), docs/PARALLEL_SWEEP.md
// (--jobs, --cache, --journal), docs/FAULT_INJECTION.md (--fault, --robustness),
// docs/TIMEOUT.md (--deadline, --latency), docs/COMBINING.md, docs/ADAPTIVE.md and
// docs/SERVICE.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/clof/adaptive.h"
#include "src/clof/timeout.h"
#include "src/combining/combining.h"
#include "src/discover/heatmap.h"
#include "src/exec/executor.h"
#include "src/exec/result_cache.h"
#include "src/exec/sweep_journal.h"
#include "src/fault/scenarios.h"
#include "src/harness/lock_bench.h"
#include "src/harness/service_bench.h"
#include "src/select/adaptive_policy.h"
#include "src/select/scripted_bench.h"
#include "src/select/site_selection.h"
#include "src/sim/engine.h"
#include "src/trace/chrome_export.h"
#include "src/trace/trace.h"

namespace {

using namespace clof;

constexpr const char* kUsage = R"(usage: clof_bench <mode> [flags]   (exactly one mode)
  --list[=DEPTH]     registered locks and their metadata, optionally of one depth
  --discover         ping-pong heatmap and the inferred hierarchy (§3.1)
      [--rounds=60] [--stride=2] [--jobs=N]
  --sweep            scripted benchmark and selection (§4.3)
      [--threads=CSV] [--profile=leveldb|kyoto|raw] [--jobs=N (0 = all host CPUs)]
      [--cache=DIR]       result cache: unchanged cells are served from disk
      [--journal=FILE]    crash-safe journal: a killed sweep resumes where it stopped
      [--robustness[=K]]  re-rank the top-K winners under the fault matrix
      [--latency[=K]]     re-rank the top-K winners by worst acquire p999 under churn
      [--deadline=NS]     bound every acquire; timed-out attempts count as drops
                          (--latency and --deadline enroll the abortable mcst locks)
      [--combining]       enroll ccsynch and one hsynch per non-system level
  --service          per-site selection for the MiniProxy sites, then throughput vs
                     offered load against the one global winner
      [--shards=8] [--loads=CSV] [--quick] [--check] [--threads=CSV] [--jobs=N]
      [--cache=DIR] [--journal=FILE] [--combining]
  --service --deadline=NS  graceful degradation: the abortable mcst composition on
                     every site, request p999 and drops per load with and without
                     the deadline
      [--shards=8] [--loads=CSV] [--quick] [--check]
  --adaptive         ramp the LC lock, the HC lock and the adaptive facade; without
                     --lc/--hc a sweep plans the pair
      [--lc=NAME --hc=NAME] [--threads=CSV] [--profile=...] [--jobs=N] [--up_ns=N]
      [--down_ns=N] [--force_switch=N] [--fault=SPEC] [--trace=FILE] [--trace_capacity=N]
  --lock=NAME        one lock across the thread counts
      [--threads=CSV] [--profile=...] [--H=128] [--stats[=per-level]] [--deadline=NS]
      [--fault=SPEC]      csv of preempt,hetero,interference,churn, or all|storm|none
      [--trace=FILE]      Chrome trace of the most contended point [--trace_capacity=N]
      [--combining]
Every mode reads --machine=x86|arm|cxl-pod-1024|dc-4level (default arm); all but --list
read --topology=SPEC (topo::Topology::FromSpec); all but --list and --discover read
--levels=a,b,c, --seed=42 and --duration_ms=D.
)";

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

// What every mode starts from, built once after the flags are validated.
struct Context {
  explicit Context(const bench::Flags& f)
      : flags(f),
        machine(bench::ParseMachine(f)),
        registry(SimRegistry(machine.platform.arch == sim::Arch::kX86)),
        hierarchy(bench::ParseHierarchy(f, machine.topology)),
        seed(static_cast<uint64_t>(f.GetInt("seed", 42))),
        duration_ms(f.Has("duration_ms") ? f.GetPositive("duration_ms", 0.0)
                                         : std::optional<double>()) {}
  Context(const Context&) = delete;

  // --duration_ms when given; each mode keeps its own default.
  double Duration(double fallback) const { return duration_ms.value_or(fallback); }

  // The run spec every mode starts from: machine, hierarchy, registry and seed.
  RunSpec Spec() const {
    RunSpec spec;
    spec.machine = &machine;
    spec.hierarchy = hierarchy;
    spec.registry = &registry;
    spec.seed = seed;
    return spec;
  }

  const bench::Flags& flags;
  const sim::Machine machine;
  const Registry& registry;
  const topo::Hierarchy hierarchy;  // over machine.topology
  const uint64_t seed;
  const std::optional<double> duration_ms;
};

void PrintMachine(const sim::Machine& machine, const topo::Hierarchy& hierarchy) {
  std::printf("machine %s, hierarchy %s\n", machine.platform.name.c_str(),
              hierarchy.Describe().c_str());
}

// --threads, else the paper's thread counts for the machine.
std::vector<int> ParseThreads(const Context& context) {
  const std::vector<int> threads = context.flags.GetList<int>("threads");
  return threads.empty() ? harness::PaperThreadCounts(context.machine.topology) : threads;
}

workload::Profile ParseProfile(const bench::Flags& flags) {
  const std::string name = flags.GetString("profile", "leveldb");
  if (name != "leveldb" && name != "kyoto" && name != "raw") {
    flags.Fail("--profile expects leveldb, kyoto or raw, got --profile=" + name);
  }
  return name == "kyoto" ? workload::Profile::KyotoMix()
         : name == "raw" ? workload::Profile::RawHandover()
                         : workload::Profile::LevelDbReadRandom();
}

// --fault=SPEC (src/fault/scenarios.h); the disabled plan when absent.
fault::FaultPlan ParseFault(const Context& context) {
  if (context.flags.GetString("fault", "").empty()) {
    return {};
  }
  return context.flags.ParseWith(
      "fault", [&](const std::string& spec) { return fault::PlanFromSpec(spec, context.seed); });
}

void PrintFault(const Context& context, const fault::FaultPlan& plan) {
  if (const std::string spec = context.flags.GetString("fault", ""); !spec.empty()) {
    std::printf("fault plan: %s (seed %llu)\n", spec.c_str(),
                static_cast<unsigned long long>(plan.seed));
  }
}

// The sweep's default enrollment under --combining: every generated composition of the
// hierarchy's depth plus the combining locks.
std::vector<std::string> CombiningSweepNames(const Registry& registry,
                                             const topo::Hierarchy& hierarchy) {
  std::vector<std::string> names =
      registry.Names({.levels = hierarchy.depth(), .generated_only = true});
  for (const auto& name : combining::CombiningLockNames(CombiningOptionsFor(hierarchy))) {
    names.push_back(name);
  }
  return names;
}

// --cache and --journal, opened for a sweep and attached to its config.
struct Stores {
  std::unique_ptr<exec::ResultCache> cache;
  std::unique_ptr<exec::SweepJournal> journal;
};

Stores OpenStores(const bench::Flags& flags, select::SweepConfig& config) {
  Stores stores;
  if (const std::string dir = flags.GetString("cache", ""); !dir.empty()) {
    stores.cache = std::make_unique<exec::ResultCache>(dir);
    config.cache = stores.cache.get();
  }
  if (const std::string path = flags.GetString("journal", ""); !path.empty()) {
    stores.journal = std::make_unique<exec::SweepJournal>(path);
    config.journal = stores.journal.get();
  }
  return stores;
}

int ListMode(const Context& context) {
  const int depth = context.flags.GetCount("list");  // --list=3 filters by depth
  const Registry& registry = context.registry;
  for (const auto& name : registry.Names({.levels = depth > 0 ? depth : Registry::kAnyDepth})) {
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

int DiscoverMode(const Context& context) {
  discover::HeatmapOptions options;
  options.rounds_per_pair = context.flags.GetInt("rounds", 60);
  options.cpu_stride = context.flags.GetInt("stride", 2);
  options.jobs = context.flags.GetInt("jobs", 0);
  auto heatmap = discover::RunPingPongHeatmap(context.machine, options);
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

// --sweep --robustness / --latency: the sweep's top candidates re-ranked by one
// perturbation objective. `candidates` is the flag's count (-1 = the default top-K).
int PerturbationSweep(const select::SweepConfig& config, const Stores& stores, bool latency,
                      int candidates) {
  select::PerturbationConfig perturbation;
  perturbation.sweep = config;
  perturbation.objective =
      latency ? select::Objective::kWorstP999 : select::Objective::kRetainedThroughput;
  if (candidates > 0) {
    perturbation.candidates = candidates;
  }
  auto result = select::RunPerturbationRanking(perturbation);
  std::printf(latency ? "swept %zu locks; measured top %zu under %zu scenario(s)\n"
                      : "swept %zu locks; perturbed top %zu under %zu scenarios\n",
              result.sweep.curves.size(), result.locks.size(), result.scenarios.size());
  std::printf("HC-best %-18s (score %.3f)   LC-best %-18s (score %.3f)\n",
              result.sweep.selection.hc_best.c_str(), result.sweep.selection.hc_best_score,
              result.sweep.selection.lc_best.c_str(), result.sweep.selection.lc_best_score);
  PrintCacheAndJournal(stores.cache.get(), stores.journal.get());
  PrintQuarantine(result.sweep);
  if (!result.note.empty()) {
    std::printf("\nnote: %s\n", result.note.c_str());
  }
  if (result.locks.empty()) {
    return 0;  // the baseline quarantined everything; the note + quarantine report say why
  }
  if (latency) {
    PrintLatencyRanking(result);
  } else {
    PrintRobustness(result);
  }
  return 0;
}

int SweepMode(const Context& context) {
  const bench::Flags& flags = context.flags;
  const int robustness = flags.GetCount("robustness");
  const int latency = flags.GetCount("latency");
  if (robustness != 0 && latency != 0) {
    flags.Fail("--latency and --robustness are mutually exclusive; run two sweeps (a shared"
               " --cache makes the second one cheap)");
  }
  const double deadline_ns = flags.GetPositive("deadline", 0.0);
  const bool combining_enabled = flags.GetBool("combining");
  select::SweepConfig config;
  config.spec = context.Spec();
  config.spec.profile = ParseProfile(flags);
  config.spec.deadline_ns = deadline_ns;
  config.duration_ms = context.Duration(1.0);
  config.thread_counts = ParseThreads(context);
  config.jobs = flags.GetInt("jobs", 0);
  PrintMachine(context.machine, context.hierarchy);

  // --deadline / --latency enroll the abortable MCS-T compositions: their chains are
  // Kind::kGenerated at exact depth, so the default (empty) lock list picks them up
  // from the augmented registry automatically.
  const bool timeout_enrolled = deadline_ns > 0.0 || latency != 0;
  const std::unique_ptr<Registry> sweep_registry = AugmentedRegistry(
      context.registry, context.hierarchy, combining_enabled, timeout_enrolled);
  if (sweep_registry != nullptr) {
    config.spec.registry = sweep_registry.get();
    if (combining_enabled) {
      config.lock_names = CombiningSweepNames(context.registry, context.hierarchy);
      const auto chains = timeout::TimeoutLockNames({});
      if (timeout_enrolled && context.hierarchy.depth() <= static_cast<int>(chains.size())) {
        config.lock_names.push_back(chains[context.hierarchy.depth() - 1]);
      }
    }
  }
  const Stores stores = OpenStores(flags, config);
  if (stores.journal != nullptr && stores.journal->loaded() > 0) {
    std::printf("journal %s: resuming past %zu completed cell(s)\n",
                stores.journal->path().c_str(), stores.journal->loaded());
  }
  if (robustness != 0 || latency != 0) {
    return PerturbationSweep(config, stores, latency != 0, latency != 0 ? latency : robustness);
  }
  auto result = select::RunScriptedBenchmark(config);
  const size_t cells = result.curves.size() * result.thread_counts.size();
  std::printf("swept %zu locks (%zu cells, %d workers)\n", result.curves.size(), cells,
              exec::ResolveJobs(config.jobs));
  PrintCacheAndJournal(stores.cache.get(), stores.journal.get());
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

// What both service modes (docs/SERVICE.md, docs/TIMEOUT.md) read.
struct ServiceSetup {
  topo::Hierarchy hierarchy;
  bool quick;
  std::vector<double> loads;  // the offered-load grid, requests per virtual us
  double curve_duration_ms;   // virtual ms per curve point
  workload::ServiceProfile service;
};

ServiceSetup ParseService(const Context& context) {
  const bench::Flags& flags = context.flags;
  // Default to a 2-level hierarchy when --levels was not given — the 3-site sweep is
  // three full scripted benchmarks, and the depth-2 composition space (16 locks)
  // already separates the sites' preferences.
  topo::Hierarchy hierarchy = context.hierarchy;
  if (!flags.Has("levels") && hierarchy.depth() > 2) {
    hierarchy = topo::Hierarchy::Select(
        context.machine.topology,
        {hierarchy.LevelName(hierarchy.depth() - 3), hierarchy.LevelName(hierarchy.depth() - 1)});
  }
  const bool quick = flags.GetBool("quick");
  // The demo service saturates its stats bottleneck near 10 req/us; the default load
  // grid brackets that knee.
  return {hierarchy, quick,
          flags.GetList<double>("loads", quick ? "4,12,20" : "1,2,4,8,12,16,20,24"),
          context.Duration(quick ? 0.25 : 1.0),
          workload::ServiceProfile::MiniProxy(flags.GetInt("shards", 8))};
}

// --service --deadline: the graceful-degradation curve (docs/TIMEOUT.md). The same
// abortable composition on every site, driven across the offered-load grid twice —
// without and with the per-request deadline. Below the knee the runs match; above it
// the deadline-free run's request p999 tracks the growing backlog while the deadline
// run sheds late requests and keeps its served tail near the budget.
int DegradationMode(const Context& context) {
  const double deadline_ns = context.flags.GetPositive("deadline", 0.0);
  const ServiceSetup setup = ParseService(context);
  PrintMachine(context.machine, setup.hierarchy);
  const Registry timeout_registry = timeout::WithTimeout(context.registry, {});
  const auto chains = timeout::TimeoutLockNames({});
  const std::string site_lock = setup.hierarchy.depth() <= static_cast<int>(chains.size())
                                    ? chains[setup.hierarchy.depth() - 1]
                                    : std::string("mcst-flat");

  harness::ServiceBenchConfig bench;
  bench.spec = context.Spec();
  bench.spec.hierarchy = setup.hierarchy;
  bench.spec.registry = &timeout_registry;
  bench.service = setup.service;
  bench.num_threads = harness::PaperThreadCounts(context.machine.topology).back();
  bench.duration_ms = setup.curve_duration_ms;
  bench.site_locks.assign(bench.service.sites.size(), site_lock);

  std::printf("\ngraceful degradation under a %.0f ns request deadline: %s on every"
              " site, %d threads, %.2f virtual ms per point\n",
              deadline_ns, site_lock.c_str(), bench.num_threads, setup.curve_duration_ms);
  std::printf("%-14s%16s%12s%16s%12s%10s\n", "offered(/us)", "p999 nodl(us)",
              "completed", "p999 dl(us)", "completed", "drops");
  harness::ServiceBenchResult base;
  harness::ServiceBenchResult bounded;
  for (double load : setup.loads) {
    bench.offered_load_per_us = load;
    bench.spec.deadline_ns = 0.0;
    base = harness::RunServiceBench(bench);
    bench.spec.deadline_ns = deadline_ns;
    bounded = harness::RunServiceBench(bench);
    std::printf("%-14.2f%16.3f%11.1f%%%16.3f%11.1f%%%9.1f%%\n", load,
                base.request_p999_ns * 1e-3, 100.0 * base.completion_ratio,
                bounded.request_p999_ns * 1e-3, 100.0 * bounded.completion_ratio,
                100.0 * bounded.drop_rate);
  }

  if (context.flags.GetBool("check")) {
    // Self-check (scripts/check_all.sh), evaluated at the grid's top load: the
    // baseline must queue (never drop) with a tail past the deadline, and the
    // deadline run must shed load while keeping its served tail below the
    // baseline's.
    if (base.dropped_requests != 0) {
      std::fprintf(stderr, "CHECK FAILED: the deadline-free baseline dropped %llu"
                   " request(s)\n",
                   static_cast<unsigned long long>(base.dropped_requests));
      return 1;
    }
    if (base.request_p999_ns <= deadline_ns) {
      std::fprintf(stderr,
                   "CHECK FAILED: baseline p999 %.1f ns never crossed the %.0f ns"
                   " deadline — the load grid stayed below the knee\n",
                   base.request_p999_ns, deadline_ns);
      return 1;
    }
    if (bounded.dropped_requests == 0) {
      std::fprintf(stderr, "CHECK FAILED: the deadline shed nothing above the"
                   " knee\n");
      return 1;
    }
    if (bounded.request_p999_ns >= base.request_p999_ns) {
      std::fprintf(stderr,
                   "CHECK FAILED: deadline p999 %.1f ns did not improve on the"
                   " baseline's %.1f ns\n",
                   bounded.request_p999_ns, base.request_p999_ns);
      return 1;
    }
    std::printf("deadline check passed: baseline tail %.3f us grows past the"
                " deadline while the deadline run holds %.3f us and sheds load\n",
                base.request_p999_ns * 1e-3, bounded.request_p999_ns * 1e-3);
  }
  return 0;
}

void PrintSiteSelection(const select::SiteSelectionResult& selection,
                        double calibration_load_per_us) {
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
                calibration_load_per_us, selection.calibration_global,
                selection.calibration_per_site,
                100.0 * (selection.calibration_per_site / selection.calibration_global -
                         1.0));
  }
}

// --service: per-site scripted selection for the MiniProxy sites, then the
// aggregate-throughput-vs-offered-load curve of the per-site winners against the one
// global winner.
int ServiceMode(const Context& context) {
  const bench::Flags& flags = context.flags;
  const ServiceSetup setup = ParseService(context);
  select::SiteSweepConfig config;
  config.service = setup.service;
  config.base.spec = context.Spec();
  config.base.spec.hierarchy = setup.hierarchy;
  config.base.duration_ms = context.Duration(0.5);
  config.base.thread_counts = flags.Has("threads") || !setup.quick
                                  ? ParseThreads(context)
                                  : std::vector<int>{4, 8, 16, 48};
  config.base.jobs = flags.GetInt("jobs", 0);
  // The service itself always runs with every simulated CPU but one (the paper's
  // convention), even in --quick — quick only trims the sweep grid and the curve.
  // Probe points are therefore read off the same effective concurrencies in both
  // modes, so quick and full agree on the winners.
  config.service_threads = harness::PaperThreadCounts(context.machine.topology).back();
  // The in-situ refinement calibrates at the grid's top — the point where the
  // bottleneck site's composition matters most.
  config.calibration_load_per_us = *std::max_element(setup.loads.begin(), setup.loads.end());
  config.refine_duration_ms = setup.curve_duration_ms;
  PrintMachine(context.machine, setup.hierarchy);
  const std::unique_ptr<Registry> service_registry =
      AugmentedRegistry(context.registry, setup.hierarchy, flags.GetBool("combining"), false);
  if (service_registry != nullptr) {
    config.base.spec.registry = service_registry.get();
    config.base.lock_names = CombiningSweepNames(context.registry, setup.hierarchy);
  }
  const Stores stores = OpenStores(flags, config.base);

  auto selection = select::RunSiteSelection(config);
  PrintSiteSelection(selection, config.calibration_load_per_us);
  PrintCacheAndJournal(stores.cache.get(), nullptr);
  if (selection.global_winner.empty()) {
    std::fprintf(stderr, "error: no composition survived every site's sweep\n");
    return 1;
  }

  // The fig9-style curve: aggregate completed throughput vs offered load, per-site
  // winners against the one-composition-everywhere baseline.
  std::vector<std::string> per_site_locks;
  for (const auto& report : selection.sites) {
    per_site_locks.push_back(report.installed);
  }
  const std::vector<std::string> global_locks(per_site_locks.size(), selection.global_winner);
  harness::ServiceBenchConfig bench;
  bench.spec = config.base.spec;
  bench.service = config.service;
  bench.num_threads = config.service_threads;
  bench.duration_ms = setup.curve_duration_ms;
  std::printf("\nservice curve: %d threads, %.2f virtual ms per point\n",
              bench.num_threads, bench.duration_ms);
  std::printf("%-14s%16s%12s%16s%12s%9s\n", "offered(/us)", "per-site(/us)",
              "completed", "global(/us)", "completed", "gain");
  double per_site_mean = 0.0;
  double global_mean = 0.0;
  for (double load : setup.loads) {
    bench.offered_load_per_us = load;
    bench.site_locks = per_site_locks;
    auto per_site = harness::RunServiceBench(bench);
    bench.site_locks = global_locks;
    auto global = harness::RunServiceBench(bench);
    per_site_mean += per_site.throughput_per_us / setup.loads.size();
    global_mean += global.throughput_per_us / setup.loads.size();
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

// --adaptive (docs/ADAPTIVE.md): ramp the LC lock, the HC lock, and the adaptive
// facade across the thread counts. The facade should track whichever inner lock wins
// at each point — "vs-best" is its throughput against the better of the two, and
// "switches" counts its recorded side transitions.
int AdaptiveMode(const Context& context) {
  const bench::Flags& flags = context.flags;
  const auto threads = ParseThreads(context);
  const workload::Profile profile = ParseProfile(flags);
  const std::string lc = flags.GetString("lc", "");
  const std::string hc = flags.GetString("hc", "");
  const double up_ns = flags.GetDouble("up_ns", 0.0);
  const double down_ns = flags.GetDouble("down_ns", 0.0);
  const int force_switch = flags.GetInt("force_switch", 0);
  const int jobs = flags.GetInt("jobs", 0);
  const fault::FaultPlan fault_plan = ParseFault(context);
  const std::string trace_path = flags.GetString("trace", "");
  const int trace_capacity = flags.GetInt("trace_capacity", 1 << 20);
  PrintMachine(context.machine, context.hierarchy);

  adaptive::AdaptiveOptions options;
  if (!lc.empty() && !hc.empty()) {
    options.lc_lock = lc;
    options.hc_lock = hc;
  } else {
    // No explicit pair: derive it the workflow's way — run the ordinary sweep and
    // let the policy turn its LC/HC selection into detector thresholds.
    select::SweepConfig sweep;
    sweep.spec = context.Spec();
    sweep.spec.profile = profile;
    sweep.duration_ms = context.Duration(1.0);
    sweep.thread_counts = threads;
    sweep.jobs = jobs;
    auto swept = select::RunScriptedBenchmark(sweep);
    PrintQuarantine(swept);
    options = select::PlanAdaptive(swept);  // throws with a clear message if empty
    std::printf("planned from sweep: lc %s, hc %s, up %.0f ns, down %.0f ns\n",
                options.lc_lock.c_str(), options.hc_lock.c_str(),
                options.up_latency_ns, options.down_latency_ns);
  }
  if (up_ns > 0.0) {
    options.up_latency_ns = up_ns;
  }
  if (down_ns > 0.0) {
    options.down_latency_ns = down_ns;
  }
  options.force_switch_period = static_cast<uint64_t>(force_switch);
  PrintFault(context, fault_plan);

  const Registry with_adaptive = adaptive::WithAdaptive(context.registry, options);
  trace::TraceBuffer trace_buffer(static_cast<size_t>(trace_capacity));
  harness::BenchResult last;

  std::printf("adaptive facade: %s\n", adaptive::DescribeOptions(options).c_str());
  std::printf("%-10s%16s%16s%14s%10s%10s\n", "threads", options.lc_lock.c_str(),
              options.hc_lock.c_str(), "adaptive", "vs-best", "switches");
  for (int t : threads) {
    const std::string names[3] = {options.lc_lock, options.hc_lock, "adaptive"};
    double tput[3] = {0.0, 0.0, 0.0};
    for (int i = 0; i < 3; ++i) {
      harness::BenchConfig config;
      config.spec = context.Spec();
      config.spec.registry = &with_adaptive;
      config.spec.profile = profile;
      config.spec.fault = fault_plan;
      config.lock_name = names[i];
      config.num_threads = t;
      config.duration_ms = context.Duration(1.0);
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
    trace::WriteChromeTraceFile(trace_path, trace_buffer, context.machine.topology,
                                last.lock_markers);
    std::printf("\nwrote %llu events + %zu switch marker(s) to %s (open in Perfetto)\n",
                static_cast<unsigned long long>(trace_buffer.recorded() -
                                                trace_buffer.dropped()),
                last.lock_markers.size(), trace_path.c_str());
  }
  return 0;
}

// --lock=NAME: one lock across the thread counts, with the --stats observability
// report and a Chrome trace of the most contended point.
int LockMode(const Context& context) {
  const bench::Flags& flags = context.flags;
  const std::string lock_name = flags.GetString("lock", "");
  const auto threads = ParseThreads(context);
  const workload::Profile profile = ParseProfile(flags);
  ClofParams params;
  params.keep_local_threshold = static_cast<uint32_t>(flags.GetInt("H", 128));
  const double deadline_ns = flags.GetPositive("deadline", 0.0);
  const fault::FaultPlan fault_plan = ParseFault(context);
  const std::string trace_path = flags.GetString("trace", "");
  const int trace_capacity = flags.GetInt("trace_capacity", 1 << 20);
  const bool want_stats = flags.GetBool("stats");
  PrintMachine(context.machine, context.hierarchy);

  // --deadline makes the abortable compositions nameable.
  const std::unique_ptr<Registry> single_registry = AugmentedRegistry(
      context.registry, context.hierarchy, flags.GetBool("combining"), deadline_ns > 0.0);
  const Registry* active_registry =
      single_registry != nullptr ? single_registry.get() : &context.registry;
  PrintFault(context, fault_plan);
  trace::TraceBuffer trace_buffer(static_cast<size_t>(trace_capacity));
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
    config.spec = context.Spec();
    config.spec.registry = active_registry;
    config.spec.profile = profile;
    config.spec.params = params;
    config.spec.fault = fault_plan;
    config.spec.deadline_ns = deadline_ns;
    config.lock_name = lock_name;
    config.num_threads = t;
    config.duration_ms = context.Duration(1.0);
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
    trace::WriteChromeTraceFile(trace_path, trace_buffer, context.machine.topology);
    std::printf("\nwrote %llu events to %s (%llu dropped; open in Perfetto)\n",
                static_cast<unsigned long long>(trace_buffer.recorded() -
                                                trace_buffer.dropped()),
                trace_path.c_str(), static_cast<unsigned long long>(trace_buffer.dropped()));
  }
  if (want_stats) {
    PrintObservability(last, context.machine, context.hierarchy);
  }
  return 0;
}

// The mode table: one row per mode, the flag that selects it, the function that runs
// it, and every other flag it reads. The --service --deadline row comes before plain
// --service, so a --deadline picks the degradation curve.
struct Mode {
  const char* flag;
  const char* qualifier;  // a flag that must also be given for this row, or null
  int (*run)(const Context&);
  std::vector<std::string> reads;
};

const std::vector<Mode>& Modes() {
  static const std::vector<Mode> modes = [] {
    // Read by every simulating mode through its Context.
    auto simulating = [](std::vector<std::string> reads) {
      for (const char* name : {"machine", "topology", "levels", "seed", "duration_ms"}) {
        reads.push_back(name);
      }
      return reads;
    };
    return std::vector<Mode>{
        {"list", nullptr, ListMode, {"machine"}},
        {"discover", nullptr, DiscoverMode, {"machine", "topology", "rounds", "stride", "jobs"}},
        {"sweep", nullptr, SweepMode,
         simulating({"threads", "profile", "jobs", "cache", "journal", "robustness",
                     "latency", "deadline", "combining"})},
        {"service", "deadline", DegradationMode,
         simulating({"deadline", "shards", "loads", "quick", "check"})},
        {"service", nullptr, ServiceMode,
         simulating({"shards", "loads", "quick", "check", "threads", "jobs", "cache",
                     "journal", "combining"})},
        {"adaptive", nullptr, AdaptiveMode,
         simulating({"threads", "profile", "jobs", "lc", "hc", "up_ns", "down_ns",
                     "force_switch", "fault", "trace", "trace_capacity"})},
        {"lock", nullptr, LockMode,
         simulating({"threads", "profile", "H", "stats", "fault", "trace", "trace_capacity",
                     "deadline", "combining"})},
    };
  }();
  return modes;
}

// The validation pass: exactly one mode flag, and no flag that mode does not read.
const Mode& SelectMode(const bench::Flags& flags, const std::vector<std::string>& vocabulary) {
  std::string chosen;
  for (const Mode& mode : Modes()) {
    if (flags.Has(mode.flag) && chosen != mode.flag) {
      if (!chosen.empty()) {
        flags.Fail("--" + chosen + " and --" + mode.flag + " are both modes; give one");
      }
      chosen = mode.flag;
    }
  }
  if (chosen.empty()) {
    flags.Fail("no mode given: pass one of --list, --discover, --sweep, --service,"
               " --adaptive, --lock=NAME");
  }
  const Mode& mode = *std::find_if(Modes().begin(), Modes().end(), [&](const Mode& row) {
    return row.flag == chosen && (row.qualifier == nullptr || flags.Has(row.qualifier));
  });
  for (const std::string& name : vocabulary) {
    if (flags.Has(name) && name != mode.flag &&
        std::find(mode.reads.begin(), mode.reads.end(), name) == mode.reads.end()) {
      flags.Fail("--" + name + " does not apply to --" + mode.flag +
                 (mode.qualifier == nullptr ? "" : std::string(" --") + mode.qualifier));
    }
  }
  return mode;
}

int Run(int argc, char** argv) {
  std::vector<std::string> vocabulary;
  for (const Mode& mode : Modes()) {
    vocabulary.push_back(mode.flag);
    vocabulary.insert(vocabulary.end(), mode.reads.begin(), mode.reads.end());
  }
  const bench::Flags flags(argc, argv, vocabulary, kUsage);
  const Mode& mode = SelectMode(flags, vocabulary);
  const Context context(flags);
  return mode.run(context);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

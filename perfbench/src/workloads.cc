// The five benchmark workloads (perfbench/README.md says why each exists).
//
// Every workload follows one shape: a set-up step repeated a few times (its median is
// setup_s), then rounds of the measured phase until --seconds elapse, each round's
// outputs checked. Host timings are reference-normalized per-round medians. A traced
// run replaces the rounds with one untraced and one traced pass and emits the
// workload's part of the per-layer ledger.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "perfbench/src/common.h"
#include "src/clof/clof_tree.h"
#include "src/clof/registry.h"
#include "src/clof/registry_internal.h"
#include "src/clof/timeout.h"
#include "src/exec/result_cache.h"
#include "src/harness/lock_bench.h"
#include "src/harness/service_bench.h"
#include "src/locks/ticket.h"
#include "src/mck/check_lock.h"
#include "src/mck/mck_memory.h"
#include "src/mem/native.h"
#include "src/runtime/rng.h"
#include "src/select/scripted_bench.h"
#include "src/sim/platform.h"
#include "src/topo/topology.h"
#include "src/workload/service.h"

namespace perfbench {
namespace {

using namespace clof;

constexpr int kSetupBatches = 7;
constexpr int kSetupsPerBatch = 5;
constexpr int kMinRounds = 3;

// Builds a registry afresh and discards it: the construction a fresh process pays
// before its first timed call, which the builtin registries' magic statics would hide
// from every set-up repetition after the first.
void RebuildRegistry(Registry (*build)()) {
  const Registry registry = build();
  if (registry.size() == 0) {
    throw std::runtime_error("registry build produced no locks");
  }
}

// Host seconds of a fixed reference kernel (seeded pseudo-random read-modify-writes over
// a 4 MB buffer, the cache-bound shape of the simulator's own work). Its code never
// changes, so it measures the host's speed at that moment.
double ReferenceKernelS() {
  static std::vector<uint32_t> buffer(1 << 20);
  const auto start = Clock::now();
  uint32_t x = 1;
  for (int pass = 0; pass < 4; ++pass) {
    for (size_t i = 0; i < buffer.size(); ++i) {
      x = x * 1664525u + 1013904223u;
      buffer[(x >> 12) & (buffer.size() - 1)] += x;
    }
  }
  asm volatile("" : : "r"(x), "r"(buffer.data()) : "memory");
  return SecondsSince(start);
}

// The reference kernel's nominal time: normalized host time = measured time x
// kReferenceS / the kernel's time measured around it.
constexpr double kReferenceS = 0.01;

// Times the pieces of one round and normalizes each by the reference kernel run just
// before and just after it. The host's speed drifts by tens of percent over seconds
// (shared hardware); a piece of up to ~1 s and the kernel runs bracketing it see about
// the same speed, so the ratio cancels the drift while any change to the measured code
// still moves it. Pieces are timed on one host thread.
class Normalizer {
 public:
  Normalizer() : last_ref_(ReferenceKernelS()) {}

  void Begin() { start_ = Clock::now(); }
  // Ends the piece; returns its normalized seconds.
  double End() {
    const double wall = SecondsSince(start_);
    const double ref = ReferenceKernelS();
    const double normalized = wall * kReferenceS / (0.5 * (last_ref_ + ref));
    raw_s_ += wall;
    normalized_s_ += normalized;
    last_ref_ = ref;
    return normalized;
  }
  double raw_s() const { return raw_s_; }
  double normalized_s() const { return normalized_s_; }

 private:
  double last_ref_;
  Clock::time_point start_;
  double raw_s_ = 0.0;
  double normalized_s_ = 0.0;
};

Normalizer* g_round = nullptr;  // the round being measured, if any

// Makes `normalizer` the round that Piece() and the cut points time into.
class ScopedRound {
 public:
  explicit ScopedRound(Normalizer* normalizer) { g_round = normalizer; }
  ~ScopedRound() { g_round = nullptr; }
  ScopedRound(const ScopedRound&) = delete;
  ScopedRound& operator=(const ScopedRound&) = delete;
};

// Host CPU seconds of the whole process (all threads).
double ProcessCpuS() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

// Runs `fn` as one timed piece of the current round (untimed outside RunRounds).
template <class F>
void Piece(F&& fn) {
  if (g_round != nullptr) {
    g_round->Begin();
    fn();
    g_round->End();
  } else {
    fn();
  }
}

// Median over kSetupBatches batches of the reference-normalized host time per call of
// `setup`, kSetupsPerBatch back-to-back calls per batch. Batching keeps the
// reference kernel from evicting the caches before every sub-millisecond set-up. The
// first call also pays the process's one-time lazy construction (the registries'
// magic statics), which the median discards.
template <class F>
double MedianSetup(F&& setup) {
  Normalizer normalizer;
  std::vector<double> samples;
  for (int batch = 0; batch < kSetupBatches; ++batch) {
    normalizer.Begin();
    for (int i = 0; i < kSetupsPerBatch; ++i) {
      setup();
    }
    samples.push_back(normalizer.End() / kSetupsPerBatch);
  }
  return Median(samples);
}

// Per-round results of RunRounds: raw host seconds, and host seconds and operation
// rates normalized to the reference kernel's speed.
struct Rounds {
  std::vector<double> raw_walls;
  std::vector<double> walls;
  std::vector<double> rates;
};

// Runs `round` (which times its measured work through Piece() and returns the
// operations done there) until `seconds` of host time have been spent, at least
// kMinRounds times.
template <class F>
Rounds RunRounds(double seconds, F&& round) {
  Rounds rounds;
  const auto start = Clock::now();
  while (rounds.walls.size() < kMinRounds || SecondsSince(start) < seconds) {
    Normalizer normalizer;
    double ops = 0.0;
    {
      ScopedRound scope(&normalizer);
      ops = round();
    }
    rounds.raw_walls.push_back(normalizer.raw_s());
    rounds.walls.push_back(normalizer.normalized_s());
    rounds.rates.push_back(ops / normalizer.normalized_s());
  }
  return rounds;
}

// The two end-to-end timings every workload reports, plus the raw host seconds.
void ReportRounds(const Rounds& rounds, const std::string& what, const std::string& ops,
                  Report& report) {
  report.Timing("wall_s", rounds.walls, "s", what + " (reference-normalized)");
  report.Timing("ops_per_s", rounds.rates, "1/s", what + " (" + ops + ", reference-normalized)");
  report.Describe("raw_wall_s", rounds.raw_walls, "s", what + " (host wall clock)");
}

// Seeded Fisher-Yates: the workload's input order is a function of --seed.
template <class T>
void Shuffle(std::vector<T>& items, uint64_t seed) {
  runtime::Xoshiro256 rng(seed);
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.NextBounded(i)]);
  }
}

// The workload's share of the per-layer ledger that every traced run reports: per-lock
// host time, executor counters, selection overhead and the trace counts. Layers the
// workload does not exercise report 0.
struct WorkloadLedger {
  std::vector<double> lock_host_ms;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double worker_busy_frac = 0.0;
  double select_overhead_ms = 0.0;
  const CountingSink* sink = nullptr;  // null: the workload runs no simulated engine
  double traced_s = 0.0;
  double untraced_s = 0.0;
  // Figures only one workload has (its outcome metrics), keyed as in kOutcomeUnits;
  // absent ones read 0.
  std::map<std::string, double> outcomes;
};

const std::pair<const char*, const char*> kOutcomeUnits[] = {
    {"exec.sweep_warm_s", "s"},
    {"select.hc_speedup_vs_hmcs", "ratio"},
    {"harness.service_goodput_per_us", "1/us"},
    {"harness.request_p50_ns", "ns"},
    {"harness.request_p99_ns", "ns"},
    {"harness.max_load_under_slo_per_us", "1/us"},
    {"harness.drop_rate", "ratio"}};

void EmitLedger(const WorkloadLedger& ledger, Report& report) {
  std::vector<double> sorted = ledger.lock_host_ms;
  std::sort(sorted.begin(), sorted.end());
  report.Metric("harness.cell_host_ms.p50", Median(sorted), "ms");
  report.Metric("harness.cell_host_ms.max", sorted.empty() ? 0.0 : sorted.back(), "ms");
  report.Note("per-lock host time over n=" + std::to_string(sorted.size()) + " locks");
  report.Metric("exec.cache_hits", ledger.cache_hits, "count");
  report.Metric("exec.cache_misses", ledger.cache_misses, "count");
  report.Metric("exec.worker_busy_frac", ledger.worker_busy_frac, "ratio");
  report.Metric("select.overhead_ms", ledger.select_overhead_ms, "ms");
  for (const auto& [name, unit] : kOutcomeUnits) {
    const auto it = ledger.outcomes.find(name);
    report.Metric(name, it == ledger.outcomes.end() ? 0.0 : it->second, unit);
  }
  static const char* kKindNames[CountingSink::kKinds] = {
      "load", "store", "rmw", "cmpxchg", "rmw_spin_load", "spin_wakeup"};
  const auto& classes = CountingSink::kLevelClasses;
  for (int k = 0; k < CountingSink::kKinds; ++k) {
    report.Metric(std::string("trace.events.") + kKindNames[k],
                  ledger.sink ? static_cast<double>(ledger.sink->events()[k]) : 0.0,
                  "count");
  }
  for (size_t c = 0; c < classes.size(); ++c) {
    report.Metric(std::string("trace.transfers.") + classes[c],
                  ledger.sink ? static_cast<double>(ledger.sink->transfers()[c]) : 0.0,
                  "count");
  }
  const double overhead = ledger.sink != nullptr && ledger.untraced_s > 0.0
                              ? ledger.traced_s / ledger.untraced_s - 1.0
                              : 0.0;
  report.Metric("trace.overhead_frac", overhead, "ratio");
  if (ledger.sink != nullptr) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "traced pass %.4f s vs untraced %.4f s (overhead %+.1f%%), %llu events",
                  ledger.traced_s, ledger.untraced_s, 100.0 * overhead,
                  static_cast<unsigned long long>(ledger.sink->total_events()));
    report.Note(line);
  }
}

// ---------------------------------------------------------------------------------
// sweep: the fig9c/d scripted benchmark, cold into a fresh cache, then warm.

struct SweepVariant {
  std::string tag;
  const sim::Machine* machine = nullptr;
  topo::Hierarchy hierarchy;
  const Registry* registry = nullptr;
  std::vector<std::string> locks;  // the 64 generated 3-level locks, seeded order
  std::string pinned_hc;
  std::string pinned_lc;
};

struct SweepPhase {
  std::vector<select::SweepResult> sweeps;  // one per variant
  std::vector<select::SweepResult> hmcs;    // the HMCS curve, one per variant
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process CPU seconds over the phase, all threads
  uint64_t cells = 0;
  uint64_t quarantined_cells = 0;
  uint64_t accesses = 0;
  uint64_t engine_runs = 0;
  std::vector<double> lock_host_ms;  // filled when timed per lock (jobs == 1)
};

constexpr double kSweepDurationMs = 0.5;  // SweepConfig's default cell length
constexpr int kSweepLocksPerPiece = 8;    // normalization granularity of a timed sweep

// `pieced`: time the phase as pieces of the current round, cut every
// kSweepLocksPerPiece locks (jobs == 1, so on_lock_done runs between cells on this
// thread). `time_locks`: record each lock's host time.
SweepPhase RunSweepPhase(const std::vector<SweepVariant>& variants, int jobs,
                         exec::ResultCache* cache, bool time_locks, bool pieced) {
  pieced = pieced && g_round != nullptr && jobs == 1;
  SweepPhase phase;
  const uint64_t accesses_before = EngineAccesses();
  const uint64_t runs_before = EngineRuns();
  Clock::time_point last = Clock::now();
  int locks_done = 0;
  auto on_lock_done = [&](const select::LockCurve&, int, int) {
    if (time_locks) {
      phase.lock_host_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - last).count());
    }
    if (pieced && ++locks_done % kSweepLocksPerPiece == 0) {
      g_round->End();
      g_round->Begin();
    }
    last = Clock::now();  // after the cut: no lock is charged the reference run
  };
  const auto start = Clock::now();
  const double cpu_start = ProcessCpuS();
  for (const SweepVariant& variant : variants) {
    select::SweepConfig config;
    config.spec.machine = variant.machine;
    config.spec.hierarchy = variant.hierarchy;
    config.spec.registry = variant.registry;
    config.duration_ms = kSweepDurationMs;
    config.jobs = jobs;
    config.cache = cache;
    config.lock_names = variant.locks;
    if (time_locks || pieced) {
      config.on_lock_done = on_lock_done;
      last = Clock::now();
    }
    auto run = [&](std::vector<select::SweepResult>& into) {
      if (pieced) {
        g_round->Begin();
      }
      into.push_back(select::RunScriptedBenchmark(config));
      if (pieced) {
        g_round->End();
      }
    };
    run(phase.sweeps);
    config.lock_names = {"hmcs"};
    if (time_locks) {
      last = Clock::now();
    }
    run(phase.hmcs);
  }
  phase.wall_s = SecondsSince(start);  // includes the pieces' reference runs, if any
  phase.cpu_s = ProcessCpuS() - cpu_start;
  for (size_t v = 0; v < variants.size(); ++v) {
    for (const auto* result : {&phase.sweeps[v], &phase.hmcs[v]}) {
      phase.cells += result->curves.size() * result->thread_counts.size();
      phase.quarantined_cells += result->failures.size();
    }
  }
  phase.accesses = EngineAccesses() - accesses_before;
  phase.engine_runs = EngineRuns() - runs_before;
  return phase;
}

// Exact transcript of every virtual result of a sweep phase.
std::string SweepTranscript(const SweepPhase& phase) {
  std::string out;
  auto add_result = [&out](const select::SweepResult& result) {
    for (const select::LockCurve& curve : result.curves) {
      out += curve.name;
      for (const auto* series : {&curve.throughput, &curve.local_handover_rate,
                                 &curve.transfers_per_op, &curve.acquire_p99_ns}) {
        for (double v : *series) {
          out += ' ' + Hex(v);
        }
        out += ';';
      }
      out += '\n';
    }
    out += "hc=" + result.selection.hc_best + " lc=" + result.selection.lc_best +
           " worst=" + result.selection.worst + " failures=" +
           std::to_string(result.failures.size()) + '\n';
  };
  for (size_t v = 0; v < phase.sweeps.size(); ++v) {
    add_result(phase.sweeps[v]);
    add_result(phase.hmcs[v]);
  }
  return out;
}

// HC-best over HMCS throughput at the top thread count, averaged over the variants.
double HcSpeedup(const SweepPhase& phase) {
  double sum = 0.0;
  for (size_t v = 0; v < phase.sweeps.size(); ++v) {
    const select::SweepResult& sweep = phase.sweeps[v];
    const select::LockCurve* hc = sweep.Curve(sweep.selection.hc_best);
    const double hmcs = phase.hmcs[v].curves.front().throughput.back();
    sum += hc != nullptr && hmcs > 0.0 ? hc->throughput.back() / hmcs : 0.0;
  }
  return sum / static_cast<double>(phase.sweeps.size());
}

// Pinned winners, quarantine-free cells: the cold phase's output checks.
void CheckSweep(const std::vector<SweepVariant>& variants, const SweepPhase& phase,
                Report& report) {
  report.Check(phase.cells, phase.quarantined_cells, "quarantined sweep cells");
  for (size_t v = 0; v < variants.size(); ++v) {
    const auto& selection = phase.sweeps[v].selection;
    const bool ok = selection.hc_best == variants[v].pinned_hc &&
                    selection.lc_best == variants[v].pinned_lc;
    report.Check(1, ok ? 0 : 1,
                 variants[v].tag + " winners HC=" + selection.hc_best + " LC=" +
                     selection.lc_best + ", pinned HC=" + variants[v].pinned_hc +
                     " LC=" + variants[v].pinned_lc);
  }
}

// The warm phase must be served entirely from the cache: byte-identical results, one
// hit per cell, and not a single simulated engine run.
void CheckWarm(const SweepPhase& cold, const std::string& cold_transcript,
               const SweepPhase& warm, const exec::ResultCache& cache, Report& report) {
  report.Check(1, SweepTranscript(warm) == cold_transcript ? 0 : 1,
               "warm sweep differs from the cold sweep");
  report.Check(1, cache.hits() == cold.cells && warm.engine_runs == 0 ? 0 : 1,
               "warm sweep hits " + std::to_string(cache.hits()) + " of " +
                   std::to_string(cold.cells) + " cells, " +
                   std::to_string(warm.engine_runs) + " engine runs");
}

}  // namespace

void RunSweep(const Options& opts, Report& report) {
  std::unique_ptr<sim::Machine> x86;
  std::unique_ptr<sim::Machine> arm;
  std::vector<SweepVariant> variants;
  const double setup_s = MedianSetup([&] {
    RebuildRegistry(internal::BuildSimRegistryCtr);
    RebuildRegistry(internal::BuildSimRegistryNoCtr);
    x86 = std::make_unique<sim::Machine>(sim::Machine::PaperX86());
    arm = std::make_unique<sim::Machine>(sim::Machine::PaperArm());
    variants.clear();
    for (const bool is_x86 : {true, false}) {
      SweepVariant variant;
      variant.tag = is_x86 ? "fig9c" : "fig9d";
      variant.machine = is_x86 ? x86.get() : arm.get();
      variant.hierarchy =
          topo::Hierarchy::Select(variant.machine->topology, {"cache", "numa", "system"});
      variant.registry = &SimRegistry(is_x86);
      variant.locks = variant.registry->Names({.levels = 3, .generated_only = true});
      Shuffle(variant.locks, opts.seed + (is_x86 ? 0 : 1));
      // Winners of the 0.5-ms, seed-42 sweep; the order of the lock list must not
      // move them.
      variant.pinned_hc = is_x86 ? "clh-mcs-tkt" : "mcs-mcs-mcs";
      variant.pinned_lc = "mcs-mcs-hem";
      variants.push_back(std::move(variant));
    }
    // The round's cache dir is created outside set-up: directory creation on the
    // build filesystem made setup_s bimodal across processes (~0.5 vs ~0.95 ms).
  });

  int round = 0;
  // A cold phase into a fresh cache dir, then (when warm_out is set) the identical
  // sweep again, warm. Returns the cold phase's transcript.
  auto cold_round = [&](int jobs, bool time_locks, SweepPhase* cold_out,
                        SweepPhase* warm_out) {
    const auto dir = opts.tmp_dir / ("sweep-cache-" + std::to_string(round++));
    auto cache = std::make_unique<exec::ResultCache>(dir.string());
    *cold_out = RunSweepPhase(variants, jobs, cache.get(), time_locks, true);
    const std::string transcript = SweepTranscript(*cold_out);
    CheckSweep(variants, *cold_out, report);
    if (warm_out != nullptr) {
      const uint64_t misses_before = cache->misses();
      *warm_out = RunSweepPhase(variants, jobs, cache.get(), false, false);
      CheckWarm(*cold_out, transcript, *warm_out, *cache, report);
      report.Check(1, cache->misses() == misses_before ? 0 : 1, "warm sweep missed");
    }
    std::filesystem::remove_all(dir);
    return transcript;
  };

  if (!opts.trace) {
    report.Metric("setup_s", setup_s, "s");
    std::vector<double> warm_walls;
    std::string first_transcript;
    double speedup = 0.0;
    const Rounds rounds = RunRounds(opts.seconds, [&] {
      SweepPhase cold, warm;
      const std::string transcript = cold_round(1, false, &cold, &warm);
      if (first_transcript.empty()) {
        first_transcript = transcript;
        speedup = HcSpeedup(cold);
      }
      report.Check(1, transcript == first_transcript ? 0 : 1,
                   "sweep results differ between rounds");
      warm_walls.push_back(warm.wall_s);
      return static_cast<double>(cold.accesses);
    });
    ReportRounds(rounds, "cold sweep rounds", "simulated accesses", report);
    report.Describe("sweep_warm_s", warm_walls, "s", "warm sweep rounds (host wall clock)");
    report.Note("hc_speedup_vs_hmcs: " + std::to_string(speedup) +
                " (virtual; HC-best over HMCS at the top thread count, mean of x86 and Arm)");
    report.Note("sweep: 2 x (64 generated + hmcs) locks, 1 executor job (timed), " +
                std::to_string(kSweepDurationMs) + " virtual ms/cell");
    return;
  }

  // Traced ledger: parallel cold + warm (executor counters), an untraced jobs=1 pass
  // timed per lock, and the same jobs=1 pass under the counting sink. The two jobs=1
  // passes are timed as normalized pieces, so trace.overhead_frac compares like with
  // like even when the host's speed drifts between them.
  SweepPhase parallel_cold, warm, serial, traced;
  const std::string reference = cold_round(opts.jobs, false, &parallel_cold, &warm);
  Normalizer untraced_time, traced_time;
  std::string serial_transcript, traced_transcript;
  {
    ScopedRound scope(&untraced_time);
    serial_transcript = cold_round(1, true, &serial, nullptr);
  }
  CountingSink sink;
  {
    ScopedTrace trace(&sink);
    ScopedRound scope(&traced_time);
    traced_transcript = cold_round(1, false, &traced, nullptr);
  }
  report.Check(1, serial_transcript == reference ? 0 : 1, "jobs=1 sweep differs");
  report.Check(1, traced_transcript == reference ? 0 : 1, "traced sweep differs");
  WorkloadLedger ledger;
  ledger.lock_host_ms = serial.lock_host_ms;
  double locks_ms = 0.0;
  for (double ms : serial.lock_host_ms) {
    locks_ms += ms;
  }
  ledger.cache_hits = static_cast<double>(warm.cells);
  ledger.cache_misses = static_cast<double>(parallel_cold.cells);
  // Busy worker time over available worker time, both from the same parallel phase.
  ledger.worker_busy_frac = parallel_cold.cpu_s / (opts.jobs * parallel_cold.wall_s);
  ledger.select_overhead_ms = untraced_time.raw_s() * 1e3 - locks_ms;
  ledger.outcomes["exec.sweep_warm_s"] = warm.wall_s;
  ledger.outcomes["select.hc_speedup_vs_hmcs"] = HcSpeedup(parallel_cold);
  ledger.sink = &sink;
  ledger.traced_s = traced_time.normalized_s();
  ledger.untraced_s = untraced_time.normalized_s();
  EmitLedger(ledger, report);
}

// ---------------------------------------------------------------------------------
// scale1024: engine_bench's 1024-CPU scale scenario through RunLockBench.

namespace {

constexpr double kScaleDurationMs = 6.0;
constexpr uint64_t kScaleSimOps = 2'073'314;  // sim_ops at 6 virtual ms

struct ScaleCell {
  std::string lock;
  int threads = 0;
};

std::string BenchTranscript(const harness::BenchResult& r) {
  std::string out = r.lock_name + ' ' + std::to_string(r.num_threads) + ' ' +
                    std::to_string(r.total_ops) + ' ' + std::to_string(r.total_accesses) +
                    ' ' + std::to_string(r.total_line_transfers) + ' ' +
                    Hex(r.throughput_per_us) + ' ' + Hex(r.acquire_p99_ns) + ' ' +
                    Hex(r.max_acquire_ns);
  for (uint64_t ops : r.per_thread_ops) {
    out += ' ' + std::to_string(ops);
  }
  return out + '\n';
}

}  // namespace

void RunScale1024(const Options& opts, Report& report) {
  std::unique_ptr<sim::Machine> cxl;
  harness::BenchConfig config;
  std::vector<ScaleCell> cells;
  const double setup_s = MedianSetup([&] {
    RebuildRegistry(internal::BuildSimRegistryCtr);
    cxl = std::make_unique<sim::Machine>(sim::Machine::CxlPod1024());
    config = harness::BenchConfig();
    config.spec.machine = cxl.get();
    config.spec.hierarchy =
        topo::Hierarchy::Select(cxl->topology, {"cache", "numa", "pod", "system"});
    config.spec.registry = &SimRegistry(true);
    config.duration_ms = kScaleDurationMs;
    cells.clear();
    for (const char* lock :
         {"mcs-mcs-mcs-mcs", "tkt-mcs-mcs-mcs", "clh-clh-mcs-tkt", "tkt-tkt-tkt-tkt"}) {
      for (int threads : {64, 256, 1024}) {
        cells.push_back({lock, threads});
      }
    }
    Shuffle(cells, opts.seed);
  });

  // One round: every cell once. Returns the transcript; per-lock host ms on request.
  auto run_round = [&](trace::EventSink* sink, uint64_t* sim_ops,
                       std::vector<double>* lock_ms) {
    std::string transcript;
    *sim_ops = 0;
    const uint64_t hook_before = EngineAccesses();
    std::vector<std::pair<std::string, double>> per_lock;
    for (const ScaleCell& cell : cells) {
      harness::BenchConfig run = config;
      run.lock_name = cell.lock;
      run.num_threads = cell.threads;
      run.trace_sink = sink;
      const auto start = Clock::now();
      const harness::BenchResult result = harness::RunLockBench(run);
      const double ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
      auto it = std::find_if(per_lock.begin(), per_lock.end(),
                             [&](const auto& entry) { return entry.first == cell.lock; });
      if (it == per_lock.end()) {
        per_lock.emplace_back(cell.lock, ms);
      } else {
        it->second += ms;
      }
      *sim_ops += result.total_accesses;
      transcript += BenchTranscript(result);
    }
    report.Check(1, *sim_ops == kScaleSimOps ? 0 : 1,
                 "scale1024 sim_ops " + std::to_string(*sim_ops) + " != pinned " +
                     std::to_string(kScaleSimOps));
    report.Check(1, EngineAccesses() - hook_before == *sim_ops ? 0 : 1,
                 "engine run hook disagrees with RunLockBench's access count");
    if (lock_ms != nullptr) {
      for (const auto& entry : per_lock) {
        lock_ms->push_back(entry.second);
      }
    }
    return transcript;
  };

  if (!opts.trace) {
    report.Metric("setup_s", setup_s, "s");
    std::string first;
    const Rounds rounds = RunRounds(opts.seconds, [&] {
      uint64_t sim_ops = 0;
      std::string transcript;
      Piece([&] { transcript = run_round(nullptr, &sim_ops, nullptr); });
      if (first.empty()) {
        first = transcript;
      }
      report.Check(1, transcript == first ? 0 : 1, "scale1024 results differ between rounds");
      return static_cast<double>(sim_ops);
    });
    ReportRounds(rounds, "rounds of 12 cells", "simulated accesses", report);
    return;
  }

  WorkloadLedger ledger;
  uint64_t sim_ops = 0;
  Normalizer time;  // normalized pieces: the overhead survives host drift between them
  time.Begin();
  const std::string untraced = run_round(nullptr, &sim_ops, &ledger.lock_host_ms);
  ledger.untraced_s = time.End();
  CountingSink sink;
  std::string traced;
  {
    ScopedTrace scope(&sink);
    time.Begin();
    traced = run_round(&sink, &sim_ops, nullptr);  // installed via BenchConfig::trace_sink
    ledger.traced_s = time.End();
  }
  report.Check(1, traced == untraced ? 0 : 1, "traced scale1024 results differ");
  ledger.sink = &sink;
  EmitLedger(ledger, report);
}

// ---------------------------------------------------------------------------------
// service: MiniProxy on RunServiceBench over a fixed offered-load grid.

namespace {

const std::vector<double> kServiceLoads = {2, 4, 6, 8, 10, 12, 16, 20};
constexpr size_t kServiceMidLoad = 3;       // 8 req/us: below the ~10 req/us knee
constexpr double kServiceDurationMs = 0.5;  // virtual ms per grid point
constexpr double kServiceSloNs = 50'000.0;  // request p99 limit for the SLO metric
constexpr double kServiceMissLimit = 0.01;  // dropped + backlogged share allowed
constexpr double kServiceDeadlineNs = 2000.0;

struct ServicePass {
  std::vector<harness::ServiceBenchResult> points;  // one per grid load
};

std::string ServiceTranscript(const ServicePass& pass) {
  std::string out;
  for (const auto& r : pass.points) {
    out += std::to_string(r.total_ops) + ' ' + std::to_string(r.dropped_requests) + ' ' +
           Hex(r.completion_ratio) + ' ' + Hex(r.request_p50_ns) + ' ' +
           Hex(r.request_p99_ns) + ' ' + Hex(r.request_p999_ns);
    for (const auto& site : r.sites) {
      out += ' ' + std::to_string(site.ops) + ':' + Hex(site.acquire_p99_ns);
    }
    out += '\n';
  }
  return out;
}

// The service's outcome figures for one pair of passes, after its output checks.
struct ServiceOutcome {
  double goodput = 0.0;    // completed req/virtual us at the top load, pass (a)
  double p50 = 0.0;        // served-request latency at the mid load, pass (a)
  double p99 = 0.0;
  double max_load = 0.0;   // highest load meeting the SLO, pass (a)
  double drop_rate = 0.0;  // dropped share of attempts at the top load, pass (b)
};
ServiceOutcome CheckService(const ServicePass& a, const ServicePass& b, Report& report) {
  uint64_t requests = 0;
  uint64_t dropped = 0;
  ServiceOutcome outcome;
  for (size_t i = 0; i < kServiceLoads.size(); ++i) {
    const auto& point = a.points[i];
    requests += point.total_ops;
    dropped += point.dropped_requests;  // no deadline in pass (a): nothing may drop
    // completion_ratio counts dropped and backlogged requests as not completed.
    if (point.request_p99_ns <= kServiceSloNs &&
        1.0 - point.completion_ratio <= kServiceMissLimit) {
      outcome.max_load = kServiceLoads[i];
    }
  }
  const auto& mid = a.points[kServiceMidLoad];
  report.Check(requests, dropped, "pass (a) dropped requests without a deadline");
  report.Check(1, b.points.back().dropped_requests > 0 ? 0 : 1,
               "pass (b) shed nothing at the top load");
  report.Check(1, mid.total_ops >= 1000 ? 0 : 1,
               "mid-load p99 rests on fewer than 10 samples beyond it");
  report.Check(1, outcome.max_load > 0.0 ? 0 : 1, "no grid load meets the SLO");
  outcome.goodput = a.points.back().throughput_per_us;
  outcome.p50 = mid.request_p50_ns;
  outcome.p99 = mid.request_p99_ns;
  outcome.drop_rate = b.points.back().drop_rate;
  return outcome;
}

// The MiniProxy service on the Arm model: pass (a) with the per-site set, pass (b)
// with mcst-mcst everywhere under a request deadline.
struct ServiceSet {
  std::unique_ptr<sim::Machine> arm;
  std::unique_ptr<Registry> timeout_registry;
  harness::ServiceBenchConfig per_site;  // pass (a)
  harness::ServiceBenchConfig bounded;   // pass (b)

  void Build(uint64_t seed) {
    arm = std::make_unique<sim::Machine>(sim::Machine::PaperArm());
    const Registry& base = SimRegistry(false);
    timeout_registry = std::make_unique<Registry>(timeout::WithTimeout(base, {}));
    per_site = harness::ServiceBenchConfig();
    per_site.spec.machine = arm.get();
    per_site.spec.hierarchy = topo::Hierarchy::Select(arm->topology, {"numa", "system"});
    per_site.spec.registry = &base;
    per_site.spec.seed = seed;
    per_site.service = workload::ServiceProfile::MiniProxy(8);
    // The per-site set `clof_bench --service --quick` installs (cache_shard,
    // conn_table, stats), fixed by name so no selection sweep runs in the timed phase.
    per_site.site_locks = {"mcs-hem", "clh-hem", "mcs-clh"};
    per_site.num_threads = harness::PaperThreadCounts(arm->topology).back();
    per_site.duration_ms = kServiceDurationMs;
    bounded = per_site;
    bounded.spec.registry = timeout_registry.get();
    bounded.spec.deadline_ns = kServiceDeadlineNs;
    bounded.site_locks.assign(bounded.service.sites.size(), "mcst-mcst");
  }
};

}  // namespace

double ServiceHostUsPerRequest(uint64_t seed) {
  ServiceSet set;
  set.Build(seed);
  set.per_site.offered_load_per_us = kServiceLoads[kServiceMidLoad];
  std::vector<double> samples;
  for (int i = 0; i < 5; ++i) {
    const auto start = Clock::now();
    const harness::ServiceBenchResult r = harness::RunServiceBench(set.per_site);
    const double offered = static_cast<double>(r.total_ops) / r.completion_ratio;
    samples.push_back(SecondsSince(start) * 1e6 / offered);
  }
  return Median(samples);
}

namespace {

// Writes `text` to `fd` completely; false on a write error.
bool WriteAll(int fd, const std::string& text) {
  size_t offset = 0;
  while (offset < text.size()) {
    const ssize_t n = write(fd, text.data() + offset, text.size() - offset);
    if (n <= 0) {
      return false;
    }
    offset += static_cast<size_t>(n);
  }
  return true;
}

// Runs each function in its own forked child and returns what each produced. Both
// children are forked back to back, so they start from the same heap: RunServiceBench
// results depend on where the heap places its lock and shard objects (simulated lines
// are real addresses), so only same-heap runs can be compared byte for byte.
std::vector<std::string> RunInForkedChildren(
    const std::vector<std::function<std::string()>>& fns) {
  std::vector<std::pair<pid_t, int>> children;
  children.reserve(fns.size());  // no allocation between the forks
  for (const auto& fn : fns) {
    int fds[2];
    if (pipe(fds) != 0) {
      throw std::runtime_error("pipe failed");
    }
    const pid_t pid = fork();
    if (pid < 0) {
      throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
      close(fds[0]);
      bool ok = false;
      try {
        ok = WriteAll(fds[1], fn());
      } catch (...) {
      }
      _exit(ok ? 0 : 1);
    }
    close(fds[1]);
    children.emplace_back(pid, fds[0]);
  }
  std::vector<std::string> outputs;
  for (const auto& [pid, fd] : children) {
    std::string out;
    char buffer[4096];
    ssize_t n;
    while ((n = read(fd, buffer, sizeof(buffer))) > 0) {
      out.append(buffer, static_cast<size_t>(n));
    }
    close(fd);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("forked comparison run failed");
    }
    outputs.push_back(std::move(out));
  }
  return outputs;
}

}  // namespace

void RunService(const Options& opts, Report& report) {
  ServiceSet set;
  const double setup_s = MedianSetup([&] {
    RebuildRegistry(internal::BuildSimRegistryNoCtr);
    set.Build(opts.seed);
  });

  auto run_pass = [&](harness::ServiceBenchConfig config, std::vector<double>* point_ms) {
    ServicePass pass;
    for (double load : kServiceLoads) {
      config.offered_load_per_us = load;
      const auto start = Clock::now();
      pass.points.push_back(harness::RunServiceBench(config));
      if (point_ms != nullptr) {
        point_ms->push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - start).count());
      }
    }
    return pass;
  };

  if (opts.trace) {
    WorkloadLedger ledger;
    Normalizer time;  // normalized pieces: the overhead survives host drift between them
    time.Begin();
    const ServicePass a = run_pass(set.per_site, &ledger.lock_host_ms);
    const ServicePass b = run_pass(set.bounded, &ledger.lock_host_ms);
    ledger.untraced_s = time.End();
    const ServiceOutcome outcome = CheckService(a, b, report);
    ledger.outcomes["harness.service_goodput_per_us"] = outcome.goodput;
    ledger.outcomes["harness.request_p50_ns"] = outcome.p50;
    ledger.outcomes["harness.request_p99_ns"] = outcome.p99;
    ledger.outcomes["harness.max_load_under_slo_per_us"] = outcome.max_load;
    ledger.outcomes["harness.drop_rate"] = outcome.drop_rate;
    CountingSink sink;
    {
      ScopedTrace scope(&sink);
      time.Begin();
      run_pass(set.per_site, nullptr);
      run_pass(set.bounded, nullptr);
      ledger.traced_s = time.End();
    }
    auto both = [&] {
      return ServiceTranscript(run_pass(set.per_site, nullptr)) +
             ServiceTranscript(run_pass(set.bounded, nullptr));
    };
    const auto outputs = RunInForkedChildren({both, [&] {
                                                CountingSink child_sink;
                                                ScopedTrace scope(&child_sink);
                                                return both();
                                              }});
    report.Check(1, outputs[0] == outputs[1] ? 0 : 1, "traced service results differ");
    ledger.sink = &sink;
    EmitLedger(ledger, report);
    return;
  }

  report.Metric("setup_s", setup_s, "s");
  std::vector<double> goodput, p50, p99, max_load, drop_rate;
  std::string first;
  int identical = 0;
  ServicePass a0, b0;
  const Rounds rounds = RunRounds(opts.seconds, [&] {
    const uint64_t before = EngineAccesses();
    ServicePass a, b;
    Piece([&] {
      a = run_pass(set.per_site, nullptr);
      b = run_pass(set.bounded, nullptr);
    });
    const auto accesses = static_cast<double>(EngineAccesses() - before);

    const ServiceOutcome outcome = CheckService(a, b, report);
    goodput.push_back(outcome.goodput);
    p50.push_back(outcome.p50);
    p99.push_back(outcome.p99);
    max_load.push_back(outcome.max_load);
    drop_rate.push_back(outcome.drop_rate);

    const std::string transcript = ServiceTranscript(a) + ServiceTranscript(b);
    if (first.empty()) {
      first = transcript;
      a0 = std::move(a);
      b0 = std::move(b);
    }
    identical += transcript == first ? 1 : 0;
    return accesses;
  });
  ReportRounds(rounds, "rounds of 2 passes x 8 loads", "simulated accesses", report);
  const std::string per_round = "rounds (virtual; per-round values vary with heap placement)";
  report.Describe("service_goodput_per_us", goodput, "1/us", per_round);
  report.Describe("request_p50_ns", p50, "ns", per_round);
  report.Describe("request_p99_ns", p99, "ns", per_round);
  report.Describe("max_load_under_slo_per_us", max_load, "1/us", per_round);
  report.Describe("drop_rate", drop_rate, "ratio", per_round);
  report.Note("service rounds byte-identical to round 1: " + std::to_string(identical) +
              " of " + std::to_string(rounds.walls.size()));
  const auto& mid = a0.points[kServiceMidLoad];
  char line[320];
  std::snprintf(line, sizeof(line),
                "round 1, pass (a) at %.0f req/us: p50 %.1f ns, p99 %.1f ns over n=%llu "
                "completed requests (served only; %.2f%% of offered not completed)",
                kServiceLoads[kServiceMidLoad], mid.request_p50_ns, mid.request_p99_ns,
                static_cast<unsigned long long>(mid.total_ops),
                100.0 * (1.0 - mid.completion_ratio));
  report.Note(line);
  for (size_t i = 0; i < kServiceLoads.size(); ++i) {
    const auto& a = a0.points[i];
    const auto& b = b0.points[i];
    std::snprintf(line, sizeof(line),
                  "  load %5.1f: (a) %.3f/us done %.1f%% p99 %.0f ns | (b) %.3f/us "
                  "dropped %.1f%% of attempts, done %.1f%% of offered",
                  kServiceLoads[i], a.throughput_per_us, 100.0 * a.completion_ratio,
                  a.request_p99_ns, b.throughput_per_us, 100.0 * b.drop_rate,
                  100.0 * b.completion_ratio);
    report.Note(line);
  }
}

// ---------------------------------------------------------------------------------
// native: NativeRegistry locks on real host threads.

namespace {

using NM = mem::NativeMemory;

constexpr int kNativeBatches = 200;
constexpr int kNativeBatchOps = 2000;
constexpr int kNativeContendedOps = 20000;  // per thread per lock
#if defined(__x86_64__)
constexpr bool kNativeCtr = true;  // Hemlock CTR: on for x86 (paper §3.2)
#else
constexpr bool kNativeCtr = false;
#endif

// Median ns per uncontended Acquire+Release over kNativeBatches batches.
double UncontendedNs(Lock& lock) {
  NM::ScopedCpu cpu(0);
  auto ctx = lock.MakeContext();
  std::vector<double> batches;
  batches.reserve(kNativeBatches);
  for (int b = 0; b < kNativeBatches; ++b) {
    const auto start = Clock::now();
    for (int i = 0; i < kNativeBatchOps; ++i) {
      lock.Acquire(*ctx);
      lock.Release(*ctx);
    }
    batches.push_back(std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
                      kNativeBatchOps);
  }
  return Median(batches);
}

// `threads` host threads each take the lock kNativeContendedOps times around a plain
// counter increment; a lost update shows as a counter below the acquisitions.
struct Contended {
  uint64_t acquisitions = 0;
  uint64_t counter = 0;
  double seconds = 0.0;
};
Contended RunContended(Lock& lock, int threads, int num_cpus) {
  uint64_t counter = 0;  // guarded by `lock`
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  Clock::time_point start;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      NM::ScopedCpu cpu(t * num_cpus / threads);  // spread over the hierarchy's cohorts
      auto ctx = lock.MakeContext();
      if (ready.fetch_add(1) + 1 == threads) {
        start = Clock::now();
      }
      while (ready.load() < threads) {
      }
      for (int i = 0; i < kNativeContendedOps; ++i) {
        lock.Acquire(*ctx);
        ++counter;
        lock.Release(*ctx);
      }
    });
  }
  for (auto& thread : pool) {
    thread.join();
  }
  return {static_cast<uint64_t>(threads) * kNativeContendedOps, counter, SecondsSince(start)};
}

// One composition per depth plus HMCS, built from NativeRegistry on the x86 topology.
struct NativeSet {
  struct Entry {
    std::string key;   // d1..d4, hmcs
    std::string name;  // registry name
    std::unique_ptr<Lock> lock;
  };
  std::unique_ptr<topo::Topology> x86;
  std::vector<Entry> entries;

  void Build(uint64_t seed) {
    x86 = std::make_unique<topo::Topology>(topo::Topology::PaperX86());
    NM::SetNumCpus(x86->num_cpus());
    const Registry& registry = NativeRegistry(kNativeCtr);
    const std::vector<std::vector<std::string>> levels = {
        {"system"}, {"cache", "system"}, {"cache", "numa", "system"},
        {"core", "cache", "numa", "system"}};
    const std::vector<std::pair<std::string, std::string>> named = {
        {"d1", "mcs"}, {"d2", "tkt-mcs"}, {"d3", "hem-mcs-tkt"},
        {"d4", "hem-hem-mcs-clh"}, {"hmcs", "hmcs"}};
    entries.clear();
    for (size_t i = 0; i < named.size(); ++i) {
      const auto& h = levels[std::min<size_t>(i, 3)];
      entries.push_back({named[i].first, named[i].second,
                         registry.Make(named[i].second, topo::Hierarchy::Select(*x86, h))});
    }
    Shuffle(entries, seed);
  }

  struct Round {
    std::map<std::string, double> ns;  // by key
    std::vector<double> lock_ms;
    double contended_mops = 0.0;
    uint64_t pairs = 0;  // uncontended acquire+release pairs (the timed pieces)
  };
  // Every lock's uncontended median (one timed piece per lock), then the lock under
  // `threads`-way contention. The contended phase is checked but not timed as a
  // piece: its speed follows how many vCPUs the host grants at once, which the
  // single-thread reference kernel cannot normalize away.
  Round Run(int threads, Report& report) const {
    Round round;
    uint64_t acquisitions = 0;
    double contended_s = 0.0;
    for (const Entry& entry : entries) {
      const auto start = Clock::now();
      Piece([&] { round.ns[entry.key] = UncontendedNs(*entry.lock); });
      const Contended c = RunContended(*entry.lock, threads, x86->num_cpus());
      round.lock_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - start).count());
      report.Check(c.acquisitions, c.acquisitions - std::min(c.counter, c.acquisitions),
                   entry.name + " lost updates under contention");
      acquisitions += c.acquisitions;
      contended_s += c.seconds;
      round.pairs += uint64_t{kNativeBatches} * kNativeBatchOps;
    }
    round.contended_mops = static_cast<double>(acquisitions) / contended_s / 1e6;
    return round;
  }
};

}  // namespace

void RunNative(const Options& opts, Report& report) {
  NativeSet set;
  const double setup_s = MedianSetup([&] {
    RebuildRegistry(kNativeCtr ? internal::BuildNativeRegistryCtr
                               : internal::BuildNativeRegistryNoCtr);
    set.Build(opts.seed);
  });
  const uint64_t runs_before = EngineRuns();
  if (!opts.trace) {
    report.Metric("setup_s", setup_s, "s");
    std::vector<double> d1, d4;
    const Rounds rounds = RunRounds(opts.seconds, [&] {
      NativeSet::Round round = set.Run(opts.jobs, report);
      d1.push_back(round.ns["d1"]);
      d4.push_back(round.ns["d4"]);
      return static_cast<double>(round.pairs);
    });
    ReportRounds(rounds, "rounds", "acquire+release pairs", report);
    const std::string batches = "rounds (each a median of " +
                                std::to_string(kNativeBatches) + " batches)";
    report.Describe("native_acqrel_ns_d1", d1, "ns", batches);
    report.Describe("native_acqrel_ns_d4", d4, "ns", batches);
  } else {
    WorkloadLedger ledger;
    ledger.lock_host_ms = set.Run(opts.jobs, report).lock_ms;
    EmitLedger(ledger, report);
  }
  report.Check(1, EngineRuns() == runs_before ? 0 : 1, "native workload ran the simulator");
}

void NativeLayerProbe(const Options& opts, Report& report) {
  NativeSet set;
  set.Build(opts.seed);
  NativeSet::Round round = set.Run(opts.jobs, report);
  for (const auto& [key, ns] : round.ns) {
    report.Metric("clof.native_acqrel_ns." + key, ns, "ns");
  }
  report.Metric("clof.native_contended_mops", round.contended_mops, "1/us");
}

// ---------------------------------------------------------------------------------
// mck: exhaustive SC exploration of tkt chains on tiny8 with 3 threads.

namespace {

using MM = mck::MckMemory;

constexpr uint64_t kMckExecutionsPerPiece = 20'000;  // normalization granularity

// One exhaustive exploration. The lock factory runs between executions, so a timed
// round cuts its piece there every kMckExecutionsPerPiece executions.
template <class Tree>
mck::CheckStats CheckTree(const topo::Hierarchy& hierarchy) {
  mck::CheckConfig config;
  config.threads = 3;
  config.acquisitions = 1;
  config.cpus = {0, 1, 4};  // two threads share the lowest cohort, one is remote
  config.options.max_executions = 10'000'000;
  uint64_t executions = 0;
  return mck::CheckLock<Tree>(config, [&hierarchy, &executions] {
    if (g_round != nullptr && ++executions % kMckExecutionsPerPiece == 0) {
      g_round->End();
      g_round->Begin();
    }
    ClofParams params;
    params.keep_local_threshold = 2;
    return std::make_shared<Tree>(hierarchy, 0, params);
  });
}

// The mck_scaling --quick set: complete tkt, tkt-tkt and tkt-tkt-tkt compositions.
struct MckSet {
  struct Entry {
    int depth = 0;
    uint64_t executions = 0;  // pinned exhaustive execution count
  };
  std::unique_ptr<topo::Topology> tiny8;
  std::vector<topo::Hierarchy> hierarchies;
  std::vector<Entry> entries;

  void Build(uint64_t seed) {
    tiny8 = std::make_unique<topo::Topology>(topo::Topology::FromSpec("tiny8:8;a=2;b=4"));
    hierarchies = {topo::Hierarchy::Select(*tiny8, {"system"}),
                   topo::Hierarchy::Select(*tiny8, {"b", "system"}),
                   topo::Hierarchy::Select(*tiny8, {"a", "b", "system"})};
    entries = {{1, 522}, {2, 25'963}, {3, 145'067}};
    Shuffle(entries, seed);
  }

  struct Round {
    std::map<int, uint64_t> executions;  // by depth
    uint64_t steps = 0;
    std::vector<double> lock_ms;
    uint64_t total_executions() const {
      uint64_t total = 0;
      for (const auto& [depth, n] : executions) {
        total += n;
      }
      return total;
    }
  };
  // Explores every composition exhaustively and checks its pinned execution count.
  Round Run(Report& report) const {
    using T1 = Compose<MM, locks::TicketLock<MM>>;
    using T2 = Compose<MM, locks::TicketLock<MM>, locks::TicketLock<MM>>;
    using T3 =
        Compose<MM, locks::TicketLock<MM>, locks::TicketLock<MM>, locks::TicketLock<MM>>;
    Round round;
    for (const Entry& entry : entries) {
      const topo::Hierarchy& h = hierarchies[entry.depth - 1];
      mck::CheckStats stats;
      Piece([&] {
        const auto start = Clock::now();
        stats = entry.depth == 1   ? CheckTree<T1>(h)
                : entry.depth == 2 ? CheckTree<T2>(h)
                                   : CheckTree<T3>(h);
        round.lock_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - start).count());
      });
      const auto& r = stats.result;
      const bool ok = r.executions == entry.executions && !r.violation_found && r.exhausted;
      report.Check(r.executions, ok ? 0 : 1,
                   "mck depth " + std::to_string(entry.depth) + ": " +
                       std::to_string(r.executions) + " executions (pinned " +
                       std::to_string(entry.executions) + ")" +
                       (r.violation_found ? ", violation: " + r.violation : ""));
      round.executions[entry.depth] = r.executions;
      round.steps += r.total_steps;
    }
    return round;
  }
};

}  // namespace

void RunMck(const Options& opts, Report& report) {
  MckSet set;
  const double setup_s = MedianSetup([&] { set.Build(opts.seed); });
  if (opts.trace) {
    WorkloadLedger ledger;
    ledger.lock_host_ms = set.Run(report).lock_ms;
    EmitLedger(ledger, report);
    return;
  }
  report.Metric("setup_s", setup_s, "s");
  std::vector<double> executions;
  const Rounds rounds = RunRounds(opts.seconds, [&] {
    const MckSet::Round round = set.Run(report);
    executions.push_back(static_cast<double>(round.total_executions()));
    return static_cast<double>(round.steps);
  });
  ReportRounds(rounds, "rounds of 3 explorations", "explored steps", report);
  std::vector<double> execs_per_s;
  for (size_t i = 0; i < executions.size(); ++i) {
    execs_per_s.push_back(executions[i] / rounds.raw_walls[i]);
  }
  report.Describe("mck_execs_per_s", execs_per_s, "1/s",
                  "rounds of 3 explorations (host wall clock)");
}

void MckLayerProbe(Report& report) {
  MckSet set;
  set.Build(0);
  const auto start = Clock::now();
  const MckSet::Round round = set.Run(report);
  const double wall = SecondsSince(start);
  for (const auto& [depth, n] : round.executions) {
    report.Metric("mck.executions." + std::to_string(depth), static_cast<double>(n), "count");
  }
  const auto executions = static_cast<double>(round.total_executions());
  report.Metric("mck.steps_per_execution", static_cast<double>(round.steps) / executions,
                "count");
  report.Metric("mck.execs_per_s", executions / wall, "1/s");
}

}  // namespace perfbench

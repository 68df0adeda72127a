// The scripted benchmark (paper §4.3): evaluates every generated CLoF lock across the
// contention sweep and feeds the selection policies. This is the automated part of the
// CLoF workflow in Figure 5.
//
// The sweep is the expensive part of the workflow (all N^M locks x every thread count x
// `runs` repetitions), so it executes on the clof::exec layer: cells are sharded across
// host worker threads (`jobs`) and can be served from a content-addressed result cache
// (`cache`). Both are pure accelerators — because every cell is a self-contained
// deterministic simulation, the SweepResult is byte-identical for any worker count and
// for cached vs computed cells (tests/parallel_sweep_test.cc asserts this). See
// docs/PARALLEL_SWEEP.md.
//
// The sweep is also resilient: a cell whose simulation deadlocks, livelocks, or throws
// becomes a structured CellFailure — the lock is quarantined out of selection, the
// rest of the sweep completes — and an optional SweepJournal makes an interrupted
// sweep resumable with byte-identical final output. The cache and the journal are two
// instances of one cell log (src/exec/result_cache.h): the same records, the same
// transcript check on every hit; the cache keeps successes only, the journal failures
// too.
#ifndef CLOF_SRC_SELECT_SCRIPTED_BENCH_H_
#define CLOF_SRC_SELECT_SCRIPTED_BENCH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/clof/registry.h"
#include "src/clof/run_spec.h"
#include "src/exec/result_cache.h"
#include "src/fault/scenarios.h"
#include "src/harness/lock_bench.h"
#include "src/select/selection.h"
#include "src/sim/platform.h"
#include "src/sim/watchdog.h"
#include "src/topo/topology.h"
#include "src/workload/profiles.h"

namespace clof::select {

// The default per-cell watchdog: only the deterministic no-progress livelock detector,
// at a budget (~32M accesses without one completed critical section) no working lock
// composition approaches, so armed-but-untripped sweeps stay byte-identical to
// historical ones. Virtual-time and wall-clock budgets stay opt-in: cell durations
// vary legitimately, and wall budgets are host-dependent. Armed, it costs each
// simulated access one ring store and one compare (src/sim/watchdog.h), which
// perfbench's sweep cannot tell from a disarmed run.
inline sim::WatchdogConfig DefaultSweepWatchdog() {
  sim::WatchdogConfig config;
  config.max_accesses_without_progress = uint64_t{1} << 25;
  return config;
}

struct SweepConfig {
  // What to run: machine, hierarchy, registry, profile, seed, ClofParams. Shared with
  // BenchConfig; the executor fingerprints this one canonical value per sweep.
  RunSpec spec;
  // Locks to sweep; empty = every generated lock of hierarchy.depth() levels.
  std::vector<std::string> lock_names;
  std::vector<int> thread_counts;         // empty = PaperThreadCounts(machine)
  double duration_ms = 0.5;               // §5.2 uses quick 1-run evaluations
  int runs = 1;
  // Host worker threads for the cell executor: 0 = one per host CPU, 1 = serial
  // (inline, no threads spawned). Any value produces byte-identical results.
  int jobs = 0;
  // Optional content-addressed result cache; cells whose fingerprint matches a stored
  // entry are served without simulating. Never changes results.
  exec::ResultCache* cache = nullptr;
  // Optional resumable journal (src/exec/result_cache.h): finished cells — successes
  // and failures — are recorded as they complete, and a re-run with the same journal
  // serves them instead of recomputing, so an interrupted sweep resumes where it was
  // killed. Never changes results: the resumed output is byte-identical to an
  // uninterrupted run (tests/journal_test.cc).
  exec::SweepJournal* journal = nullptr;
  // Per-cell runaway protection (src/sim/watchdog.h): a cell whose simulation
  // deadlocks, livelocks, or exceeds a budget becomes a CellFailure and quarantines
  // its lock instead of hanging or aborting the sweep. Not part of the cell
  // fingerprint: the watchdog never alters a successful cell's results. Assign a
  // config with !Enabled() to run unprotected.
  sim::WatchdogConfig watchdog = DefaultSweepWatchdog();
  // Progress callback, invoked once per completed lock; may be null.
  //
  // Contract (independent of `jobs`): calls are serialized (never concurrent with each
  // other), delivered in sweep order — curve for lock_names[i] arrives i-th, with
  // `done` counting 1..total — and each curve is complete (all thread counts) when
  // delivered. The invoking thread is unspecified when jobs > 1 (whichever worker
  // finished the gating cell); with jobs == 1 it is the caller's thread.
  std::function<void(const LockCurve&, int done, int total)> on_lock_done;
};

struct SweepResult {
  std::vector<int> thread_counts;
  std::vector<LockCurve> curves;  // with handover-locality / transfers-per-op sidecars
  // Quarantine report (docs/PARALLEL_SWEEP.md): every failed cell in deterministic
  // sweep order (lock-major, then thread count), and the sweep-order names of locks
  // with at least one failed cell. A quarantined lock keeps its curve (failed cells
  // read as zeros) so partial data stays inspectable, but `selection` is computed over
  // the non-quarantined curves only — a lock that cannot finish every cell must never
  // win. Empty on a fully healthy sweep.
  std::vector<exec::CellFailure> failures;
  std::vector<std::string> quarantined;
  SelectionResult selection;

  bool Quarantined(const std::string& name) const;

  // The curves selection is allowed to see: every lock whose sweep finished without a
  // quarantined cell. Rankings and aggregates must use this, never `curves` directly —
  // a quarantined curve's zeroed slots would silently pollute percentiles and scores.
  std::vector<LockCurve> EligibleCurves() const;

  // Curve lookup by lock name (e.g. to report why selection.hc_best won); nullptr if
  // the name was not swept. O(1): backed by a name -> index map built once by
  // RunScriptedBenchmark (call IndexCurves() after assembling a SweepResult by hand;
  // unindexed lookups fall back to a linear scan).
  const LockCurve* Curve(const std::string& name) const;
  void IndexCurves();

 private:
  std::unordered_map<std::string, size_t> curve_index_;
};

SweepResult RunScriptedBenchmark(const SweepConfig& config);

// --- Perturbation re-ranking (docs/FAULT_INJECTION.md, docs/TIMEOUT.md) ---
//
// The throughput sweep above evaluates every lock under ideal conditions. The
// re-ranker re-evaluates the sweep's winners at one probe thread count under a matrix
// of deterministic perturbations (src/fault/scenarios.h) and ranks them by one of two
// objectives:
//  * kRetainedThroughput (clof_bench --robustness): how much throughput a winner
//    retains. A lock that wins the ideal sweep but collapses under lock-holder
//    preemption or background interference is exactly the selection mistake this
//    catches. Default scenarios: the full fault matrix.
//  * kWorstP999 (clof_bench --latency): how bad the tail gets, the question a service
//    with per-request deadlines asks. A composition can retain 90% throughput under
//    churn while its p999 explodes, and it is the p999, not the mean, that decides how
//    many requests a deadline sheds. Default scenarios: churn alone, the scenario that
//    stretches queue-lock tails hardest (abandoned positions, cold restarts).

enum class Objective {
  kRetainedThroughput,  // descending HC score x worst-case retention
  kWorstP999,           // ascending worst-case acquire p999
};

// "robustness" or "latency": the objective's clof_bench mode name.
const char* ObjectiveName(Objective objective);

// One candidate lock under one perturbation scenario, at the probe thread count.
struct PerturbedCell {
  std::string scenario;
  double throughput_per_us = 0.0;
  double retention = 0.0;        // perturbed throughput / unperturbed throughput
  double acquire_p99_ns = 0.0;   // exact nearest-rank percentiles under the perturbation
  double acquire_p999_ns = 0.0;
  int starved_threads = 0;
  // The perturbed cell never finished (deadlock / watchdog trip / exception): the lock
  // retains nothing (retention 0) and its tail is unbounded (infinite p999), the
  // strongest verdict under either objective.
  bool failed = false;
  std::string failure_kind;  // "deadlock" | "watchdog" | "exception" when failed
};

struct PerturbedLock {
  std::string name;
  double hc_score = 0.0;             // the ideal-sweep HC score
  double baseline_throughput = 0.0;  // unperturbed, at the probe thread count
  double baseline_p99_ns = 0.0;
  double baseline_p999_ns = 0.0;
  std::vector<PerturbedCell> outcomes;  // one per scenario, matrix order
  double worst_retention = 1.0;      // min retention over the matrix
  double worst_p999_ns = 0.0;        // max p999 over the matrix (infinity if any failed)
  // The objective's ranking key: hc_score x worst_retention, higher is better, for
  // kRetainedThroughput (a fragile lock keeps its throughput credit only if it
  // survives); worst_p999_ns, lower is better, for kWorstP999.
  double score = 0.0;
};

struct PerturbationConfig {
  // The base sweep (its spec.fault must be all-disabled: the sweep is the baseline).
  SweepConfig sweep;
  Objective objective = Objective::kRetainedThroughput;
  // Perturbations to apply; empty = the objective's default set, seeded from
  // sweep.spec.seed.
  std::vector<fault::Scenario> scenarios;
  // How many of the top HC-ranked locks to re-evaluate (the LC-best is always added).
  int candidates = 5;
  // Thread count the matrix runs at; 0 = the highest sweep point (most contended).
  int probe_threads = 0;
};

struct PerturbationResult {
  SweepResult sweep;                  // the unperturbed sweep + its selection
  std::vector<fault::Scenario> scenarios;
  int probe_threads = 0;
  std::vector<PerturbedLock> locks;   // candidates, best score first
  std::string best;                   // the top-ranked candidate; empty when locks is
  double best_score = 0.0;            // empty (baseline quarantined everything)
  bool winner_changed = false;        // best != sweep.selection.hc_best
  // Human-readable caveat when the candidate set is not what was asked for: the
  // requested top-K exceeded the surviving locks (clamped), or the baseline sweep
  // quarantined every lock (locks stays empty). Empty when the run was unremarkable.
  std::string note;
};

// Runs the scripted benchmark, then the perturbation matrix over its winners, and
// ranks them by `config.objective`. Cells execute on the same executor/cache machinery
// as the sweep (the FaultPlan is part of each cell's fingerprint), so runs are
// byte-identical for any `jobs` and cache-served on repetition. Deterministic: same
// config => identical result.
PerturbationResult RunPerturbationRanking(const PerturbationConfig& config);

}  // namespace clof::select

#endif  // CLOF_SRC_SELECT_SCRIPTED_BENCH_H_

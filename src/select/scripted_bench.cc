#include "src/select/scripted_bench.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "src/exec/executor.h"
#include "src/exec/fingerprint.h"
#include "src/sim/engine.h"

namespace clof::select {
namespace {

// Runs (or serves from journal/cache) one sweep cell: `lock` at `threads`, one run.
// Never throws for a cell-level failure — a deadlocked, livelocked, or otherwise
// crashed simulation comes back as a structured CellFailure so the sweep completes and
// quarantines instead of dying (the resilience contract in the header).
// The failure carries kind, message and diagnostic, as the journal keeps it; the
// sweep names the cell when it reports it.
exec::CellOutcome EvaluateCell(const SweepConfig& config, const RunSpec& spec,
                               const std::string& lock, int threads, int local_level) {
  exec::Fingerprint fp;
  if (config.cache != nullptr || config.journal != nullptr) {
    fp = exec::CellFingerprint(spec, lock, threads, config.duration_ms);
  }
  // Journal first: it also replays failures, so a resumed sweep reproduces its
  // quarantine report without re-running a cell that, say, deadlocked for minutes.
  if (config.journal != nullptr) {
    if (auto journaled = config.journal->Lookup(fp)) {
      return *journaled;
    }
  }
  exec::CellOutcome outcome;
  if (config.cache != nullptr) {
    if (auto cached = config.cache->Lookup(fp)) {
      outcome.ok = true;
      outcome.result = *cached;
      if (config.journal != nullptr) {
        config.journal->Record(fp, outcome);
      }
      return outcome;
    }
  }
  try {
    harness::BenchConfig bench;
    bench.spec = spec;
    bench.lock_name = lock;
    bench.num_threads = threads;
    bench.duration_ms = config.duration_ms;
    bench.watchdog = config.watchdog;
    auto run = harness::RunLockBench(bench);
    exec::CellResult cell;
    cell.throughput_per_us = run.throughput_per_us;
    cell.local_handover_rate = run.HandoverLocalityAt(local_level);
    cell.transfers_per_op = run.total_ops == 0
                                ? 0.0
                                : static_cast<double>(run.total_line_transfers) /
                                      static_cast<double>(run.total_ops);
    cell.acquire_p99_ns = run.acquire_p99_ns;
    cell.acquire_p999_ns = run.acquire_p999_ns;
    cell.starved_threads = static_cast<double>(run.starved_threads);
    outcome.ok = true;
    outcome.result = cell;
    if (config.cache != nullptr) {
      config.cache->Store(fp, cell);  // only successes are content-addressed
    }
  } catch (const sim::SimWatchdogError& e) {
    outcome.ok = false;
    outcome.failure = {"", 0, "watchdog", e.summary(), e.diagnostic().Format()};
  } catch (const sim::SimDeadlockError& e) {
    outcome.ok = false;
    outcome.failure = {"", 0, "deadlock", e.summary(), e.diagnostic().Format()};
  } catch (const std::exception& e) {
    outcome.ok = false;
    outcome.failure = {"", 0, "exception", e.what(), ""};
  }
  if (config.journal != nullptr) {
    config.journal->Record(fp, outcome);
  }
  return outcome;
}

}  // namespace

bool SweepResult::Quarantined(const std::string& name) const {
  return std::find(quarantined.begin(), quarantined.end(), name) != quarantined.end();
}

const LockCurve* SweepResult::Curve(const std::string& name) const {
  if (!curve_index_.empty()) {
    auto it = curve_index_.find(name);
    return it == curve_index_.end() ? nullptr : &curves[it->second];
  }
  for (const auto& curve : curves) {
    if (curve.name == name) {
      return &curve;
    }
  }
  return nullptr;
}

std::vector<LockCurve> SweepResult::EligibleCurves() const {
  std::vector<LockCurve> eligible;
  eligible.reserve(curves.size());
  for (const LockCurve& curve : curves) {
    if (!Quarantined(curve.name)) {
      eligible.push_back(curve);
    }
  }
  return eligible;
}

void SweepResult::IndexCurves() {
  curve_index_.clear();
  curve_index_.reserve(curves.size());
  for (size_t i = 0; i < curves.size(); ++i) {
    curve_index_.emplace(curves[i].name, i);
  }
}

SweepResult RunScriptedBenchmark(const SweepConfig& config) {
  config.spec.ValidateOrThrow("RunScriptedBenchmark");
  // Resolve the spec once, outside the workers: the executor fingerprints exactly this
  // value, and every cell sees the same registry pointer.
  RunSpec spec = config.spec;
  spec.registry = &config.spec.ResolveRegistry();

  SweepResult result;
  result.thread_counts =
      config.thread_counts.empty()
          ? harness::PaperThreadCounts(spec.machine->topology)
          : config.thread_counts;
  const std::vector<std::string> names =
      config.lock_names.empty()
          ? spec.registry->Names({.levels = spec.hierarchy.depth(),
                                  .generated_only = true})
          : config.lock_names;

  // Lowest hierarchy level: handovers at or below it are "local" for reporting.
  const int local_level = spec.hierarchy.valid() ? spec.hierarchy.TopologyLevel(0) : 0;

  const size_t num_locks = names.size();
  const size_t num_threads = result.thread_counts.size();
  result.curves.resize(num_locks);
  for (size_t li = 0; li < num_locks; ++li) {
    LockCurve& curve = result.curves[li];
    curve.name = names[li];
    curve.throughput.resize(num_threads);
    curve.local_handover_rate.resize(num_threads);
    curve.transfers_per_op.resize(num_threads);
    curve.acquire_p99_ns.resize(num_threads);
    curve.acquire_p999_ns.resize(num_threads);
  }

  // In-order lock-completion callbacks (the on_lock_done contract in the header):
  // whichever worker finishes a lock's last cell drains the pending callbacks that are
  // next in sweep order, under one mutex.
  std::vector<std::atomic<size_t>> cells_remaining(num_locks);
  for (auto& remaining : cells_remaining) {
    remaining.store(num_threads, std::memory_order_relaxed);
  }
  std::mutex callback_mutex;
  std::vector<char> lock_done(num_locks, 0);
  size_t next_callback = 0;
  auto deliver_in_order = [&](size_t finished_lock) {
    if (!config.on_lock_done) {
      return;
    }
    std::lock_guard<std::mutex> guard(callback_mutex);
    lock_done[finished_lock] = 1;
    while (next_callback < num_locks && lock_done[next_callback]) {
      config.on_lock_done(result.curves[next_callback],
                          static_cast<int>(next_callback) + 1,
                          static_cast<int>(num_locks));
      ++next_callback;
    }
  };

  // One task per sweep cell, lock-major so a serial run keeps the historical order.
  // Failures park in per-task slots and are assembled after the barrier, so the
  // failure report is in deterministic sweep order for any worker count.
  std::vector<std::unique_ptr<exec::CellFailure>> cell_failures(num_locks * num_threads);
  exec::Executor executor(config.jobs);
  executor.ParallelFor(num_locks * num_threads, [&](size_t task) {
    const size_t li = task / num_threads;
    const size_t ti = task % num_threads;
    exec::CellOutcome outcome = EvaluateCell(config, spec, names[li],
                                             result.thread_counts[ti], local_level);
    if (outcome.ok) {
      const exec::CellResult& cell = outcome.result;
      LockCurve& curve = result.curves[li];  // each task writes only its own slots
      curve.throughput[ti] = cell.throughput_per_us;
      curve.local_handover_rate[ti] = cell.local_handover_rate;
      curve.transfers_per_op[ti] = cell.transfers_per_op;
      curve.acquire_p99_ns[ti] = cell.acquire_p99_ns;
      curve.acquire_p999_ns[ti] = cell.acquire_p999_ns;
    } else {
      // The curve keeps its zeroed slots: partial data stays inspectable, and the
      // lock is quarantined out of selection below.
      cell_failures[task] = std::make_unique<exec::CellFailure>(outcome.failure);
      cell_failures[task]->lock_name = names[li];
      cell_failures[task]->num_threads = result.thread_counts[ti];
    }
    if (cells_remaining[li].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      deliver_in_order(li);
    }
  });

  std::vector<char> lock_failed(num_locks, 0);
  for (size_t task = 0; task < cell_failures.size(); ++task) {
    if (cell_failures[task] != nullptr) {
      lock_failed[task / num_threads] = 1;
      result.failures.push_back(std::move(*cell_failures[task]));
    }
  }
  // Selection sees only locks whose every cell finished: a lock that deadlocked or
  // tripped the watchdog anywhere must never win on its remaining (zeroed) points.
  for (size_t li = 0; li < num_locks; ++li) {
    if (lock_failed[li]) {
      result.quarantined.push_back(names[li]);
    }
  }
  std::vector<LockCurve> eligible = result.EligibleCurves();
  if (!eligible.empty()) {
    result.selection = SelectBest(eligible, result.thread_counts);
  }
  result.IndexCurves();
  return result;
}

const char* ObjectiveName(Objective objective) {
  return objective == Objective::kWorstP999 ? "latency" : "robustness";
}

PerturbationResult RunPerturbationRanking(const PerturbationConfig& config) {
  if (config.sweep.spec.fault.AnyEnabled()) {
    throw std::invalid_argument(
        "PerturbationConfig.sweep.spec.fault must be all-disabled: the sweep is the "
        "unperturbed baseline the matrix is compared against");
  }
  const uint64_t seed = config.sweep.spec.seed;
  const bool tail = config.objective == Objective::kWorstP999;
  PerturbationResult result;
  result.sweep = RunScriptedBenchmark(config.sweep);
  if (!config.scenarios.empty()) {
    result.scenarios = config.scenarios;
  } else if (tail) {
    result.scenarios.push_back({"churn", fault::PlanFromSpec("churn", seed)});
  } else {
    result.scenarios = fault::DefaultMatrix(seed);
  }
  result.probe_threads = config.probe_threads > 0 ? config.probe_threads
                                                  : result.sweep.thread_counts.back();

  // Candidate set: the top HC-ranked locks plus the LC-best — the locks the ideal
  // sweep would actually recommend — each carrying its HC score. Locks the baseline
  // sweep quarantined are excluded up front: a lock that cannot even finish the
  // unperturbed sweep has no baseline to compare against.
  std::vector<LockCurve> rankable = result.sweep.EligibleCurves();
  if (rankable.empty()) {
    // Nothing survived the baseline. Say so instead of silently returning an empty
    // ranking that downstream reports would render as a zero-candidate matrix.
    result.note = std::string("no ") + ObjectiveName(config.objective) +
                  " ranking: the baseline sweep quarantined all " +
                  std::to_string(result.sweep.curves.size()) +
                  " lock(s); see the quarantine report";
    return result;
  }
  auto ranked = Rank(rankable, result.sweep.thread_counts, Policy::kHighContention);
  const size_t requested = static_cast<size_t>(std::max(config.candidates, 1));
  const size_t top_n = std::min(requested, ranked.size());
  if (requested > ranked.size()) {
    // --robustness=K / --latency=K with K beyond the surviving locks: clamp loudly,
    // never silently re-rank a shorter set than the caller asked to audit.
    result.note = "requested top-" + std::to_string(requested) + " candidates but only " +
                  std::to_string(ranked.size()) +
                  " lock(s) survived the baseline sweep; ranking all of them";
  }
  std::vector<std::pair<std::string, double>> candidates(ranked.begin(),
                                                         ranked.begin() + top_n);
  const std::string& lc_best = result.sweep.selection.lc_best;
  if (std::none_of(candidates.begin(), candidates.end(),
                   [&](const auto& c) { return c.first == lc_best; })) {
    for (const auto& entry : ranked) {
      if (entry.first == lc_best) {
        candidates.push_back(entry);
        break;
      }
    }
  }

  // Baselines come for free when the probe point is a sweep point; otherwise one
  // extra unfaulted cell per candidate is added to the matrix.
  int probe_index = -1;
  for (size_t i = 0; i < result.sweep.thread_counts.size(); ++i) {
    if (result.sweep.thread_counts[i] == result.probe_threads) {
      probe_index = static_cast<int>(i);
      break;
    }
  }
  const bool need_baseline = probe_index < 0;

  RunSpec spec = config.sweep.spec;
  spec.registry = &config.sweep.spec.ResolveRegistry();
  const int local_level = spec.hierarchy.valid() ? spec.hierarchy.TopologyLevel(0) : 0;

  const size_t num_candidates = candidates.size();
  const size_t num_scenarios = result.scenarios.size();
  result.locks.resize(num_candidates);
  for (size_t ci = 0; ci < num_candidates; ++ci) {
    PerturbedLock& lock = result.locks[ci];
    lock.name = candidates[ci].first;
    lock.hc_score = candidates[ci].second;
    lock.outcomes.resize(num_scenarios);
    if (!need_baseline) {
      const LockCurve* curve = result.sweep.Curve(lock.name);
      const auto at = static_cast<size_t>(probe_index);
      lock.baseline_throughput = curve->throughput[at];
      lock.baseline_p99_ns = curve->acquire_p99_ns[at];
      lock.baseline_p999_ns = curve->acquire_p999_ns[at];
    }
  }

  // One task per (candidate, scenario) cell — plus the baseline cell when needed —
  // on the same executor/cache machinery as the sweep. Each task writes only its own
  // slots, so any worker count produces byte-identical results.
  const size_t cells_per_candidate = num_scenarios + (need_baseline ? 1 : 0);
  exec::Executor executor(config.sweep.jobs);
  executor.ParallelFor(num_candidates * cells_per_candidate, [&](size_t task) {
    const size_t ci = task / cells_per_candidate;
    const size_t si = task % cells_per_candidate;
    PerturbedLock& lock = result.locks[ci];
    RunSpec cell_spec = spec;
    if (si == num_scenarios) {  // the extra unfaulted baseline cell
      exec::CellOutcome cell = EvaluateCell(config.sweep, cell_spec, lock.name,
                                            result.probe_threads, local_level);
      if (cell.ok) {  // a failed baseline leaves 0.0: every retention reads as 0
        lock.baseline_throughput = cell.result.throughput_per_us;
        lock.baseline_p99_ns = cell.result.acquire_p99_ns;
        lock.baseline_p999_ns = cell.result.acquire_p999_ns;
      }
      return;
    }
    cell_spec.fault = result.scenarios[si].plan;
    exec::CellOutcome cell = EvaluateCell(config.sweep, cell_spec, lock.name,
                                          result.probe_threads, local_level);
    PerturbedCell& outcome = lock.outcomes[si];
    outcome.scenario = result.scenarios[si].name;
    if (!cell.ok) {
      // The perturbation wedged the lock outright: the verdict names the failure mode
      // instead of a throughput or a tail.
      outcome.failed = true;
      outcome.failure_kind = cell.failure.kind;
      return;
    }
    outcome.throughput_per_us = cell.result.throughput_per_us;
    outcome.acquire_p99_ns = cell.result.acquire_p99_ns;
    outcome.acquire_p999_ns = cell.result.acquire_p999_ns;
    outcome.starved_threads = static_cast<int>(cell.result.starved_threads);
  });

  // Worst cases and ranking are pure post-processing over the barrier'd cells.
  for (PerturbedLock& lock : result.locks) {
    for (PerturbedCell& outcome : lock.outcomes) {
      outcome.retention = lock.baseline_throughput > 0.0
                              ? outcome.throughput_per_us / lock.baseline_throughput
                              : 0.0;
      lock.worst_retention = std::min(lock.worst_retention, outcome.retention);
      const double p999 = outcome.failed ? std::numeric_limits<double>::infinity()
                                         : outcome.acquire_p999_ns;
      lock.worst_p999_ns = std::max(lock.worst_p999_ns, p999);
    }
    lock.score = tail ? lock.worst_p999_ns : lock.hc_score * lock.worst_retention;
  }
  std::sort(result.locks.begin(), result.locks.end(),
            [tail](const PerturbedLock& a, const PerturbedLock& b) {
              if (a.score != b.score) {
                return tail ? a.score < b.score : a.score > b.score;
              }
              return a.name < b.name;
            });
  result.best = result.locks.front().name;
  result.best_score = result.locks.front().score;
  result.winner_changed = result.best != result.sweep.selection.hc_best;
  return result;
}

}  // namespace clof::select

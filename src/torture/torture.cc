#include "src/torture/torture.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/exec/executor.h"
#include "src/harness/run_driver.h"
#include "src/harness/shared_state.h"
#include "src/mem/sim_memory.h"
#include "src/runtime/rng.h"
#include "src/sim/engine.h"

namespace clof::torture {
namespace {

constexpr int kOracleLines = 4;    // lines the non-atomic RMW oracle cycles over
constexpr int kNoiseLines = 8;     // separate pool for interference hammering: the
                                   // hammer fibers must never touch the oracle lines,
                                   // or the issued-vs-recorded sum stops being an
                                   // invariant of the lock alone
constexpr double kThinkNs = 40.0;  // think time between critical sections
constexpr double kCsGapNs = 25.0;  // widens the read..write window inside the CS

// Timed driving of abortable locks (docs/TIMEOUT.md): every kTimedEvery-th
// acquisition goes through TryAcquireFor with this budget — short enough that a
// moderately contended queue position times out, so abandons race real grants under
// every scenario. Chosen against the constants above: ~2-3 critical sections' worth.
constexpr uint64_t kTimedEvery = 3;
constexpr double kTortureTimeoutNs = 120.0;

// Everything one (lock, scenario) simulation produced, oracles not yet judged.
struct RunOutcome {
  bool completed = false;
  std::string error_kind;  // "deadlock" | "watchdog" | "harness" when !completed
  std::string error_message;
  std::string diagnostic;
  uint64_t overlaps = 0;     // CS entries observed with another thread already inside
  int max_concurrent = 1;    // peak threads inside the CS at once
  uint64_t issued = 0;       // oracle-line increments issued (see the thread loop)
  uint64_t recorded = 0;     // sum of oracle lines after the run
  double max_wait_ns = 0.0;  // longest single Acquire()/Execute() wait
  uint64_t total_ops = 0;
  int lock_levels = 1;  // from Lock::levels(); feeds the pass-budget starvation model
};

RunOutcome TortureOnce(const TortureConfig& config, const std::string& lock_name,
                       const fault::FaultPlan& plan) {
  RunOutcome out;
  harness::RunDriver driver({.caller = "RunTorture",
                             .machine = config.machine,
                             .num_threads = config.num_threads,
                             .duration_ms = config.duration_ms,
                             .seed = config.seed,
                             .fault = plan,
                             .watchdog = config.watchdog.Enabled()
                                             ? config.watchdog
                                             : DefaultTortureWatchdog(config.duration_ms)});
  const int lock =
      driver.AddLock(config.registry->Make(lock_name, config.hierarchy, config.params));
  out.lock_levels = driver.lock(lock).levels();
  // Abortable locks get timed driving on top of the untimed requests (see kTimedEvery
  // above); combining locks may run the untimed requests' critical sections on the
  // combiner's thread, so delegation itself is under the oracles.
  const bool abortable = driver.lock(lock).abortable();

  std::array<harness::PaddedLine, kOracleLines> oracle;
  std::array<harness::PaddedLine, kNoiseLines> noise;

  // Host-side oracle state: fibers run on one host thread and switch only at
  // simulated accesses, so plain variables observe every interleaving exactly.
  int in_cs = 0;

  auto thread_body = [&](int t, runtime::Xoshiro256& rng) {
    auto& eng = sim::Engine::Current();
    const sim::Time stop = driver.StopTime(t);
    uint64_t attempts = 0;
    while (eng.Now() < stop) {
      eng.Work(kThinkNs * (0.5 + rng.NextDouble()));
      const sim::Time acquire_begin = eng.Now();
      std::optional<double> budget_ns;
      if (abortable && ++attempts % kTimedEvery == 0) {
        budget_ns = kTortureTimeoutNs;
      }
      // Lost-update oracle: each critical section increments one oracle line with a
      // deliberately non-atomic read-gap-write. An untimed request picks its line and
      // counts the increment as issued when it is announced, not when it runs: a
      // combiner that acknowledges a closure without running it (the
      // mut-ccsynch-lost-closure bug) then shows up as issued > recorded. A timed
      // request does both only once it holds the lock, since a timeout issues nothing.
      mem::SimMemory::Atomic<uint64_t>* line = nullptr;
      auto issue = [&] {
        line = &oracle[rng.NextBounded(kOracleLines)].value;
        ++out.issued;
      };
      if (!budget_ns) {
        issue();
      }
      auto body = [&] {
        out.max_wait_ns = std::max(out.max_wait_ns, sim::NsFromPs(eng.Now() - acquire_begin));
        // Mutual-exclusion oracle: "inside" from here to the decrement below.
        ++in_cs;
        if (in_cs > 1) {
          ++out.overlaps;
          out.max_concurrent = std::max(out.max_concurrent, in_cs);
        }
        if (line == nullptr) {
          issue();
        }
        const uint64_t v = line->Load(std::memory_order_relaxed);
        eng.Work(kCsGapNs);
        line->Store(v + 1, std::memory_order_relaxed);
        --in_cs;
      };
      if (!driver.CriticalSection(t, lock, budget_ns, body)) {
        // Timed out: deliberately no ReportProgress — timeouts alone are not progress,
        // so a queue stranded by a buggy abandon path (mut-mcst-leak-node) still trips
        // the watchdog even while the timed threads keep cycling.
        continue;
      }
      ++out.total_ops;
      eng.ReportProgress();  // one critical section completed
    }
  };
  // Interference hammers a separate noise pool (see kNoiseLines above).
  auto hammer = [&](runtime::Xoshiro256& rng, int lines) {
    for (int b = 0; b < lines; ++b) {
      noise[rng.NextBounded(kNoiseLines)].value.FetchAdd(1, std::memory_order_relaxed);
    }
  };

  try {
    driver.Run(thread_body, hammer);
    out.completed = true;
  } catch (const sim::SimWatchdogError& error) {
    out.error_kind = "watchdog";
    out.error_message = error.summary();
    out.diagnostic = error.diagnostic().Format();
  } catch (const sim::SimDeadlockError& error) {
    out.error_kind = "deadlock";
    out.error_message = error.summary();
    out.diagnostic = error.diagnostic().Format();
  } catch (const std::exception& error) {
    out.error_kind = "harness";
    out.error_message = error.what();
  }

  for (const auto& line : oracle) {
    out.recorded += line.value.Load(std::memory_order_relaxed);
  }
  return out;
}

std::string FormatCount(uint64_t n) { return std::to_string(n); }

// Judges one run's oracles into zero or more violations, appended to `violations`.
void JudgeRun(const TortureConfig& config, const std::string& lock_name, bool lock_fair,
              const fault::Scenario& scenario, const RunOutcome& run,
              std::vector<Violation>* violations) {
  auto add = [&](const std::string& oracle, const std::string& detail,
                 const std::string& diagnostic = "") {
    violations->push_back({lock_name, scenario.name, oracle, detail, diagnostic});
  };

  if (run.overlaps > 0) {
    add("mutual-exclusion", FormatCount(run.overlaps) +
                                " critical-section entr(ies) with another thread inside"
                                " (peak " +
                                std::to_string(run.max_concurrent) + " concurrent)");
  }
  if (!run.completed) {
    if (run.error_kind == "deadlock") {
      add("deadlock", run.error_message, run.diagnostic);
    } else if (run.error_kind == "watchdog") {
      add("watchdog", run.error_message, run.diagnostic);
    } else {
      add("harness", run.error_message);
    }
    return;  // the remaining oracles need a completed run to be meaningful
  }
  if (run.recorded != run.issued) {
    add("lost-update", FormatCount(run.issued) + " increments issued but " +
                           FormatCount(run.recorded) + " recorded (" +
                           FormatCount(run.issued - run.recorded) + " lost)");
  }
  // Bounded starvation: only meaningful for locks that claim fairness, and only under
  // an unperturbed schedule — preemption and churn stall threads by design. The budget
  // models keep-local pass runs (see StarvationBudgetNs in the header): hierarchical
  // and combining locks legitimately serve up to keep_local_threshold consecutive
  // local critical sections per level before a remote waiter gets its turn. An unfair
  // lock that starves (mut-yield-turn claims fairness; a genuinely unfair TTAS does
  // not) is judged on what it registered.
  const bool starvation_applies =
      lock_fair && config.num_threads >= 2 && !scenario.plan.AnyEnabled();
  const double budget_ns = StarvationBudgetNs(config, run.lock_levels, run.total_ops);
  if (starvation_applies && run.max_wait_ns > budget_ns) {
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "longest acquire waited %.0f ns (> %.0f ns pass budget, levels=%d)",
                  run.max_wait_ns, budget_ns, run.lock_levels);
    add("starvation", detail);
  }
}

}  // namespace

double StarvationBudgetNs(const TortureConfig& config, int lock_levels,
                          uint64_t total_ops) {
  const double floor_ns = config.starvation_fraction * config.duration_ms * 1e6;
  // kAnyDepth registrations (levels < 1) and empty runs carry no pass structure to
  // model: judge them against the flat historical floor.
  const int lower_levels = lock_levels > 1 ? lock_levels - 1 : 0;
  if (lower_levels == 0 || total_ops == 0) {
    return floor_ns;
  }
  const double mean_cs_ns = config.duration_ms * 1e6 / static_cast<double>(total_ops);
  const double pass_ns =
      kStarvationPassSlack *
      (1.0 + static_cast<double>(lower_levels) *
                 static_cast<double>(config.params.keep_local_threshold)) *
      mean_cs_ns;
  return std::max(floor_ns, pass_ns);
}

sim::WatchdogConfig DefaultTortureWatchdog(double duration_ms) {
  sim::WatchdogConfig config;
  config.max_virtual_time = sim::PsFromNs(duration_ms * 1e6 * 25.0);
  config.max_accesses_without_progress = uint64_t{1} << 22;
  return config;
}

TortureReport RunTorture(const TortureConfig& config) {
  if (config.machine == nullptr) {
    throw std::invalid_argument("TortureConfig.machine is required");
  }
  if (config.registry == nullptr) {
    throw std::invalid_argument("TortureConfig.registry is required");
  }
  if (config.lock_names.empty()) {
    throw std::invalid_argument("TortureConfig.lock_names is empty");
  }
  std::vector<fault::Scenario> scenarios =
      config.scenarios.empty() ? fault::TortureMatrix(config.seed) : config.scenarios;
  // Fail fast (and outside the workers) on unknown names; also snapshots fairness.
  std::vector<bool> fair;
  fair.reserve(config.lock_names.size());
  for (const auto& name : config.lock_names) {
    fair.push_back(config.registry->Info(name).fair);
  }

  TortureReport report;
  for (const auto& scenario : scenarios) {
    report.scenario_names.push_back(scenario.name);
  }
  report.num_threads = config.num_threads;
  report.duration_ms = config.duration_ms;
  report.seed = config.seed;

  // Every (lock, scenario) run is a self-contained deterministic simulation: shard
  // them across host workers, each writing only its own slot, then judge serially in
  // deterministic lock-major order (docs/PARALLEL_SWEEP.md determinism argument). A
  // thread count or duration the run driver rejects throws out of ParallelFor.
  const size_t num_scenarios = scenarios.size();
  std::vector<RunOutcome> outcomes(config.lock_names.size() * num_scenarios);
  exec::Executor executor(config.jobs);
  executor.ParallelFor(outcomes.size(), [&](size_t i) {
    const auto& lock_name = config.lock_names[i / num_scenarios];
    const auto& scenario = scenarios[i % num_scenarios];
    outcomes[i] = TortureOnce(config, lock_name, scenario.plan);
  });

  for (size_t l = 0; l < config.lock_names.size(); ++l) {
    LockVerdict verdict;
    verdict.lock_name = config.lock_names[l];
    for (size_t s = 0; s < num_scenarios; ++s) {
      const RunOutcome& run = outcomes[l * num_scenarios + s];
      const size_t before = report.violations.size();
      JudgeRun(config, config.lock_names[l], fair[l], scenarios[s], run,
               &report.violations);
      ++verdict.runs;
      ++report.total_runs;
      if (report.violations.size() > before) {
        ++verdict.failed_runs;
      }
    }
    verdict.flagged = verdict.failed_runs > 0;
    report.verdicts.push_back(std::move(verdict));
  }
  return report;
}

bool TortureReport::Flagged(const std::string& lock_name) const {
  const LockVerdict* verdict = Verdict(lock_name);
  return verdict != nullptr && verdict->flagged;
}

const LockVerdict* TortureReport::Verdict(const std::string& lock_name) const {
  for (const auto& verdict : verdicts) {
    if (verdict.lock_name == lock_name) {
      return &verdict;
    }
  }
  return nullptr;
}

std::string FormatTortureReport(const TortureReport& report, bool verbose) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "torture: %zu lock(s) x %zu scenario(s), %d threads, %.3f ms, seed %llu\n",
                report.verdicts.size(), report.scenario_names.size(), report.num_threads,
                report.duration_ms, static_cast<unsigned long long>(report.seed));
  out += line;
  for (const auto& verdict : report.verdicts) {
    std::snprintf(line, sizeof(line), "  %-20s %s (%d/%d runs failed)\n",
                  verdict.lock_name.c_str(), verdict.flagged ? "FLAGGED" : "clean",
                  verdict.failed_runs, verdict.runs);
    out += line;
    for (const auto& violation : report.violations) {
      if (violation.lock_name != verdict.lock_name) {
        continue;
      }
      std::snprintf(line, sizeof(line), "    [%s] %s: %s\n", violation.scenario.c_str(),
                    violation.oracle.c_str(), violation.detail.c_str());
      out += line;
      if (verbose && !violation.diagnostic.empty()) {
        out += violation.diagnostic;
        if (out.back() != '\n') {
          out += '\n';
        }
      }
    }
  }
  return out;
}

}  // namespace clof::torture

// Lock torture harness (docs/TORTURE.md): runs locks under randomized, seeded
// schedules and checks *correctness* oracles instead of measuring throughput.
//
// The benchmark harness (src/harness/lock_bench.h) trusts the lock under test; this
// harness does not. Every run drives the lock from concurrent fibers under a scenario
// drawn from the fault-injection matrix (src/fault/scenarios.h) — preemption,
// heterogeneous CPU speeds, cache interference, thread churn, the combined storm, and
// the clean schedule — and judges it against four oracles:
//
//   mutual-exclusion    a host-side in-critical-section counter: any moment with two
//                       threads inside the CS is a violation (exact, no sampling —
//                       fibers interleave only at simulated accesses, so the counter
//                       observes every schedule the simulator can produce);
//   lost-update         the critical section performs a deliberately non-atomic
//                       read-modify-write over a small set of oracle lines; under a
//                       correct lock the final sum equals the increments issued;
//   deadlock / watchdog the simulator's deadlock detector and the sim::Watchdog
//                       (livelock / budget trips) — both surface with the per-thread
//                       diagnostic dump;
//   bounded-starvation  the longest single Acquire() wait must stay under
//                       StarvationBudgetNs() — a pass-budget model: hierarchical and
//                       combining locks legitimately keep the lock local for up to
//                       ClofParams.keep_local_threshold handovers per level (H-Synch's
//                       combining degree H maps to the same parameter), so the budget
//                       scales with the lock's level count and the run's mean
//                       critical-section time, floored at `starvation_fraction` of
//                       the run. Judged only for locks registered fair and only under
//                       the unperturbed scenario (every injector legitimately stalls
//                       or stretches individual waits in a short run).
//
// Runs are built on the harnesses' shared run driver (src/harness/run_driver.h), so
// every untimed critical section goes through Execute() with the oracle
// read-modify-write inside the closure, and delegation itself is under test on
// combining locks: a combiner that drops or double-runs an announced closure trips
// the lost-update oracle, and a barging combiner trips mutual exclusion.
// Abortable locks (abortable() == true, docs/TIMEOUT.md) get timed driving: every
// few acquisitions go through TryAcquireFor with a tight budget, so the abandon
// path races real grants under every scenario — a releaser that strands waiters
// behind an abandoned node, or a waiter that reports "timeout" while actually
// holding the lock, fires the deadlock/watchdog and mutual-exclusion oracles.
//
// The oracles are validated by construction: src/torture/mutants.h ships eleven locks
// with classic seeded-in bugs, one per oracle family, and tests/torture_test.cc
// asserts that the default matrix flags every mutant and passes every genuine lock.
//
// Everything is deterministic: same TortureConfig => identical TortureReport, for any
// `jobs` value (runs are self-contained simulations sharded on clof::exec).
#ifndef CLOF_SRC_TORTURE_TORTURE_H_
#define CLOF_SRC_TORTURE_TORTURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/clof/registry.h"
#include "src/fault/scenarios.h"
#include "src/sim/platform.h"
#include "src/sim/watchdog.h"
#include "src/topo/topology.h"

namespace clof::torture {

// The watchdog a torture run arms when the config leaves its own disabled: a virtual
// time budget of 25x the configured duration (a healthy run barely exceeds 1x) and a
// ~4M-access no-progress budget for livelocks that keep virtual time moving. Both are
// deterministic; the host wall-clock budget stays off.
sim::WatchdogConfig DefaultTortureWatchdog(double duration_ms);

struct TortureConfig {
  const sim::Machine* machine = nullptr;  // required
  topo::Hierarchy hierarchy;              // required (lock construction)
  const Registry* registry = nullptr;     // required (e.g. MutantRegistry(), SimRegistry)
  std::vector<std::string> lock_names;    // required, non-empty
  int num_threads = 6;                    // thread t runs on virtual CPU t
  double duration_ms = 0.1;               // virtual milliseconds per run
  uint64_t seed = 1;
  // Scenarios to run each lock under; empty = fault::TortureMatrix(seed).
  std::vector<fault::Scenario> scenarios;
  ClofParams params;
  sim::WatchdogConfig watchdog;           // !Enabled() = DefaultTortureWatchdog(duration_ms)
  int jobs = 1;                           // exec::Executor workers (0 = all host CPUs)
  // Bounded-starvation floor: the budget never drops below this fraction of the
  // run's virtual duration (see StarvationBudgetNs for the full pass-budget model).
  double starvation_fraction = 0.5;
};

// Safety slack multiplier in the pass-budget starvation model: the worst admissible
// wait is `slack * (1 + (levels - 1) * keep_local_threshold)` mean critical sections —
// one pass of keep-local handovers per lower level, doubled to absorb think-time and
// scheduling jitter around each handover.
inline constexpr double kStarvationPassSlack = 2.0;

// The bounded-starvation budget for one run: how long one Acquire() may wait before a
// fair lock is flagged. Models keep-local pass runs — a lock with L levels may
// legitimately serve up to `keep_local_threshold` consecutive local critical sections
// per lower level (CLoF trees) or combining pass (H-Synch, where H maps onto the same
// parameter) before a remote waiter gets its turn. The mean critical-section time is
// estimated from the run itself (duration / total_ops). Locks registered with
// kAnyDepth (levels < 1) and empty runs fall back to the flat floor, so the
// single-level mutants stay judged against the tight historical bound.
double StarvationBudgetNs(const TortureConfig& config, int lock_levels,
                          uint64_t total_ops);

// One oracle violation in one (lock, scenario) run.
struct Violation {
  std::string lock_name;
  std::string scenario;
  // "mutual-exclusion" | "lost-update" | "deadlock" | "watchdog" | "starvation" |
  // "harness" (the run threw something the harness does not classify).
  std::string oracle;
  std::string detail;      // deterministic one-line description with the counts
  std::string diagnostic;  // engine per-thread dump for deadlock/watchdog, else empty
};

struct LockVerdict {
  std::string lock_name;
  int runs = 0;         // scenarios executed
  int failed_runs = 0;  // scenarios with at least one violation
  bool flagged = false;
};

struct TortureReport {
  std::vector<std::string> scenario_names;  // matrix order
  int num_threads = 0;
  double duration_ms = 0.0;
  uint64_t seed = 0;
  std::vector<LockVerdict> verdicts;  // config.lock_names order
  std::vector<Violation> violations;  // lock-major, then scenario (matrix) order
  int total_runs = 0;

  bool AllClean() const { return violations.empty(); }
  bool Flagged(const std::string& lock_name) const;
  const LockVerdict* Verdict(const std::string& lock_name) const;
};

// Runs every configured lock under every scenario. Throws std::invalid_argument on an
// unusable config (missing machine/registry/locks, unknown lock name, or a thread count
// or duration the run driver rejects).
TortureReport RunTorture(const TortureConfig& config);

// Human-readable report: per-lock verdicts with per-violation detail lines; `verbose`
// appends the engine diagnostic dumps for deadlock/watchdog violations.
std::string FormatTortureReport(const TortureReport& report, bool verbose = false);

}  // namespace clof::torture

#endif  // CLOF_SRC_TORTURE_TORTURE_H_

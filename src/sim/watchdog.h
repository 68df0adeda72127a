// Runaway-simulation protection for sim::Engine (docs/TORTURE.md, docs/PARALLEL_SWEEP.md).
//
// A watchdog turns the three ways a simulated cell can fail to terminate — a livelocked
// lock composition spinning forever, a virtual clock running away, a host-time hang —
// into a structured SimWatchdogError instead of a wedged process. Three budgets, each
// optional (0 = unlimited):
//
//  * max_virtual_time              — trip when any thread's local clock passes the
//                                    budget (a cell is expected to finish near its
//                                    configured duration; 25x is already pathological);
//  * max_accesses_without_progress — livelock detector: the harness calls
//                                    Engine::ReportProgress() once per completed
//                                    application-level operation (e.g. one critical
//                                    section); if this many simulated accesses happen
//                                    with no progress report, nothing is getting done;
//  * max_wall_seconds              — host wall-clock backstop. The only
//                                    non-deterministic budget: use it in interactive
//                                    tools, not in anything that must be reproducible.
//
// The watchdog is observation-only: an armed watchdog that does not trip leaves every
// virtual-time result bit-identical to an unwatched run (tests/watchdog_test.cc), and
// with no watchdog installed the engine hot path pays one branch per access. Armed, it
// adds one 16-byte ring store and one compare to each access and one compare to each
// Engine::Work(); the budgets are evaluated only when that compare says one may be due
// (Engine::WatchdogState). In perfbench's sweep on a 4-vCPU Xeon VM that is under
// ~1.6 ns per access, too little to tell from a disarmed run (docs/SIM_ENGINE.md). A
// trip captures an EngineDiagnostic — per-thread state (parked-on line, that line's owner
// CPU, co-waiters) plus a ring of the last N accesses — formatted into the error so a
// quarantined cell's failure report says *where* every thread was stuck.
//
// Scope: the watchdog observes simulated accesses and Work(); a fiber that loops in
// pure host code without touching simulated state is outside its reach (no such code
// exists in this repository's harnesses).
#ifndef CLOF_SRC_SIM_WATCHDOG_H_
#define CLOF_SRC_SIM_WATCHDOG_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/platform.h"

namespace clof::sim {

struct WatchdogConfig {
  Time max_virtual_time = 0;                   // ps; 0 = unlimited
  uint64_t max_accesses_without_progress = 0;  // 0 = livelock detector off
  double max_wall_seconds = 0.0;               // 0 = no host wall-clock budget
  uint32_t check_interval = 256;   // accesses between virtual/wall budget polls
  uint32_t recent_ops = 32;        // depth of the last-ops ring in the diagnostic

  bool Enabled() const {
    return max_virtual_time > 0 || max_accesses_without_progress > 0 ||
           max_wall_seconds > 0.0;
  }
};

enum class ThreadState { kRunnable, kRunning, kParked, kDone };

struct ThreadDiagnostic {
  uint64_t id = 0;
  int cpu = 0;
  Time time = 0;  // local clock (ps) at capture
  ThreadState state = ThreadState::kRunnable;
  // Populated for parked threads: the line whose version change the thread is waiting
  // for, who last wrote it, and how many other threads are parked alongside it.
  // Lines are labelled by their engine-arena first-touch ordinal, not the host
  // address, so dumps from identical runs are byte-identical. Meaningful only when
  // state == kParked.
  uintptr_t parked_line = 0;
  int line_owner_cpu = -1;    // -1: the line was never written
  int line_waiters = 0;
};

// One simulated access in the watchdog's ring (oldest first in EngineDiagnostic).
struct OpRecord {
  uint64_t thread_id = 0;
  int cpu = 0;
  int kind = 0;        // sim::OpKind value
  uintptr_t line = 0;  // first-touch ordinal of the line (see ThreadDiagnostic)
  Time completion = 0;
};

struct EngineDiagnostic {
  std::string reason;  // what tripped ("deadlock", the exceeded budget, ...)
  Time now = 0;        // max thread clock at capture (ps)
  uint64_t total_accesses = 0;
  uint64_t accesses_since_progress = 0;
  std::vector<ThreadDiagnostic> threads;
  std::vector<OpRecord> recent_ops;

  // Deterministic multi-line human-readable dump (integers only: stable across hosts).
  std::string Format() const;
};

const char* ThreadStateName(ThreadState state);

// Thrown by Engine::Run() after a watchdog trip has unwound every simulated thread.
class SimWatchdogError : public std::runtime_error {
 public:
  SimWatchdogError(const std::string& summary, EngineDiagnostic diagnostic)
      : std::runtime_error(summary + "\n" + diagnostic.Format()),
        summary_(summary),
        diagnostic_(std::move(diagnostic)) {}

  // First line of what(): the tripped budget, without the per-thread dump.
  const std::string& summary() const { return summary_; }
  const EngineDiagnostic& diagnostic() const { return diagnostic_; }

 private:
  std::string summary_;
  EngineDiagnostic diagnostic_;
};

}  // namespace clof::sim

#endif  // CLOF_SRC_SIM_WATCHDOG_H_

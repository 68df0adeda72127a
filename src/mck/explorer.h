// Stateless model checker (paper §4.2's verification, reproduced for this codebase).
//
// The explorer runs the *actual* templated lock implementations (instantiated with
// mck::MckMemory) under a controlled scheduler and enumerates thread interleavings by
// depth-first search with replay, CHESS-style: every atomic access is a scheduling
// point; spin-waits block the thread until a write changes the awaited location (so
// spinloops cause no schedule explosion and spinloop termination is checked by
// construction — a blocked-forever thread is a deadlock).
//
// Checked properties:
//  * user assertions (mutual exclusion via CheckedCounter / Fail()),
//  * deadlock freedom (some thread is always runnable until all finish),
//  * spinloop termination (implied by the blocking-wait semantics plus deadlock check),
//  * bounded bypass as a fairness gauge (harness-level; see check_lock.h).
//
// The exploration is sound for sequentially consistent executions. Architectural
// weak-memory reorderings (the paper verifies those with GenMC) are outside its scope;
// see DESIGN.md for what this substitution does and does not cover.
#ifndef CLOF_SRC_MCK_EXPLORER_H_
#define CLOF_SRC_MCK_EXPLORER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/runtime/fiber.h"
#include "src/runtime/function_ref.h"

namespace clof::mck {

// Thrown by Fail() to report a property violation; it unwinds the failing thread. (An
// abandoned execution's other threads are unwound by a separate internal exception.)
class ViolationError : public std::exception {
 public:
  explicit ViolationError(std::string what) : what_(std::move(what)) {}
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  std::string what_;
};

enum class MckOpKind { kLoad, kStore, kRmw, kCmpXchg };

class Explorer {
 public:
  struct Options {
    uint64_t max_executions = 2'000'000;  // exploration budget (0 = unlimited)
    int max_steps = 20'000;               // per-execution step bound (livelock guard)
  };

  struct ThreadSpec {
    int cpu = 0;  // virtual CPU (feeds MckMemory::CpuId, i.e. CLoF cohort placement)
    std::function<void()> body;
  };

  struct Result {
    bool violation_found = false;
    std::string violation;          // first violation message
    std::vector<int> violating_schedule;  // thread ids, in execution order
    bool exhausted = true;          // false if max_executions stopped the search
    uint64_t executions = 0;
    uint64_t total_steps = 0;
  };

  Explorer();  // default options
  explicit Explorer(Options options);
  ~Explorer();

  // Explores all schedules of the program produced by `make_threads`, which is invoked
  // once per execution and must build fresh shared state captured by the thread bodies.
  Result Explore(const std::function<std::vector<ThreadSpec>()>& make_threads);

  // --- Interface for code running inside a checked thread (via MckMemory) ---
  static Explorer& Current();
  static bool InExploration();

  int CurrentTid() const;
  int CurrentCpu() const;
  int NumThreads() const;

  // Announces one atomic access; the scheduler decides when it executes. `apply` runs
  // at the linearization point and returns true if it changed the stored value. It is
  // a non-owning FunctionRef, not a std::function: the referenced callable lives in
  // the calling fiber's frame, which stays alive across the scheduling suspension, and
  // explorations announce millions of accesses — type-erasing each through an
  // allocating wrapper dominated exploration wall-clock.
  void OnAccess(uintptr_t addr, MckOpKind kind, runtime::FunctionRef<bool()> apply);

  // An explicit scheduling point with no memory effect, independent of every other
  // thread (harnesses use it to suspend inside a critical section).
  void SchedulePoint();

  // Runs `probe` right after the calling thread's next *shared* access applies, then
  // clears it. Harnesses use this to timestamp the moment a thread joins a lock's
  // contention (e.g. its ticket fetch_add linearizes) — the point from which fair locks
  // bound bypass — rather than some earlier local instant.
  void ArmArrivalProbe(std::function<void()> probe);

  // Version-checked blocking for spin loops (mirrors sim::Engine::ParkOnLine): blocks
  // until a value-changing write moves *any* of the addresses past its seen version
  // (sample the versions *before* the corresponding loads so no wakeup is lost). One
  // address serves a plain spin-wait; several serve conditions over several locations,
  // e.g. Peterson's flag+turn wait.
  uint64_t VersionOf(uintptr_t addr);
  struct AddrVersion {
    uintptr_t addr;
    uint64_t seen_version;
  };
  void ParkOnAddrs(std::initializer_list<AddrVersion> watches);

  // Records a violation and unwinds the current execution.
  [[noreturn]] void Fail(const std::string& message);

 private:
  struct ThreadState;
  struct ExecutionContext;

  // The scheduler's step: returns the next thread to resume — one that owes an eager
  // local quantum, else the choice at this node after its DPOR bookkeeping — or null
  // when the execution ends.
  // Any stack may run it: the main fiber, or the thread that has just announced an
  // operation or parked.
  ThreadState* Next();
  // Runs Next() on the calling thread's stack and resumes its choice (the main fiber
  // when the execution ends) with one direct switch, or none when the choice is the
  // caller. Returns when the caller is scheduled again, or throws when it is resumed
  // only to unwind a cancelled execution.
  void Suspend(ThreadState* self);

  Options options_;
  ExecutionContext* exec_ = nullptr;  // live only inside Explore()
};

}  // namespace clof::mck

#endif  // CLOF_SRC_MCK_EXPLORER_H_

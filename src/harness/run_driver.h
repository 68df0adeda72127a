// The run driver RunLockBench, RunServiceBench and the torture harness build on. It
// builds the engine with its event sink, watchdog and fault injector, computes each
// thread's churn stop, spawns the interference fibers, owns the locks and every lock
// context, and runs each critical section through one step.
//
// It enforces the lifetime rule of docs/SIM_ENGINE.md: nothing a simulation touched is
// freed until Engine::Run() returns. Simulated lines are host addresses, so a context
// freed mid-run and handed out again by malloc would pass its coherence state on to a
// new object, and the result would depend on what the host thread ran before.
#ifndef CLOF_SRC_HARNESS_RUN_DRIVER_H_
#define CLOF_SRC_HARNESS_RUN_DRIVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/clof/lock.h"
#include "src/fault/injector.h"
#include "src/runtime/function_ref.h"
#include "src/runtime/rng.h"
#include "src/sim/engine.h"
#include "src/sim/platform.h"

namespace clof::harness {

struct RunSetup {
  const char* caller = "run";  // names the harness in validation errors
  const sim::Machine* machine = nullptr;
  int num_threads = 1;
  std::vector<int> cpu_assignment{};  // thread t runs on cpu_assignment[t]; empty: CPU t
  double duration_ms = 1.0;           // virtual milliseconds
  uint64_t seed = 0;                  // the run seed the fault injector folds in
  fault::FaultPlan fault{};           // !AnyEnabled(): no injector, churn or interference
  trace::EventSink* trace_sink = nullptr;
  sim::WatchdogConfig watchdog{};  // armed when Enabled()
};

class RunDriver {
 public:
  // One interference burst: `lines` seeded writes to lines the harness owns.
  using Hammer = runtime::FunctionRef<void(runtime::Xoshiro256& rng, int lines)>;

  // Throws std::invalid_argument unless the run spans a positive, finite duration with
  // 1..num_cpus threads and, if given, a cpu_assignment entry for each.
  explicit RunDriver(const RunSetup& setup);

  // Takes a lock for the run and returns its id, counting from 0. Each lock outlives
  // the contexts made for it.
  int AddLock(std::unique_ptr<Lock> lock);
  Lock& lock(int id) { return *locks_[id].lock; }
  const sim::Engine& engine() const { return engine_; }
  sim::Time end() const { return end_; }
  // end(), or earlier for the seeded subset of threads the plan's churn stops.
  sim::Time StopTime(int thread) const;

  // Spawns threads 0..num_threads-1 running thread_body(t, rng), where rng is thread
  // t's own stream of the run seed, then the plan's interference fibers, which call
  // `hammer` after every gap until end(). Runs the engine and rethrows what
  // Engine::Run() throws.
  using ThreadBody = std::function<void(int thread, runtime::Xoshiro256& rng)>;
  void Run(const ThreadBody& thread_body, Hammer hammer = {});

  // One critical section of `thread` under lock `id`, on the thread's context for that
  // lock (made on first use). Given a budget, even one <= 0: TryAcquireFor, then `body`
  // and Release, or false with nothing run when the budget expired. Without one:
  // Lock::Execute, which is Acquire-body-Release unless the lock delegates `body` to
  // its current combiner (docs/COMBINING.md). Inline: it runs once per critical section.
  bool CriticalSection(int thread, int id, std::optional<double> budget_ns,
                       runtime::FunctionRef<void()> body) {
    Lock& lock = *locks_[id].lock;
    std::unique_ptr<Lock::Context>& ctx = locks_[id].contexts[thread];
    if (ctx == nullptr) {
      ctx = lock.MakeContext();
    }
    if (!budget_ns) {
      lock.Execute(*ctx, body);
      return true;
    }
    if (!lock.TryAcquireFor(*ctx, *budget_ns)) {
      return false;
    }
    body();
    lock.Release(*ctx);
    return true;
  }

 private:
  struct OwnedLock {
    std::unique_ptr<Lock> lock;
    std::vector<std::unique_ptr<Lock::Context>> contexts;  // by thread; freed first
  };

  RunSetup setup_;
  sim::Time end_ = 0;
  std::unique_ptr<fault::Injector> injector_;
  sim::Engine engine_;
  std::vector<OwnedLock> locks_;
};

}  // namespace clof::harness

#endif  // CLOF_SRC_HARNESS_RUN_DRIVER_H_

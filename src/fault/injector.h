// The engine-side half of clof::fault: an Injector turns a FaultPlan into the
// sim::FaultHook callbacks the engine consults on its hot paths (Work cost scaling for
// heterogeneous CPU speed, pre-access clock stalls for lock-holder preemption). The
// harness-side injectors (interference fibers, thread churn) live in the run driver
// (src/harness/run_driver.h) because they need the harness's threads and lines.
//
// Determinism: WorkScale is a per-CPU constant computed once from the plan seed;
// PreAccessStall draws from one private xoshiro stream per simulated thread, advanced
// only by that thread's own accesses, so the decision sequence is independent of how
// other threads interleave.
#ifndef CLOF_SRC_FAULT_INJECTOR_H_
#define CLOF_SRC_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/runtime/rng.h"
#include "src/sim/engine.h"

namespace clof::fault {

class Injector final : public sim::FaultHook {
 public:
  // `run_seed` is the RunSpec seed: repetitions of a median run (distinct seeds) see
  // distinct preemption points, while the CPU speed map stays fixed per plan.
  Injector(const FaultPlan& plan, uint64_t run_seed, int num_cpus);

  double WorkScale(int cpu) override {
    return work_scale_.empty() ? 1.0 : work_scale_[static_cast<size_t>(cpu)];
  }

  sim::Time PreAccessStall(uint64_t thread_id, int cpu, sim::Time now) override;

  const FaultPlan& plan() const { return plan_; }

 private:
  struct PreemptState {
    bool initialized = false;
    runtime::Xoshiro256 rng{0};
    sim::Time next = 0;  // next preemption point on this thread's clock
  };

  sim::Time DrawInterval(runtime::Xoshiro256& rng) const;

  FaultPlan plan_;
  uint64_t run_seed_;
  std::vector<double> work_scale_;      // empty when hetero is off
  std::vector<PreemptState> preempt_;   // indexed by engine thread id, grown on demand
};

}  // namespace clof::fault

#endif  // CLOF_SRC_FAULT_INJECTOR_H_

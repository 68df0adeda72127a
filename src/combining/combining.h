// Combining-lock subsystem wiring (docs/COMBINING.md): the type-erased adapter that
// exposes CC-Synch / H-Synch through the clof::Lock surface, and WithCombining — the
// registry augmentation that enrolls them next to the queue-lock compositions so the
// sweep, torture, robustness and site-selection machinery can rank them by name.
#ifndef CLOF_SRC_COMBINING_COMBINING_H_
#define CLOF_SRC_COMBINING_COMBINING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/clof/lock.h"
#include "src/clof/registry.h"
#include "src/combining/ccsynch.h"
#include "src/combining/hsynch.h"
#include "src/locks/traits.h"
#include "src/runtime/function_ref.h"

namespace clof::combining {

struct CombiningOptions {
  // Closures one combiner pass may execute (the combining degree H). 0 = use
  // ClofParams.keep_local_threshold at Make() time, so --H tunes queue locks and
  // combining locks uniformly — and the torture starvation budget, which models
  // keep-local pass runs from the same parameter, covers both families.
  uint32_t combine_degree = 0;
  // Hierarchy level names that each get an "hsynch-<level>" registry entry (one
  // CC-Synch publication list per cohort of that level). Empty = {"numa"}, the
  // paper's classic placement. Unknown names fail at Make() time with a clear error,
  // not at registration — the same hierarchy-agnostic contract as the baselines.
  std::vector<std::string> hsynch_levels;
  // The inter-cohort arbiter composed on top of H-Synch: "mcs" | "tkt" | "clh".
  std::string top_lock = "mcs";
};

// Stable textual identity of the options. Joins the augmented registry's description,
// so result-cache fingerprints of sweeps over different combining configurations never
// collide (the same contract as adaptive::WithAdaptive).
std::string DescribeOptions(const CombiningOptions& options);

// The registry names WithCombining(options) adds: "ccsynch" plus one
// "hsynch-<level>" per effective hsynch level.
std::vector<std::string> CombiningLockNames(const CombiningOptions& options);

// A copy of `base` with the combining locks registered (Kind::kBaseline, any depth)
// and a description suffix carrying `options`. The builtin registries stay untouched,
// so historical sweeps, caches and goldens are unaffected. Throws on an unsupported
// top_lock. `base` is only read during the call; the returned registry is independent.
Registry WithCombining(const Registry& base, const CombiningOptions& options);

// Adapts any locks::CombiningLock to the type-erased interface, overriding the
// closure path natively (PlainLock would fall back to the acquire/release shim and
// forfeit delegation). The harnesses run every untimed critical section through
// Execute, so delegation needs no opt-in.
template <class L>
  requires locks::CombiningLock<L>
class CombiningLockAdapter final : public Lock {
 public:
  template <class... Args>
  CombiningLockAdapter(std::string name, int levels, bool fair, Args&&... args)
      : name_(std::move(name)),
        levels_(levels),
        fair_(fair),
        lock_(std::forward<Args>(args)...) {}

  std::unique_ptr<Lock::Context> MakeContext() override {
    return std::make_unique<ContextImpl>();
  }

  void Acquire(Lock::Context& ctx) override {
    lock_.Acquire(static_cast<ContextImpl&>(ctx).inner);
  }

  void Release(Lock::Context& ctx) override {
    lock_.Release(static_cast<ContextImpl&>(ctx).inner);
  }

  void Execute(Lock::Context& ctx, runtime::FunctionRef<void()> fn) override {
    lock_.Execute(static_cast<ContextImpl&>(ctx).inner, fn);
  }

  const std::string& name() const override { return name_; }
  int levels() const override { return levels_; }
  bool is_fair() const override { return fair_; }

  std::vector<LevelStats> Stats() const override {
    // Map the combining counters onto the per-level schema so --stats and the sweep
    // sidecars stay meaningful: a delegated closure is a "local pass" (the CS stayed
    // with the combiner), a combiner handover is a "climb" (the role, and for H-Synch
    // the top lock, moved on).
    if constexpr (requires(const L& lock) { lock.stats(); }) {
      const auto s = lock_.stats();
      LevelStats level;
      level.acquisitions = s.inline_runs + s.delegated;
      level.inherited = s.delegated;
      level.local_passes = s.delegated;
      level.climbs = s.passes;
      return {level};
    } else {
      return {};
    }
  }

  L& inner() { return lock_; }

 private:
  struct ContextImpl final : Lock::Context {
    typename L::Context inner;
  };

  std::string name_;
  int levels_;
  bool fair_;
  L lock_;
};

}  // namespace clof::combining

#endif  // CLOF_SRC_COMBINING_COMBINING_H_

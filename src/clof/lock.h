// Type-erased lock interface.
//
// A native CLoF composition is fully static (templates all the way down); this interface
// erases the concrete tree type at the outermost boundary only, so that benchmarks and
// the scripted lock selector can iterate over hundreds of generated locks by name.
// Native users who care about the last nanosecond can use the Compose<> types directly.
// The simulated registries compose the same tree over a run-time basic-lock slot
// (clof_tree.h), one tree type per depth.
#ifndef CLOF_SRC_CLOF_LOCK_H_
#define CLOF_SRC_CLOF_LOCK_H_

#include <concepts>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/clof/clof_tree.h"
#include "src/locks/traits.h"
#include "src/runtime/function_ref.h"
#include "src/topo/topology.h"
#include "src/trace/trace.h"

namespace clof {

class Lock {
 public:
  // Per-thread acquisition state. Create one per (thread, lock) pair; never share a
  // live context between threads or concurrent acquisitions (the context invariant).
  class Context {
   public:
    virtual ~Context() = default;
  };

  virtual ~Lock() = default;

  virtual std::unique_ptr<Context> MakeContext() = 0;
  // `ctx` must have been created by this lock's MakeContext().
  virtual void Acquire(Context& ctx) = 0;
  virtual void Release(Context& ctx) = 0;

  // Closure-mode critical section (docs/COMBINING.md): runs `fn` exactly once under
  // this lock's mutual exclusion. For ordinary locks this is literally
  // Acquire-fn-Release, the same simulated access sequence, which is why the harnesses
  // run every untimed critical section through it (src/harness/run_driver.h).
  // Combining locks override it: `fn` may execute on the current combiner's thread,
  // which is the entire point of the family. `fn` must stay alive until Execute
  // returns; it is never retained.
  virtual void Execute(Context& ctx, runtime::FunctionRef<void()> fn) {
    Acquire(ctx);
    fn();
    Release(ctx);
  }

  // Bounded-wait acquisition (docs/TIMEOUT.md): true iff the lock was acquired within
  // ~timeout_ns; on false the caller holds nothing and owes no Release. Only locks with
  // abortable() == true bound the wait for real (MCS-T and its compositions, which
  // unwind partially-acquired levels). This default is the best-effort shim for
  // everything else: a timeout <= 0 fails immediately without waiting, anything else
  // degenerates to the blocking Acquire — the call succeeds, but after an unbounded
  // spin. Callers that need hard deadlines must check abortable().
  virtual bool TryAcquireFor(Context& ctx, double timeout_ns) {
    if (timeout_ns <= 0.0) {
      return false;
    }
    Acquire(ctx);
    return true;
  }

  // True when TryAcquireFor genuinely bounds the wait (every level of the composition
  // can abandon its queue position). The discriminator harnesses and the selection
  // policies key on; see locks::AbortableLock in locks/traits.h for the static shape.
  virtual bool abortable() const { return false; }

  virtual const std::string& name() const = 0;
  virtual int levels() const = 0;
  virtual bool is_fair() const = 0;

  // Per-level usage counters (lowest level first); empty for locks that do not track
  // them (the baselines). See LevelStats for collection semantics.
  virtual std::vector<LevelStats> Stats() const { return {}; }

  // Point-in-virtual-time annotations the lock recorded during the run (e.g. the
  // adaptive facade's switch events); empty for locks that record none. The harness
  // collects these into BenchResult and the Chrome export renders them as instant
  // events. Same determinism contract as Stats(): recorded host-side, never via
  // simulated accesses.
  virtual std::vector<trace::Marker> Markers() const { return {}; }

  // RAII critical section.
  class Guard {
   public:
    Guard(Lock& lock, Context& ctx) : lock_(lock), ctx_(ctx) { lock_.Acquire(ctx_); }
    ~Guard() { lock_.Release(ctx_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Lock& lock_;
    Context& ctx_;
  };
};

// Adapts a concrete composition tree (or any type with the same Context/Acquire/Release
// shape) to the type-erased interface. `level_args` go on to the tree's constructor: the
// lock kinds of a composition over the basic-lock slot (clof_tree.h).
template <class Tree>
class TreeLock final : public Lock {
 public:
  template <class... LevelArgs>
  TreeLock(std::string name, const topo::Hierarchy& hierarchy, const ClofParams& params,
           const LevelArgs&... level_args)
      : name_(std::move(name)), tree_(hierarchy, 0, params, level_args...) {}

  std::unique_ptr<Lock::Context> MakeContext() override {
    return std::make_unique<ContextImpl>();
  }

  void Acquire(Lock::Context& ctx) override {
    tree_.Acquire(static_cast<ContextImpl&>(ctx).inner);
  }

  void Release(Lock::Context& ctx) override {
    tree_.Release(static_cast<ContextImpl&>(ctx).inner);
  }

  bool TryAcquireFor(Lock::Context& ctx, double timeout_ns) override {
    if constexpr (requires(Tree& t, typename Tree::Context& c) {
                    { t.TryAcquireFor(c, 0.0) } -> std::convertible_to<bool>;
                  }) {
      return tree_.TryAcquireFor(static_cast<ContextImpl&>(ctx).inner, timeout_ns);
    } else {
      return Lock::TryAcquireFor(ctx, timeout_ns);
    }
  }

  bool abortable() const override {
    if constexpr (requires { Tree::kIsAbortable; }) {
      return Tree::kIsAbortable;
    } else {
      return false;
    }
  }

  const std::string& name() const override { return name_; }
  int levels() const override { return Tree::kLevels; }
  bool is_fair() const override { return Tree::kIsFair; }

  std::vector<LevelStats> Stats() const override {
    if constexpr (requires(const Tree& t) { t.Stats(); }) {
      return tree_.Stats();
    } else {
      return {};
    }
  }

  Tree& tree() { return tree_; }

 private:
  struct ContextImpl final : Lock::Context {
    typename Tree::Context inner;
  };

  std::string name_;
  Tree tree_;
};

// Adapts any lock with the {Context, Acquire(Context&), Release(Context&)} shape but an
// arbitrary constructor (the baselines: HMCS, CNA, ShflLock) to the erased interface.
template <class L>
class PlainLock final : public Lock {
 public:
  template <class... Args>
  PlainLock(std::string name, int levels, bool fair, Args&&... args)
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

  bool TryAcquireFor(Lock::Context& ctx, double timeout_ns) override {
    if constexpr (locks::AbortableLock<L>) {
      return lock_.TryAcquireFor(static_cast<ContextImpl&>(ctx).inner, timeout_ns);
    } else {
      return Lock::TryAcquireFor(ctx, timeout_ns);
    }
  }

  bool abortable() const override { return locks::AbortableLock<L>; }

  const std::string& name() const override { return name_; }
  int levels() const override { return levels_; }
  bool is_fair() const override { return fair_; }

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

}  // namespace clof

#endif  // CLOF_SRC_CLOF_LOCK_H_

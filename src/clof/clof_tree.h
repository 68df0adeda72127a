// The CLoF lock generator (paper §4.1): compile-time syntactic recursion that composes
// NUMA-oblivious basic locks, one per hierarchy level, into a multi-level NUMA-aware
// lock that is correct by construction.
//
// Type structure (mirroring the grammar of Figure 6):
//
//   ClofRoot<M, L>            — base case: the single system-level lock l0.
//   ClofTree<M, Low, High>    — inductive case CLoF(l, L): one `Low` instance per cohort
//                               of this tree's hierarchy level, sharing one `High` tree.
//   Compose<M, A, B, C, ...>  — convenience alias expanding to the nested type, locks
//                               listed from the lowest level to the system level.
//
// Native code and the mck explorer compose static basic locks, so each composition is
// its own type and a native lock pays no dispatch (§4.1). The simulated registries
// compose this same code over the basic-lock slot locks::AnyBasic, which picks each
// level's lock at run time from `kinds` (see src/locks/any_basic.h for why that cannot
// move a simulated result).
//
// Acquire/Release implement lockgen (Figure 8) exactly:
//
//   acquire: inc_waiters; acq(low); dec_waiters;
//            if (!has_high_lock) acq(high, high_ctx)
//   release: if (has_waiters && keep_local) { pass_high_lock; rel(low) }
//            else { clear_high_lock; rel(high, high_ctx); rel(low) }   // order matters!
//
// The release order — high before low in the climb path — is what preserves the context
// invariant (§4.1.3): the high context lives in the low lock's node metadata and is only
// ever touched by the current owner of the low lock. Releasing low first would let the
// next owner grab the context while we still use it (mck mutation tests exercise this).
//
// All composition-added accesses (waiter counter, has_high flag) use relaxed orderings;
// the paper's VSync analysis (§4.2.3) shows they need no additional barriers because the
// basic locks' own acquire/release barriers order them.
#ifndef CLOF_SRC_CLOF_CLOF_TREE_H_
#define CLOF_SRC_CLOF_CLOF_TREE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "src/locks/any_basic.h"
#include "src/locks/traits.h"
#include "src/mem/memory_policy.h"
#include "src/topo/topology.h"

namespace clof {

// Per-hierarchy-level usage counters (lowest level first). Maintained owner-side with
// plain increments (no atomics — each field is only written under the level's low
// lock), so collection is racy-but-monotonic like /proc counters: call it quiesced for
// exact numbers.
struct LevelStats {
  uint64_t acquisitions = 0;  // times a low lock of this level was acquired
  uint64_t inherited = 0;     // ...of which found the high lock already held (a pass)
  uint64_t local_passes = 0;  // releases that passed the high lock within the cohort
  uint64_t climbs = 0;        // releases that released the level above
  // ...of which had local waiters but hit the keep_local threshold H (§4.1.2). A high
  // share of threshold climbs means H caps the pass streaks; a low share means streaks
  // end because cohorts drain naturally — the signal for tuning H.
  uint64_t threshold_climbs = 0;
  // Timed acquisitions that won this level's low lock but timed out on the level above
  // and released it again (the TryAcquireFor unwind rule, docs/TIMEOUT.md). Such an
  // attempt still counts in `acquisitions`.
  uint64_t unwinds = 0;

  double LocalPassRatio() const {
    uint64_t releases = local_passes + climbs;
    return releases == 0 ? 0.0 : static_cast<double>(local_passes) / releases;
  }
};

struct ClofParams {
  // keep_local threshold H (§4.1.2): after H consecutive local handovers at a level, the
  // high lock is released to another cohort so remote cohorts cannot starve. The paper
  // follows HMCS and uses 128 per level.
  uint32_t keep_local_threshold = 128;
  // When false, the waiter-counter path (inc/dec/has_waiters) is used even for locks
  // that provide the owner-side HasWaiters hook — useful for A/B tests.
  bool use_has_waiters_hook = true;
};

namespace internal {

// The basic lock of level `depth_index`: a static basic lock is default-constructed,
// the slot locks::AnyBasic holds the lock kinds[depth_index] names (kinds lists one per
// level, lowest first).
template <class L>
L MakeLevelLock(std::span<const locks::BasicKind> kinds, int depth_index) {
  if constexpr (std::is_constructible_v<L, locks::BasicKind>) {
    if (depth_index >= static_cast<int>(kinds.size())) {
      throw std::invalid_argument("CLoF composition over the basic-lock slot needs a lock kind "
                                  "for every level");
    }
    return L(kinds[depth_index]);
  } else {
    return L();
  }
}

// A level lock's name in the paper's notation: a basic lock's kName, or the name of
// the lock a slot holds.
template <class L>
std::string LevelName(const L& lock) {
  if constexpr (requires { L::kName; }) {
    return L::kName;
  } else {
    return lock.name();
  }
}

// Per-level timeout shim shared by the composition cases: an abortable basic lock
// bounds the wait for real; for any other lock a timeout <= 0 fails without waiting
// and a positive one degenerates to the blocking Acquire (best effort, mirroring
// Lock::TryAcquireFor's default). The composition is abortable end to end — kIsAbortable
// — exactly when every level dodges this fallback.
template <class L>
bool TryLevelAcquireFor(L& lock, typename L::Context& ctx, double timeout_ns) {
  if constexpr (locks::AbortableLock<L>) {
    return lock.TryAcquireFor(ctx, timeout_ns);
  } else {
    if (timeout_ns <= 0.0) {
      return false;
    }
    lock.Acquire(ctx);
    return true;
  }
}

}  // namespace internal

// Base case: the single system-level lock.
template <class M, class L>
class ClofRoot {
 public:
  using Context = typename L::Context;
  using LowLock = L;
  static constexpr bool kIsFair = L::kIsFair;
  static constexpr int kLevels = 1;

  ClofRoot(const topo::Hierarchy& hierarchy, int depth_index, const ClofParams& params,
           std::span<const locks::BasicKind> kinds = {})
      : lock_(internal::MakeLevelLock<L>(kinds, depth_index)) {
    (void)params;
    if (depth_index != hierarchy.depth() - 1 || hierarchy.NumCohorts(depth_index) != 1) {
      throw std::invalid_argument(
          "CLoF composition depth does not match the hierarchy depth (lock '" +
          internal::LevelName(lock_) + "' vs hierarchy '" + hierarchy.Describe() + "')");
    }
  }

  void Acquire(Context& ctx) {
    lock_.Acquire(ctx);
    ++acquisitions_;
  }
  void Release(Context& ctx) { lock_.Release(ctx); }

  // Bounded-wait base case: the system-level lock's own timeout shim decides. True for
  // real when L is abortable (kIsAbortable); otherwise only a timeout <= 0 can fail.
  bool TryAcquireFor(Context& ctx, double timeout_ns) {
    if (!internal::TryLevelAcquireFor(lock_, ctx, timeout_ns)) {
      return false;
    }
    ++acquisitions_;
    return true;
  }

  static constexpr bool kIsAbortable = locks::AbortableLock<L>;

  static std::string Name() { return L::kName; }

  // Appends this level's counters (the root lock never passes or climbs).
  void CollectStats(std::vector<LevelStats>* out) const {
    LevelStats stats;
    stats.acquisitions = acquisitions_;
    out->push_back(stats);
  }

  std::vector<LevelStats> Stats() const {
    std::vector<LevelStats> out;
    CollectStats(&out);
    return out;
  }

 private:
  L lock_;
  uint64_t acquisitions_ = 0;  // owner-side, guarded by the lock itself
};

// Inductive case: CLoF(l, L) with `Low` = l protecting each cohort at this level and
// `High` = L, the composed lock of all levels above.
template <class M, class Low, class High>
  requires mem::MemoryPolicy<M>
class ClofTree {
 public:
  // A thread supplies a context only for its lowest-level lock; contexts for all higher
  // levels live inside node metadata and are handed over with lock ownership (§4.1.3).
  using Context = typename Low::Context;
  using LowLock = Low;
  using HighTree = High;
  static constexpr bool kIsFair = Low::kIsFair && High::kIsFair;
  static constexpr int kLevels = 1 + High::kLevels;
  // True when every level can abandon its queue position: TryAcquireFor then bounds the
  // whole multi-level wait (docs/TIMEOUT.md).
  static constexpr bool kIsAbortable = locks::AbortableLock<Low> && High::kIsAbortable;

  // `kinds` names each level's lock, lowest first, when the levels are basic-lock slots
  // (locks::AnyBasic); compositions of static basic locks pass none.
  ClofTree(const topo::Hierarchy& hierarchy, int depth_index, const ClofParams& params,
           std::span<const locks::BasicKind> kinds = {})
      : hierarchy_(hierarchy),
        depth_index_(depth_index),
        params_(params),
        high_(hierarchy, depth_index + 1, params, kinds) {
    int cohorts = hierarchy.NumCohorts(depth_index);
    nodes_.reserve(cohorts);
    for (int i = 0; i < cohorts; ++i) {
      nodes_.push_back(std::make_unique<Node>(kinds, depth_index));
    }
  }

  void Acquire(Context& ctx) {
    Node& node = NodeForCpu();
    if (!UseHook()) {
      node.waiters.FetchAdd(1, std::memory_order_relaxed);
    }
    node.low.Acquire(ctx);
    if (!UseHook()) {
      node.waiters.FetchAdd(static_cast<uint32_t>(-1), std::memory_order_relaxed);
    }
    ++node.stats.acquisitions;
    // has_high is protected by the low lock's release->acquire ordering.
    if (node.has_high.Load(std::memory_order_relaxed) == 0) {
      high_.Acquire(node.high_ctx);
    } else {
      ++node.stats.inherited;
    }
  }

  // Bounded-wait acquisition with the HMCS-T unwind rule (docs/TIMEOUT.md): each level
  // gets the remaining budget of one shared absolute deadline. If the low lock times
  // out, nothing is held and nothing needs undoing. If the low lock is won but the
  // level above times out, the partial acquisition is unwound: the high lock was never
  // held (has_high stays 0, so the next local owner acquires it afresh — no pass is
  // possible) and the low lock is released directly, skipping the pass/climb logic.
  bool TryAcquireFor(Context& ctx, double timeout_ns) {
    if (timeout_ns >= locks::kNoTimeoutNs) {
      Acquire(ctx);
      return true;
    }
    const double deadline_ns = M::NowNs() + timeout_ns;
    Node& node = NodeForCpu();
    if (!UseHook()) {
      node.waiters.FetchAdd(1, std::memory_order_relaxed);
    }
    const bool got_low =
        internal::TryLevelAcquireFor(node.low, ctx, deadline_ns - M::NowNs());
    if (!UseHook()) {
      node.waiters.FetchAdd(static_cast<uint32_t>(-1), std::memory_order_relaxed);
    }
    if (!got_low) {
      return false;
    }
    ++node.stats.acquisitions;
    if (node.has_high.Load(std::memory_order_relaxed) == 0) {
      if (!high_.TryAcquireFor(node.high_ctx, deadline_ns - M::NowNs())) {
        ++node.stats.unwinds;
        node.low.Release(ctx);
        return false;
      }
    } else {
      ++node.stats.inherited;
    }
    return true;
  }

  void Release(Context& ctx) {
    Node& node = NodeForCpu();
    const bool has_waiters = HasLocalWaiters(node, ctx);
    if (has_waiters && KeepLocal(node)) {
      // Pass: the high lock stays acquired and is inherited by the next local owner.
      // Only write the flag on the transition: during a passing streak it is already
      // set and a redundant store would cost an invalidation round every handover.
      if (node.has_high.Load(std::memory_order_relaxed) == 0) {
        node.has_high.Store(1, std::memory_order_relaxed);
      }
      ++node.stats.local_passes;
      if constexpr (requires { node.low.ReleaseToWaiter(ctx); }) {
        // An abortable low level can drain under a pass: every queued waiter abandoned
        // between the HasWaiters probe and the grant walk, so nobody inherited the high
        // lock — `has_high` advertises an ownership no future owner may ever claim, and
        // remote cohorts block on the high lock forever. Reclaim it (verified by the
        // mck explorer in tests/timeout_test.cc, which found exactly this deadlock).
        if (!node.low.ReleaseToWaiter(ctx)) {
          ReclaimDrainedPass(node, ctx);
        }
      } else {
        node.low.Release(ctx);
      }
    } else {
      if (has_waiters) {
        ++node.stats.threshold_climbs;  // waiters present, but H forced a climb
      }
      node.keep_local_count = 0;
      if (node.has_high.Load(std::memory_order_relaxed) != 0) {
        node.has_high.Store(0, std::memory_order_relaxed);
      }
      ++node.stats.climbs;
      high_.Release(node.high_ctx);  // must precede the low release (context invariant)
      node.low.Release(ctx);
    }
  }

  // Counters per level, lowest first (aggregated over this level's cohort nodes).
  void CollectStats(std::vector<LevelStats>* out) const {
    LevelStats total;
    for (const auto& node : nodes_) {
      total.acquisitions += node->stats.acquisitions;
      total.inherited += node->stats.inherited;
      total.local_passes += node->stats.local_passes;
      total.climbs += node->stats.climbs;
      total.threshold_climbs += node->stats.threshold_climbs;
      total.unwinds += node->stats.unwinds;
    }
    out->push_back(total);
    high_.CollectStats(out);
  }

  std::vector<LevelStats> Stats() const {
    std::vector<LevelStats> out;
    CollectStats(&out);
    return out;
  }

  static std::string Name() { return std::string(Low::kName) + "-" + High::Name(); }

 private:
  struct alignas(64) Node {
    Node(std::span<const locks::BasicKind> kinds, int depth_index)
        : low(internal::MakeLevelLock<Low>(kinds, depth_index)) {}

    Low low;
    // The composition metadata lives on its own cache line, away from the low lock
    // word: the lock word is written on every handover, while has_high only changes on
    // pass/climb *transitions* — kept separate, the flag line stays in shared state and
    // the per-CS has_high reads are cache hits instead of line transfers.
    alignas(64) typename M::template Atomic<uint32_t> waiters{0};
    typename M::template Atomic<uint32_t> has_high{0};
    uint32_t keep_local_count = 0;  // owner-only, guarded by `low`
    LevelStats stats;               // owner-only, guarded by `low`
    typename High::Context high_ctx;
  };

  static constexpr bool kLowHasHook = locks::HasWaitersHook<Low>;

  bool UseHook() const {
    if constexpr (kLowHasHook) {
      return params_.use_has_waiters_hook;
    } else {
      return false;
    }
  }

  Node& NodeForCpu() {
    return *nodes_[hierarchy_.CohortOf(M::CpuId(), depth_index_)];
  }

  bool HasLocalWaiters(Node& node, const Context& ctx) const {
    if constexpr (kLowHasHook) {
      if (params_.use_has_waiters_hook) {
        return node.low.HasWaiters(ctx);
      }
    }
    return node.waiters.Load(std::memory_order_relaxed) > 0;
  }

  bool KeepLocal(Node& node) const {
    if (++node.keep_local_count >= params_.keep_local_threshold) {
      node.keep_local_count = 0;
      return false;
    }
    return true;
  }

  // A pass that reached nobody (the abortable low queue drained to empty because every
  // queued waiter abandoned) left the high lock held with has_high set and no owner in
  // sight. `has_high` is only meaningful under the low lock, so the undo must go back
  // through it: re-acquire, and if the flag is still set nobody inherited — clear it
  // and climb-release the high lock. If a new arrival slipped in first, inheriting was
  // *correct* (the cohort genuinely held the high lock); the flag state tells us which
  // way it went, and inheritors never unwind (TryAcquireFor only tries the high level
  // when has_high is 0), so the obligation cannot leak a second time.
  void ReclaimDrainedPass(Node& node, Context& ctx) {
    node.low.Acquire(ctx);
    if (node.has_high.Load(std::memory_order_relaxed) != 0) {
      node.has_high.Store(0, std::memory_order_relaxed);
      node.keep_local_count = 0;
      ++node.stats.climbs;
      high_.Release(node.high_ctx);  // must precede the low release (context invariant)
    }
    node.low.Release(ctx);
  }

  // Owned copy (a Hierarchy is two words plus a small index vector); the referenced
  // Topology must outlive the lock.
  topo::Hierarchy hierarchy_;
  int depth_index_;
  ClofParams params_;
  std::vector<std::unique_ptr<Node>> nodes_;
  High high_;
};

namespace internal {

template <class M, class... Ls>
struct ComposeImpl;

template <class M, class L>
struct ComposeImpl<M, L> {
  using type = ClofRoot<M, L>;
};

template <class M, class L, class... Rest>
struct ComposeImpl<M, L, Rest...> {
  using type = ClofTree<M, L, typename ComposeImpl<M, Rest...>::type>;
};

}  // namespace internal

// Compose<M, CoreLock, CacheLock, ..., SystemLock>: locks listed low to high. The
// resulting type is constructed as T(hierarchy, 0, params) where hierarchy.depth()
// must equal the number of locks.
template <class M, class... Ls>
using Compose = typename internal::ComposeImpl<M, Ls...>::type;

}  // namespace clof

#endif  // CLOF_SRC_CLOF_CLOF_TREE_H_

// The model checker (§4.2): basic locks verify exhaustively at small thread counts; the
// CLoF induction step verifies with abstract (Ticket) locks; seeded bugs are caught
// (mutation testing of the checker itself); bounded bypass distinguishes fair from
// unfair locks.
#include <gtest/gtest.h>

#include <memory>

#include "src/clof/clof_tree.h"
#include "src/locks/clh.h"
#include "src/locks/hemlock.h"
#include "src/locks/mcs.h"
#include "src/locks/tas.h"
#include "src/locks/ticket.h"
#include "src/mck/check_lock.h"
#include "src/mck/explorer.h"
#include "src/mck/mck_memory.h"
#include "src/topo/topology.h"
#include "tests/mck_test_locks.h"

namespace clof::mck {
namespace {

using M = MckMemory;
using test_locks::DeadlockingLock;
using test_locks::MutexViolatingLock;

template <class L>
CheckStats CheckSimpleLock(int threads, int acquisitions) {
  CheckConfig config;
  config.threads = threads;
  config.acquisitions = acquisitions;
  return CheckLock<L>(config, [] { return std::make_shared<L>(); });
}

TEST(MckBasicLocks, TicketLockTwoThreads) {
  auto stats = CheckSimpleLock<locks::TicketLock<M>>(2, 2);
  EXPECT_FALSE(stats.result.violation_found) << stats.result.violation;
  EXPECT_TRUE(stats.result.exhausted);
  EXPECT_GT(stats.result.executions, 1u);
}

TEST(MckBasicLocks, TicketLockThreeThreads) {
  auto stats = CheckSimpleLock<locks::TicketLock<M>>(3, 1);
  EXPECT_FALSE(stats.result.violation_found) << stats.result.violation;
  EXPECT_TRUE(stats.result.exhausted);
  // Fair lock: once a thread joins the queue at most N-1 others may enter before it.
  EXPECT_LE(stats.max_bypass, 2u);
}

TEST(MckBasicLocks, McsLockTwoThreads) {
  auto stats = CheckSimpleLock<locks::McsLock<M>>(2, 2);
  EXPECT_FALSE(stats.result.violation_found) << stats.result.violation;
  EXPECT_TRUE(stats.result.exhausted);
}

TEST(MckBasicLocks, McsLockThreeThreads) {
  auto stats = CheckSimpleLock<locks::McsLock<M>>(3, 1);
  EXPECT_FALSE(stats.result.violation_found) << stats.result.violation;
  EXPECT_TRUE(stats.result.exhausted);
  EXPECT_LE(stats.max_bypass, 2u);
}

TEST(MckBasicLocks, ClhLockThreeThreads) {
  auto stats = CheckSimpleLock<locks::ClhLock<M>>(3, 1);
  EXPECT_FALSE(stats.result.violation_found) << stats.result.violation;
  EXPECT_TRUE(stats.result.exhausted);
  EXPECT_LE(stats.max_bypass, 2u);
}

TEST(MckBasicLocks, HemlockTwoThreads) {
  auto stats = CheckSimpleLock<locks::Hemlock<M, false>>(2, 2);
  EXPECT_FALSE(stats.result.violation_found) << stats.result.violation;
  EXPECT_TRUE(stats.result.exhausted);
}

TEST(MckBasicLocks, HemlockCtrTwoThreads) {
  auto stats = CheckSimpleLock<locks::Hemlock<M, true>>(2, 2);
  EXPECT_FALSE(stats.result.violation_found) << stats.result.violation;
  EXPECT_TRUE(stats.result.exhausted);
}

TEST(MckBasicLocks, TtasIsUnfair) {
  // TTAS satisfies mutual exclusion but not bounded bypass: some schedule lets one
  // thread barge past a queued waiter repeatedly (§4.2.3's fairness observation).
  // Bypass is counted from the waiter's first linearized lock access (see
  // check_lock.h), so a fair lock with N threads bounds it by N-1 regardless of how
  // many acquisitions each thread performs, while TTAS reaches the other thread's full
  // acquisition count.
  auto fair = CheckSimpleLock<locks::TicketLock<M>>(2, 3);
  auto unfair = CheckSimpleLock<locks::TtasLock<M>>(2, 3);
  EXPECT_FALSE(fair.result.violation_found) << fair.result.violation;
  EXPECT_FALSE(unfair.result.violation_found) << unfair.result.violation;
  EXPECT_LE(fair.max_bypass, 1u);   // N-1 = 1
  EXPECT_GE(unfair.max_bypass, 2u);  // barging exceeds the fair bound
}

// --- Mutation tests: the checker must catch seeded bugs (tests/mck_test_locks.h) ---

TEST(MckMutation, CatchesLostTicketUpdate) {
  // The duplicate ticket manifests as a mutual-exclusion breach in some schedules and
  // as a stranded waiter (deadlock) in others; the checker must find one of them.
  CheckConfig config;
  config.threads = 2;
  config.acquisitions = 2;
  auto stats =
      CheckLock<MutexViolatingLock>(config, [] { return std::make_shared<MutexViolatingLock>(); });
  ASSERT_TRUE(stats.result.violation_found);
  EXPECT_TRUE(stats.result.violation.find("mutual exclusion") != std::string::npos ||
              stats.result.violation.find("deadlock") != std::string::npos)
      << stats.result.violation;
}

// A "lock" that never excludes anyone: the mutex check itself must fire.
class NoExclusionLock {
 public:
  struct Context {};
  void Acquire(Context&) { turnstile_.FetchAdd(1); }
  void Release(Context&) { turnstile_.FetchAdd(1); }

 private:
  MckMemory::Atomic<uint32_t> turnstile_{0};
};

TEST(MckMutation, CatchesMutualExclusionViolation) {
  CheckConfig config;
  config.threads = 2;
  config.acquisitions = 1;
  auto stats =
      CheckLock<NoExclusionLock>(config, [] { return std::make_shared<NoExclusionLock>(); });
  ASSERT_TRUE(stats.result.violation_found);
  EXPECT_NE(stats.result.violation.find("mutual exclusion"), std::string::npos)
      << stats.result.violation;
}

TEST(MckMutation, CatchesDeadlock) {
  CheckConfig config;
  config.threads = 2;
  config.acquisitions = 2;
  auto stats =
      CheckLock<DeadlockingLock>(config, [] { return std::make_shared<DeadlockingLock>(); });
  ASSERT_TRUE(stats.result.violation_found);
  EXPECT_NE(stats.result.violation.find("deadlock"), std::string::npos);
}

// --- The CLoF induction step (§4.2.2) ---
//
// CLoF(l, L') with abstract fair locks (Ticketlock stands in, as in the paper's GenMC
// model) over a 2-cohort hierarchy: 3 threads, two sharing a cohort.

topo::Topology TinyTopo() {
  // 4 CPUs, 2 cohorts of 2.
  return topo::Topology::FromSpec("tiny:4;cohort=2");
}

TEST(MckClofInduction, TwoLevelAbstractLocks) {
  static topo::Topology topology = TinyTopo();
  static topo::Hierarchy hierarchy =
      topo::Hierarchy::Select(topology, {"cohort", "system"});
  using Tree = Compose<M, locks::TicketLock<M>, locks::TicketLock<M>>;
  CheckConfig config;
  config.threads = 3;
  config.acquisitions = 1;
  config.cpus = {0, 1, 2};  // threads 0,1 share a cohort; thread 2 is remote
  auto stats = CheckLock<Tree>(config, [] {
    ClofParams params;
    params.keep_local_threshold = 2;  // exercise both the pass and the release paths
    return std::make_shared<Tree>(hierarchy, 0, params);
  });
  EXPECT_FALSE(stats.result.violation_found) << stats.result.violation;
  EXPECT_TRUE(stats.result.exhausted);
}

TEST(MckClofInduction, TwoLevelWithRepeatedAcquisitions) {
  static topo::Topology topology = TinyTopo();
  static topo::Hierarchy hierarchy =
      topo::Hierarchy::Select(topology, {"cohort", "system"});
  using Tree = Compose<M, locks::TicketLock<M>, locks::TicketLock<M>>;
  CheckConfig config;
  config.threads = 2;
  config.acquisitions = 2;
  config.cpus = {0, 1};  // same cohort: exercises pass_high_lock/has_high_lock heavily
  auto stats = CheckLock<Tree>(config, [] {
    ClofParams params;
    params.keep_local_threshold = 2;
    return std::make_shared<Tree>(hierarchy, 0, params);
  });
  EXPECT_FALSE(stats.result.violation_found) << stats.result.violation;
  EXPECT_TRUE(stats.result.exhausted);
}

// The context-invariant mutation (§4.1.3): releasing low *before* high lets the next
// owner reuse the high context concurrently. With lockgen's order this cannot happen;
// with the inverted order the checker finds a violation (deadlock or mutex breach).
template <class Low, class High>
class InvertedReleaseTree {
 public:
  using LowContext = typename Low::Context;
  struct Context {
    LowContext low;
  };
  InvertedReleaseTree(const topo::Hierarchy& hierarchy, const ClofParams& params)
      : hierarchy_(hierarchy), params_(params) {
    for (int i = 0; i < hierarchy_.NumCohorts(0); ++i) {
      nodes_.push_back(std::make_unique<Node>());
    }
  }
  void Acquire(Context& ctx) {
    Node& node = NodeFor();
    node.waiters.FetchAdd(1);
    node.low.Acquire(ctx.low);
    node.waiters.FetchAdd(static_cast<uint32_t>(-1));
    if (node.has_high.Load() == 0) {
      high_.Acquire(node.high_ctx);
    }
  }
  void Release(Context& ctx) {
    Node& node = NodeFor();
    bool waiters = node.waiters.Load() > 0;
    if (waiters && ++node.count < params_.keep_local_threshold) {
      node.has_high.Store(1);
      node.low.Release(ctx.low);
    } else {
      node.count = 0;
      node.has_high.Store(0);
      node.low.Release(ctx.low);   // BUG: low released first...
      high_.Release(node.high_ctx);  // ...while the next owner may use high_ctx
    }
  }

 private:
  struct Node {
    Low low;
    MckMemory::Atomic<uint32_t> waiters{0};
    MckMemory::Atomic<uint32_t> has_high{0};
    uint32_t count = 0;
    typename High::Context high_ctx;
  };
  Node& NodeFor() { return *nodes_[hierarchy_.CohortOf(MckMemory::CpuId(), 0)]; }

  topo::Hierarchy hierarchy_;
  ClofParams params_;
  std::vector<std::unique_ptr<Node>> nodes_;
  High high_;
};

TEST(MckMutation, InvertedReleaseOrderViolatesContextInvariant) {
  static topo::Topology topology = TinyTopo();
  static topo::Hierarchy hierarchy =
      topo::Hierarchy::Select(topology, {"cohort", "system"});
  // MCS as the high lock: concurrent reuse of its context corrupts the queue, which
  // manifests as deadlock or mutual-exclusion violation.
  // Two threads in the same cohort suffice: while T1 runs the (inverted) climb release,
  // T2 acquires the low lock and re-uses the same high context concurrently; one
  // interleaving loses T2's MCS enqueue against T1's tail CAS and deadlocks.
  using Bad = InvertedReleaseTree<locks::TicketLock<M>, locks::McsLock<M>>;
  CheckConfig config;
  config.threads = 2;
  config.acquisitions = 2;
  config.cpus = {0, 1};
  config.options.max_executions = 5'000'000;
  auto stats = CheckLock<Bad>(config, [] {
    ClofParams params;
    params.keep_local_threshold = 1;  // force the climb path every time
    return std::make_shared<Bad>(hierarchy, params);
  });
  EXPECT_TRUE(stats.result.violation_found)
      << "expected the inverted release order to be caught";
}

// Control: the exact mirror of the mutation test's configuration, but with lockgen's
// correct release order — verifies clean where the inverted order deadlocks.
TEST(MckClofInduction, CorrectReleaseOrderWithMcsHighLock) {
  static topo::Topology topology = TinyTopo();
  static topo::Hierarchy hierarchy =
      topo::Hierarchy::Select(topology, {"cohort", "system"});
  using Tree = Compose<M, locks::TicketLock<M>, locks::McsLock<M>>;
  CheckConfig config;
  config.threads = 2;
  config.acquisitions = 2;
  config.cpus = {0, 1};
  auto stats = CheckLock<Tree>(config, [] {
    ClofParams params;
    params.keep_local_threshold = 1;
    return std::make_shared<Tree>(hierarchy, 0, params);
  });
  EXPECT_FALSE(stats.result.violation_found) << stats.result.violation;
  EXPECT_TRUE(stats.result.exhausted);
}

}  // namespace
}  // namespace clof::mck

// Zero heap allocations per steady-state model-checker execution.
//
// The explorer promises that exploration cost is schedule enumeration, not allocator
// churn: fibers and ThreadStates are recycled, the per-address index is emptied slot by
// slot and its dense records are reset in place, the vector clocks are reassigned into
// their existing buffers, and re-arming a fiber captures a single pointer so
// std::function stays in its inline storage. Once the first few executions have grown
// every pool to the program's footprint, the only allocations per execution are the
// ones the harness's own make_threads callback performs while building fresh shared
// state — explorer bookkeeping contributes exactly zero.
//
// Verified with a counting replacement of the global operator new/delete set: the
// callback snapshots the allocation counter on entry to every execution, the same
// callback is also run once standalone to measure its own deterministic allocation
// count, and the steady-state per-execution deltas must equal that count exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/mck/explorer.h"
#include "src/mck/mck_memory.h"

namespace {
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, size) == 0) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

// Replace the whole replaceable set so every allocation in the binary is counted.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace clof::mck {
namespace {

// Three threads, three dependent fetch-adds each, all on one shared counter: every
// pair of operations conflicts, so DPOR explores many hundreds of schedules, and every
// execution has the identical step count (no parking, no early exits) — which keeps
// the history vectors' high-water marks constant and makes the steady-state
// per-execution allocation delta exact rather than probabilistic.
struct Shared {
  MckMemory::Atomic<int> counter{0};
};

std::vector<Explorer::ThreadSpec> MakeThreads() {
  auto shared = std::make_shared<Shared>();
  std::vector<Explorer::ThreadSpec> specs;
  for (int t = 0; t < 3; ++t) {
    specs.push_back({t, [shared] {
                       for (int i = 0; i < 3; ++i) {
                         shared->counter.FetchAdd(1);
                       }
                     }});
  }
  return specs;
}

TEST(MckAllocTest, SteadyStateExecutionsAllocateOnlyTheHarnessSpecs) {
  // Measure the callback's own deterministic allocation count (spec vector, closure
  // targets, the shared state itself) outside any exploration.
  const uint64_t before_probe = g_allocations.load(std::memory_order_relaxed);
  {
    auto probe = MakeThreads();
  }
  const uint64_t spec_allocations =
      g_allocations.load(std::memory_order_relaxed) - before_probe;
  ASSERT_GT(spec_allocations, 0u);  // sanity: the probe really built fresh state

  constexpr size_t kMaxExecutions = 256;
  std::vector<uint64_t> counter_at_entry;
  counter_at_entry.reserve(kMaxExecutions + 1);

  Explorer::Options options;
  options.max_executions = kMaxExecutions;
  Explorer explorer(options);
  Explorer::Result result = explorer.Explore([&] {
    counter_at_entry.push_back(g_allocations.load(std::memory_order_relaxed));
    return MakeThreads();
  });

  EXPECT_FALSE(result.violation_found) << result.violation;
  ASSERT_GE(result.executions, 64u) << "program too small to reach steady state";
  ASSERT_EQ(counter_at_entry.size(), result.executions);

  // Deltas between consecutive execution entries cover: building execution i's specs,
  // running it, and backtracking. After a warmup that grows the pools and tables,
  // every delta must equal the callback's own allocation count — i.e. the explorer
  // itself allocated nothing.
  const size_t warmup = 8;
  for (size_t i = warmup; i + 1 < counter_at_entry.size(); ++i) {
    EXPECT_EQ(counter_at_entry[i + 1] - counter_at_entry[i], spec_allocations)
        << "execution " << i << " allocated beyond its own spec construction";
  }
}

// The recycling must not leak state between executions: a violation seeded by
// cross-execution contamination (stale parked flags, stale DPOR records) would show
// up as either a bogus deadlock or a wrong exploration count. Mutual exclusion via a
// CAS lock gives the explorer parking and cancellation paths to exercise while the
// assertion checks the exploration still verifies the property.
TEST(MckAllocTest, RecycledPoolsPreserveExplorationSoundness) {
  struct LockShared {
    MckMemory::Atomic<int> lock{0};
    int owners = 0;
    bool collided = false;
  };
  Explorer::Options options;
  options.max_executions = 50'000;
  Explorer explorer(options);
  Explorer::Result result = explorer.Explore([] {
    auto shared = std::make_shared<LockShared>();
    std::vector<Explorer::ThreadSpec> specs;
    for (int t = 0; t < 2; ++t) {
      specs.push_back({t, [shared] {
                         for (int round = 0; round < 2; ++round) {
                           int expected = 0;
                           while (!shared->lock.CompareExchange(expected, 1)) {
                             expected = 0;
                             MckMemory::SpinUntil(shared->lock,
                                                  [](int v) { return v == 0; });
                           }
                           if (++shared->owners != 1) {
                             shared->collided = true;
                             Explorer::Current().Fail("mutual exclusion violated");
                           }
                           --shared->owners;
                           shared->lock.Store(0);
                         }
                       }});
    }
    return specs;
  });
  EXPECT_FALSE(result.violation_found) << result.violation;
  EXPECT_TRUE(result.exhausted);
  EXPECT_GT(result.executions, 1u);
}

}  // namespace
}  // namespace clof::mck

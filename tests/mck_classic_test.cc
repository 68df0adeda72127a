// Classic textbook mutual-exclusion algorithms under the model checker. Peterson's and
// Dekker's algorithms are only correct under sequential consistency — precisely the
// memory model the explorer enumerates — so they make good positive controls, and their
// broken variants good negative ones. Peterson's wait condition spans two locations,
// exercising the multi-address park primitive.
#include <gtest/gtest.h>

#include <memory>

#include "src/mck/check_lock.h"
#include "src/mck/explorer.h"
#include "src/mck/mck_memory.h"
#include "tests/mck_test_locks.h"

namespace clof::mck {
namespace {

using test_locks::PetersonLock;

TEST(MckClassic, PetersonVerifiesUnderSc) {
  CheckConfig config;
  config.threads = 2;
  config.acquisitions = 2;
  config.cpus = {0, 1};
  auto stats =
      CheckLock<PetersonLock>(config, [] { return std::make_shared<PetersonLock>(); });
  EXPECT_FALSE(stats.result.violation_found) << stats.result.violation;
  EXPECT_TRUE(stats.result.exhausted);
}

// Broken Peterson: the turn handover is missing. Two threads can pass the gate
// together (mutual exclusion) or block each other forever (deadlock).
class PetersonNoTurnLock {
 public:
  struct Context {};

  void Acquire(Context&) {
    int self = MckMemory::CpuId();
    int other = 1 - self;
    flag_[self].Store(1);
    // BUG: no turn_ write.
    for (;;) {
      auto& explorer = Explorer::Current();
      uint64_t flag_version = explorer.VersionOf(flag_[other].Addr());
      uint64_t turn_version = explorer.VersionOf(turn_.Addr());
      if (flag_[other].Load() == 0) {
        return;
      }
      if (turn_.Load() != static_cast<uint32_t>(other)) {
        return;
      }
      explorer.ParkOnAddrs({{flag_[other].Addr(), flag_version},
                            {turn_.Addr(), turn_version}});
    }
  }

  void Release(Context&) { flag_[MckMemory::CpuId()].Store(0); }

 private:
  MckMemory::Atomic<uint32_t> flag_[2];
  MckMemory::Atomic<uint32_t> turn_{0};
};

TEST(MckClassic, PetersonWithoutTurnWriteIsBroken) {
  CheckConfig config;
  config.threads = 2;
  config.acquisitions = 1;
  config.cpus = {0, 1};
  auto stats = CheckLock<PetersonNoTurnLock>(
      config, [] { return std::make_shared<PetersonNoTurnLock>(); });
  ASSERT_TRUE(stats.result.violation_found);
  EXPECT_NE(stats.result.violation.find("mutual exclusion"), std::string::npos)
      << stats.result.violation;
}

// Dekker's algorithm: single-location waits throughout (the inner wait watches turn,
// which Release writes before clearing the flag, so park-wakeups chain correctly).
class DekkerLock {
 public:
  struct Context {};

  void Acquire(Context&) {
    int self = MckMemory::CpuId();
    int other = 1 - self;
    flag_[self].Store(1);
    for (;;) {
      if (flag_[other].Load() == 0) {
        return;  // other does not want in: we hold the lock
      }
      if (turn_.Load() == static_cast<uint32_t>(other)) {
        flag_[self].Store(0);  // back off while it is the other's turn
        MckMemory::SpinUntil(turn_, [other](uint32_t t) {
          return t != static_cast<uint32_t>(other);
        });
        flag_[self].Store(1);
      } else {
        // Our turn: wait for the other to retreat.
        MckMemory::SpinUntil(flag_[other], [](uint32_t f) { return f == 0; });
      }
    }
  }

  void Release(Context&) {
    int self = MckMemory::CpuId();
    turn_.Store(static_cast<uint32_t>(1 - self));
    flag_[self].Store(0);
  }

 private:
  MckMemory::Atomic<uint32_t> flag_[2];
  MckMemory::Atomic<uint32_t> turn_{0};
};

TEST(MckClassic, DekkerVerifiesUnderSc) {
  // One acquisition each: Dekker's retreat dance (flag down, wait, flag up) multiplies
  // conflicting stores, so repeated acquisitions blow past any practical budget — the
  // same super-exponential wall mck_scaling documents.
  CheckConfig config;
  config.threads = 2;
  config.acquisitions = 1;
  config.cpus = {0, 1};
  config.options.max_executions = 8'000'000;
  auto stats =
      CheckLock<DekkerLock>(config, [] { return std::make_shared<DekkerLock>(); });
  EXPECT_FALSE(stats.result.violation_found) << stats.result.violation;
  EXPECT_TRUE(stats.result.exhausted);
}

// Dekker with the flag announcement after the check — wrong even under SC.
class DekkerLateFlagLock {
 public:
  struct Context {};

  void Acquire(Context&) {
    int self = MckMemory::CpuId();
    int other = 1 - self;
    if (flag_[other].Load() == 0) {  // BUG: checks before announcing itself
      flag_[self].Store(1);
      return;
    }
    flag_[self].Store(1);
    MckMemory::SpinUntil(flag_[other], [](uint32_t f) { return f == 0; });
  }

  void Release(Context&) { flag_[MckMemory::CpuId()].Store(0); }

 private:
  MckMemory::Atomic<uint32_t> flag_[2];
};

TEST(MckClassic, DekkerWithLateFlagIsBroken) {
  CheckConfig config;
  config.threads = 2;
  config.acquisitions = 1;
  config.cpus = {0, 1};
  auto stats = CheckLock<DekkerLateFlagLock>(
      config, [] { return std::make_shared<DekkerLateFlagLock>(); });
  ASSERT_TRUE(stats.result.violation_found);
  EXPECT_NE(stats.result.violation.find("mutual exclusion"), std::string::npos)
      << stats.result.violation;
}

TEST(MckClassic, MultiAddressParkDoesNotMissWakes) {
  // A consumer waits for either of two producers' flags via ParkOnAddrs; both schedules
  // (producer A first / producer B first) must complete without a false deadlock.
  Explorer explorer;
  auto result = explorer.Explore([&] {
    auto a = std::make_shared<MckMemory::Atomic<uint32_t>>(0u);
    auto b = std::make_shared<MckMemory::Atomic<uint32_t>>(0u);
    std::vector<Explorer::ThreadSpec> specs;
    specs.push_back({0, [a, b] {
                       for (;;) {
                         auto& ex = Explorer::Current();
                         uint64_t va = ex.VersionOf(a->Addr());
                         uint64_t vb = ex.VersionOf(b->Addr());
                         if (a->Load() != 0 || b->Load() != 0) {
                           return;
                         }
                         ex.ParkOnAddrs({{a->Addr(), va}, {b->Addr(), vb}});
                       }
                     }});
    specs.push_back({1, [a] { a->Store(1); }});
    specs.push_back({2, [b] { b->Store(1); }});
    return specs;
  });
  EXPECT_FALSE(result.violation_found) << result.violation;
  EXPECT_TRUE(result.exhausted);
}

}  // namespace
}  // namespace clof::mck

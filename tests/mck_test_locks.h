// Small locks shared by the model-checker tests: Peterson's algorithm, whose wait
// parks on two addresses at once, and two seeded-bug mutants of a ticket lock.
#ifndef CLOF_TESTS_MCK_TEST_LOCKS_H_
#define CLOF_TESTS_MCK_TEST_LOCKS_H_

#include <cstdint>

#include "src/mck/explorer.h"
#include "src/mck/mck_memory.h"

namespace clof::mck::test_locks {

// Peterson's 2-thread lock. Thread identity comes from the checker's CpuId. The wait
// "while (flag[other] && turn == other)" watches two locations: versions are sampled
// *before* the loads, so ParkOnAddrs cannot miss a wake.
class PetersonLock {
 public:
  struct Context {};

  void Acquire(Context&) {
    int self = MckMemory::CpuId();
    int other = 1 - self;
    flag_[self].Store(1);
    turn_.Store(static_cast<uint32_t>(other));
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

// The ticket take is a non-atomic load+store: two threads can obtain the same ticket
// and enter together — a classic lost-update bug.
class MutexViolatingLock {
 public:
  struct Context {};
  void Acquire(Context&) {
    uint32_t me = ticket_.Load();       // BUG: load+store instead of fetch_add
    ticket_.Store(me + 1);
    MckMemory::SpinUntil(grant_, [me](uint32_t g) { return g == me; });
  }
  void Release(Context&) { grant_.FetchAdd(1); }

 private:
  MckMemory::Atomic<uint32_t> ticket_{0};
  MckMemory::Atomic<uint32_t> grant_{0};
};

// Release forgets to grant the next ticket on one path: a waiter hangs forever.
class DeadlockingLock {
 public:
  struct Context {};
  void Acquire(Context&) {
    uint32_t me = ticket_.FetchAdd(1);
    MckMemory::SpinUntil(grant_, [me](uint32_t g) { return g == me; });
  }
  void Release(Context&) {
    if (grant_.Load() == 0) {
      grant_.FetchAdd(1);
    }
    // BUG: releases after the first handover do nothing.
  }

 private:
  MckMemory::Atomic<uint32_t> ticket_{0};
  MckMemory::Atomic<uint32_t> grant_{0};
};

}  // namespace clof::mck::test_locks

#endif  // CLOF_TESTS_MCK_TEST_LOCKS_H_

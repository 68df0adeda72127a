// Tests for sim::Watchdog (src/sim/watchdog.h): budget trips, livelock detection,
// the enriched deadlock diagnostic, abort unwinding, trip dumps pinned byte for byte,
// and the observation-only guarantee (an armed-but-untripped run is byte-identical to
// an unwatched one).
#include "src/sim/watchdog.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/exec/fingerprint.h"
#include "src/harness/lock_bench.h"
#include "src/mem/sim_memory.h"
#include "src/sim/engine.h"
#include "src/topo/topology.h"

namespace clof::sim {
namespace {

using AtomicU64 = mem::SimMemory::Atomic<uint64_t>;

struct alignas(64) PaddedAtomic {
  AtomicU64 value{0};
};

// Counts the fibers whose stacks were unwound (run on scope exit, abort included).
struct CountOnExit {
  int* counter;
  ~CountOnExit() { ++*counter; }
};

TEST(WatchdogConfigTest, DefaultIsDisabled) {
  WatchdogConfig config;
  EXPECT_FALSE(config.Enabled());
  config.max_accesses_without_progress = 1;
  EXPECT_TRUE(config.Enabled());
}

TEST(WatchdogTest, DeadlockDiagnosticNamesTheBlockedLine) {
  Machine m = Machine::PaperX86();
  Engine engine(m.topology, m.platform);
  auto flag = std::make_unique<PaddedAtomic>();
  for (int t = 0; t < 2; ++t) {
    engine.Spawn(t, [&] {
      mem::SimMemory::SpinUntil(flag->value, [](uint64_t v) { return v == 1; });
    });
  }
  try {
    engine.Run();
    FAIL() << "expected SimDeadlockError";
  } catch (const SimDeadlockError& error) {
    EXPECT_NE(error.summary().find("deadlock"), std::string::npos);
    const EngineDiagnostic& diagnostic = error.diagnostic();
    EXPECT_EQ(diagnostic.reason, "deadlock");
    ASSERT_EQ(diagnostic.threads.size(), 2u);
    int parked = 0;
    for (const auto& thread : diagnostic.threads) {
      if (thread.state == ThreadState::kParked) {
        ++parked;
        // The blocked line resolves to a valid arena ordinal; both threads are
        // parked on the same never-written flag line (owner -1, 2 waiters).
        EXPECT_NE(thread.parked_line, 0xffffffffu);
        EXPECT_EQ(thread.line_owner_cpu, -1);
        EXPECT_EQ(thread.line_waiters, 2);
      }
    }
    EXPECT_EQ(parked, 2);
    // The formatted dump names the blocked line and the co-waiter count, and the
    // what() string carries the dump so uncaught failures are still actionable.
    EXPECT_NE(diagnostic.Format().find("blocked on line"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("blocked on line"), std::string::npos);
  }
}

TEST(WatchdogTest, DeadlockUnwindsParkedFibersWithoutAnotherAccess) {
  // A deadlocked run must not leak what its parked fibers own (a lock context, say):
  // Run() unwinds every parked stack before it throws, and the drain issues no
  // simulated access, so the diagnostic still describes the final state.
  Machine m = Machine::PaperX86();
  Engine engine(m.topology, m.platform);
  auto flag = std::make_unique<PaddedAtomic>();
  int unwound = 0;
  for (int t = 0; t < 3; ++t) {
    engine.Spawn(t, [&] {
      CountOnExit guard{&unwound};
      mem::SimMemory::SpinUntil(flag->value, [](uint64_t v) { return v == 1; });
    });
  }
  uint64_t accesses_at_deadlock = 0;
  try {
    engine.Run();
    FAIL() << "expected SimDeadlockError";
  } catch (const SimDeadlockError& error) {
    EXPECT_EQ(error.summary(), "simulation deadlock: 3 thread(s) parked forever");
    accesses_at_deadlock = error.diagnostic().total_accesses;
  }
  EXPECT_EQ(unwound, 3);
  EXPECT_EQ(engine.total_accesses(), accesses_at_deadlock);
}

TEST(WatchdogTest, VirtualTimeBudgetTrips) {
  Machine m = Machine::PaperX86();
  Engine engine(m.topology, m.platform);
  WatchdogConfig config;
  config.max_virtual_time = PsFromNs(10'000.0);  // 10 us budget
  engine.SetWatchdog(config);
  engine.Spawn(0, [] {
    for (;;) {
      Engine::Current().Work(500.0);
    }
  });
  try {
    engine.Run();
    FAIL() << "expected SimWatchdogError";
  } catch (const SimWatchdogError& error) {
    EXPECT_NE(error.diagnostic().reason.find("virtual"), std::string::npos);
    EXPECT_FALSE(error.diagnostic().threads.empty());
  }
}

TEST(WatchdogTest, NoProgressBudgetCatchesAccessLivelock) {
  Machine m = Machine::PaperX86();
  Engine engine(m.topology, m.platform);
  WatchdogConfig config;
  config.max_accesses_without_progress = 1000;
  engine.SetWatchdog(config);
  auto flag = std::make_unique<PaddedAtomic>();
  engine.Spawn(0, [&] {
    // Polling loop (never parks): only the no-progress detector can catch this.
    while (flag->value.Exchange(1) != 0) {
    }
  });
  engine.Spawn(1, [&] {
    for (;;) {
      (void)flag->value.Exchange(1);
    }
  });
  try {
    engine.Run();
    FAIL() << "expected SimWatchdogError";
  } catch (const SimWatchdogError& error) {
    EXPECT_NE(error.diagnostic().reason.find("progress"), std::string::npos);
    EXPECT_FALSE(error.diagnostic().recent_ops.empty());
  }
}

TEST(WatchdogTest, ReportProgressResetsTheBudget) {
  Machine m = Machine::PaperX86();
  Engine engine(m.topology, m.platform);
  WatchdogConfig config;
  config.max_accesses_without_progress = 100;
  engine.SetWatchdog(config);
  auto line = std::make_unique<PaddedAtomic>();
  engine.Spawn(0, [&] {
    // 50 x 80 = 4000 accesses >> budget, but progress is reported every 80.
    for (int i = 0; i < 50; ++i) {
      for (int j = 0; j < 80; ++j) {
        (void)line->value.FetchAdd(1);
      }
      Engine::Current().ReportProgress();
    }
  });
  EXPECT_NO_THROW(engine.Run());
  EXPECT_EQ(line->value.Load(), 4000u);
}

TEST(WatchdogTest, WallClockBudgetTrips) {
  Machine m = Machine::PaperX86();
  Engine engine(m.topology, m.platform);
  WatchdogConfig config;
  config.max_wall_seconds = 1e-9;  // trips at the first periodic check
  config.check_interval = 16;
  engine.SetWatchdog(config);
  auto line = std::make_unique<PaddedAtomic>();
  engine.Spawn(0, [&] {
    for (;;) {
      (void)line->value.FetchAdd(1);
    }
  });
  try {
    engine.Run();
    FAIL() << "expected SimWatchdogError";
  } catch (const SimWatchdogError& error) {
    // The message names the budget (deterministic), not the elapsed time (not).
    EXPECT_NE(error.diagnostic().reason.find("wall"), std::string::npos);
  }
}

TEST(WatchdogTest, TripUnwindsParkedThreads) {
  // One livelocked poller plus two parked waiters: the trip must drain the parked
  // fibers (running their cleanup) instead of abandoning them mid-park.
  Machine m = Machine::PaperX86();
  Engine engine(m.topology, m.platform);
  WatchdogConfig config;
  config.max_accesses_without_progress = 500;
  engine.SetWatchdog(config);
  auto flag = std::make_unique<PaddedAtomic>();
  auto never = std::make_unique<PaddedAtomic>();
  int unwound = 0;
  for (int t = 0; t < 2; ++t) {
    engine.Spawn(t, [&] {
      CountOnExit guard{&unwound};
      mem::SimMemory::SpinUntil(never->value, [](uint64_t v) { return v == 1; });
    });
  }
  engine.Spawn(2, [&] {
    CountOnExit guard{&unwound};
    for (;;) {
      (void)flag->value.Exchange(1);
    }
  });
  EXPECT_THROW(engine.Run(), SimWatchdogError);
  EXPECT_EQ(unwound, 3);  // every fiber's stack was unwound, parked ones included
}

TEST(WatchdogTest, TripDrainsRunnableThreadsWithOneAccessEach) {
  // A trip unwinds runnable threads, not just parked ones: each runnable thread that
  // accesses memory makes exactly one more access, the one that unwinds it, and a
  // progress report between the trip and that access buys it nothing. The Work-only
  // thread trips the virtual budget first (Work checks every call, accesses every
  // check_interval) and unwinds without an access.
  Machine m = Machine::PaperX86();
  Engine engine(m.topology, m.platform);
  WatchdogConfig config;
  config.max_virtual_time = PsFromNs(20'000.0);
  config.check_interval = 16;
  engine.SetWatchdog(config);
  auto line = std::make_unique<PaddedAtomic>();
  int unwound = 0;
  engine.Spawn(0, [&] {
    CountOnExit guard{&unwound};
    for (;;) {
      (void)line->value.FetchAdd(1);
    }
  });
  engine.Spawn(1, [&] {
    CountOnExit guard{&unwound};
    for (;;) {
      Engine::Current().ReportProgress();
      (void)line->value.FetchAdd(1);
    }
  });
  engine.Spawn(2, [&] {
    CountOnExit guard{&unwound};
    for (;;) {
      Engine::Current().Work(3.0);
    }
  });
  uint64_t accesses_at_trip = 0;
  try {
    engine.Run();
    FAIL() << "expected SimWatchdogError";
  } catch (const SimWatchdogError& error) {
    accesses_at_trip = error.diagnostic().total_accesses;
  }
  EXPECT_EQ(unwound, 3);
  EXPECT_EQ(engine.total_accesses(), accesses_at_trip + 2);
}

// Four ways a run ends in a diagnostic dump.
enum class Trip {
  kLivelock,     // the no-progress budget, after progress stopped mid-run
  kVirtualTime,  // the virtual budget, reached at an access poll (no Work() calls)
  kDeadlock,     // every thread parked while a watchdog is armed
  kEarly,        // the no-progress budget, before a 32-entry ring fills
};

// what() of the error a three-thread run ends in: t0 reports progress for a few
// rounds, then mixes every access kind on `a`; t1 on another package stores and
// exchanges; t2 parks at once, so every dump shows a blocked thread. In kDeadlock the
// loops are finite and every thread ends parked.
std::string TripText(Trip trip, uint32_t recent_ops) {
  Machine m = Machine::PaperX86();
  Engine engine(m.topology, m.platform);
  WatchdogConfig config;
  config.recent_ops = recent_ops;
  switch (trip) {
    case Trip::kLivelock:
      config.max_accesses_without_progress = 600;
      break;
    case Trip::kVirtualTime:
      config.max_virtual_time = PsFromNs(3'000.0);
      config.check_interval = 16;
      break;
    case Trip::kDeadlock:
      config.max_accesses_without_progress = uint64_t{1} << 30;
      break;
    case Trip::kEarly:
      config.max_accesses_without_progress = 12;
      break;
  }
  engine.SetWatchdog(config);
  auto a = std::make_unique<PaddedAtomic>();
  auto b = std::make_unique<PaddedAtomic>();
  auto never = std::make_unique<PaddedAtomic>();
  const int progress_rounds = trip == Trip::kEarly ? 2 : 8;
  const int rounds = trip == Trip::kDeadlock ? 20 : INT_MAX;
  auto park = [&] {
    mem::SimMemory::SpinUntil(never->value, [](uint64_t v) { return v == 1; });
  };
  engine.Spawn(0, [&] {
    for (int i = 0; i < progress_rounds; ++i) {
      (void)a->value.FetchAdd(1);
      (void)b->value.Load();
      Engine::Current().ReportProgress();
    }
    for (int i = 0; i < rounds; ++i) {
      uint64_t expected = a->value.Load();
      (void)a->value.CompareExchange(expected, expected + 1);
      (void)a->value.RmwRead();
    }
    park();
  });
  engine.Spawn(50, [&] {
    for (int i = 0; i < rounds; ++i) {
      b->value.Store(static_cast<uint64_t>(i));
      (void)a->value.Exchange(static_cast<uint64_t>(i));
    }
    park();
  });
  engine.Spawn(9, park);
  try {
    engine.Run();
  } catch (const SimWatchdogError& error) {
    return error.what();
  } catch (const SimDeadlockError& error) {
    return error.what();
  }
  return "no trip";
}

TEST(WatchdogTest, TripDiagnosticsMatchCapture) {
  // Every byte of every dump: summary line, thread table and last-ops ring, at ring
  // depths that are empty, 1, smaller than the trip's access count, exactly the
  // default, and one past a power of two.
  struct Row {
    Trip trip;
    uint32_t recent_ops;
    uint64_t golden;
  };
  const Row rows[] = {
      {Trip::kLivelock, 0, 0x3baad39aeb33d5f3ull},
      {Trip::kLivelock, 1, 0xe36ba1d22a1014fdull},
      {Trip::kLivelock, 5, 0xf8b47ef0af0c5e30ull},
      {Trip::kLivelock, 32, 0x655670f65e5c2daaull},
      {Trip::kLivelock, 33, 0x329fdf63d192eb9eull},
      {Trip::kVirtualTime, 0, 0x445552a656e85a45ull},
      {Trip::kVirtualTime, 1, 0xe97b488f9f9b8815ull},
      {Trip::kVirtualTime, 5, 0xd932f56f7f08bc35ull},
      {Trip::kVirtualTime, 32, 0x601d43c9aba771b9ull},
      {Trip::kVirtualTime, 33, 0x6c8ca8dcdef78ee7ull},
      {Trip::kDeadlock, 0, 0x9ebfcc614e97393cull},
      {Trip::kDeadlock, 1, 0x40932bea793a4623ull},
      {Trip::kDeadlock, 5, 0x8e7f064ef292295bull},
      {Trip::kDeadlock, 32, 0x46b012d48ac9a159ull},
      {Trip::kDeadlock, 33, 0xe6e2ebb41a847dd8ull},
      {Trip::kEarly, 0, 0xd5e645b559a6ac8cull},
      {Trip::kEarly, 1, 0xd1d67f9bbc3ce3bfull},
      {Trip::kEarly, 5, 0x251ee0d33f89f28full},
      {Trip::kEarly, 32, 0x2f8f9b264fb5ffeeull},
      {Trip::kEarly, 33, 0x2f8f9b264fb5ffeeull},
  };
  for (const Row& row : rows) {
    const std::string text = TripText(row.trip, row.recent_ops);
    EXPECT_EQ(exec::Fnv1a(text), row.golden)
        << "trip " << static_cast<int>(row.trip) << " recent_ops " << row.recent_ops
        << ": actual 0x" << std::hex << exec::Fnv1a(text) << "\n"
        << text;
  }
}

TEST(WatchdogTest, UntrippedWatchdogIsObservationOnly) {
  // Generous budgets that never trip: the watched run must be byte-identical to the
  // unwatched one (same interleaving, same access totals).
  auto run = [](bool watched) {
    Machine m = Machine::PaperX86();
    Engine engine(m.topology, m.platform);
    if (watched) {
      WatchdogConfig config;
      config.max_virtual_time = PsFromNs(1e9);
      config.max_accesses_without_progress = uint64_t{1} << 40;
      config.max_wall_seconds = 3600.0;
      engine.SetWatchdog(config);
    }
    auto a = std::make_unique<PaddedAtomic>();
    std::vector<uint64_t> log;
    for (int t = 0; t < 4; ++t) {
      engine.Spawn(t * 7, [&, t] {
        for (int i = 0; i < 25; ++i) {
          log.push_back(a->value.FetchAdd(1) * 100 + static_cast<uint64_t>(t));
        }
      });
    }
    engine.Run();
    log.push_back(engine.total_accesses());
    log.push_back(engine.total_line_transfers());
    return log;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(WatchdogTest, HarnessSurfacesWatchdogWithResultsUnchanged) {
  // BenchConfig.watchdog wiring: armed-but-untripped results match the default path.
  auto machine = Machine::PaperArm();
  harness::BenchConfig config;
  config.spec.machine = &machine;
  config.spec.hierarchy =
      topo::Hierarchy::Select(machine.topology, {"cache", "numa", "system"});
  config.lock_name = "mcs-mcs-mcs";
  config.num_threads = 8;
  config.duration_ms = 0.1;
  auto plain = harness::RunLockBench(config);
  config.watchdog.max_accesses_without_progress = uint64_t{1} << 30;
  auto watched = harness::RunLockBench(config);
  EXPECT_EQ(plain.total_ops, watched.total_ops);
  EXPECT_EQ(plain.per_thread_ops, watched.per_thread_ops);
  EXPECT_EQ(plain.total_accesses, watched.total_accesses);

  // An absurdly tight budget trips and surfaces through the harness.
  config.watchdog.max_accesses_without_progress = 1;
  EXPECT_THROW(harness::RunLockBench(config), SimWatchdogError);
}

}  // namespace
}  // namespace clof::sim

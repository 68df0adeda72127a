// Tests for sim::Watchdog (src/sim/watchdog.h): budget trips, livelock detection,
// the enriched deadlock diagnostic, abort unwinding, and the observation-only
// guarantee (an armed-but-untripped run is byte-identical to an unwatched one).
#include "src/sim/watchdog.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

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
  struct Sentinel {
    int* unwound;
    ~Sentinel() { ++*unwound; }
  };
  Machine m = Machine::PaperX86();
  Engine engine(m.topology, m.platform);
  auto flag = std::make_unique<PaddedAtomic>();
  int unwound = 0;
  for (int t = 0; t < 3; ++t) {
    engine.Spawn(t, [&] {
      Sentinel sentinel{&unwound};
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
  struct CountOnExit {
    int* counter;
    ~CountOnExit() { ++*counter; }
  };
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

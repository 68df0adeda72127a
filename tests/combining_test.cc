// Combining-lock subsystem tests (docs/COMBINING.md): mck-exhaustive verification of
// the CC-Synch / H-Synch handoff protocols (lock mode and closure mode), sweep
// determinism and result-cache round-trips with combining locks enrolled, the
// pass-budget starvation model, and the registry plumbing (descriptions, stats).
#include "src/combining/combining.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/clof/registry.h"
#include "src/combining/ccsynch.h"
#include "src/combining/hsynch.h"
#include "src/exec/result_cache.h"
#include "src/harness/lock_bench.h"
#include "src/locks/mcs.h"
#include "src/locks/ticket.h"
#include "src/mck/check_lock.h"
#include "src/mck/explorer.h"
#include "src/mck/mck_memory.h"
#include "src/select/scripted_bench.h"
#include "src/sim/platform.h"
#include "src/topo/topology.h"
#include "src/torture/mutants.h"
#include "src/torture/torture.h"

namespace clof::combining {
namespace {

using mck::Explorer;
using MckM = mck::MckMemory;

// ---------------------------------------------------------------------------
// Model checking: lock mode. Acquire/Release on a combining lock must be a correct
// mutual-exclusion protocol in its own right (the null-request degeneration).
// ---------------------------------------------------------------------------

TEST(CombiningMck, CcSynchLockModeTwoThreadsExhaustive) {
  mck::CheckConfig config;
  config.threads = 2;
  config.acquisitions = 2;
  auto stats = mck::CheckLock<CcSynchLock<MckM>>(
      config, [] { return std::make_shared<CcSynchLock<MckM>>(/*combine_degree=*/4); });
  EXPECT_FALSE(stats.result.violation_found) << stats.result.violation;
  EXPECT_TRUE(stats.result.exhausted);
  EXPECT_GT(stats.result.executions, 1u);
}

TEST(CombiningMck, CcSynchLockModeThreeThreadsIsFair) {
  mck::CheckConfig config;
  config.threads = 3;
  config.acquisitions = 1;
  auto stats = mck::CheckLock<CcSynchLock<MckM>>(
      config, [] { return std::make_shared<CcSynchLock<MckM>>(/*combine_degree=*/4); });
  EXPECT_FALSE(stats.result.violation_found) << stats.result.violation;
  EXPECT_TRUE(stats.result.exhausted);
  // FIFO in announce order: at most N-1 others may enter between announce and entry.
  EXPECT_LE(stats.max_bypass, 2u);
}

// Closure mode, exhaustively: every thread's closure runs exactly once, and no two
// closures (inline or delegated) ever overlap. The in-CS token is a *visible*
// MckMemory atomic so DPOR must explore every relative ordering of closure bodies —
// this is the two-announcers-racing-a-combiner-handoff interleaving test.
template <class MakeLock>
void CheckClosureMode(int threads, int executes, MakeLock make_lock) {
  Explorer explorer;
  auto result = explorer.Explore([&]() {
    auto lock = make_lock();
    auto in_cs = std::make_shared<MckM::Atomic<int64_t>>(0);
    std::vector<Explorer::ThreadSpec> specs;
    for (int tid = 0; tid < threads; ++tid) {
      Explorer::ThreadSpec spec;
      spec.cpu = tid;
      spec.body = [lock, in_cs, executes]() {
        typename std::decay_t<decltype(*lock)>::Context ctx;
        for (int k = 0; k < executes; ++k) {
          int ran = 0;
          auto body = [&] {
            if (in_cs->FetchAdd(1) != 0) {
              Explorer::Current().Fail("closures overlapped");
            }
            ++ran;
            if (in_cs->FetchAdd(-1) != 1) {
              Explorer::Current().Fail("closures overlapped");
            }
          };
          runtime::FunctionRef<void()> fn = body;
          lock->Execute(ctx, fn);
          if (ran != 1) {
            Explorer::Current().Fail("closure ran " + std::to_string(ran) +
                                     " times (expected exactly once)");
          }
        }
      };
      specs.push_back(std::move(spec));
    }
    return specs;
  });
  EXPECT_FALSE(result.violation_found) << result.violation;
  EXPECT_TRUE(result.exhausted);
  EXPECT_GT(result.executions, 1u);
}

TEST(CombiningMck, CcSynchClosureModeThreeAnnouncersExhaustive) {
  CheckClosureMode(3, 1, [] {
    return std::make_shared<CcSynchLock<MckM>>(/*combine_degree=*/4);
  });
}

TEST(CombiningMck, CcSynchClosureModeDegreeOneHandsOverEveryPass) {
  // H=1: the combiner may never serve anyone else's closure — every announcer must be
  // woken into the combiner role itself. Exercises the pass-break handoff edge.
  CheckClosureMode(2, 2, [] {
    return std::make_shared<CcSynchLock<MckM>>(/*combine_degree=*/1);
  });
}

TEST(CombiningMck, HsynchTwoCohortsClosureModeExhaustive) {
  // 4 CPUs, "pair" cohorts {0,1} and {2,3}: threads on cpus 0, 1 and 2 put two
  // announcers in cohort 0 racing a combiner handoff while cohort 1 contends for the
  // top lock through its own publication list.
  static const topo::Topology topology = topo::Topology::FromSpec("mck4:4;pair=2");
  static const topo::Hierarchy hierarchy =
      topo::Hierarchy::Select(topology, {"pair", "system"});
  using L = HsynchLock<MckM, locks::TicketLock<MckM>>;
  Explorer explorer;
  auto result = explorer.Explore([&]() {
    auto lock = std::make_shared<L>(hierarchy, /*level=*/0, /*combine_degree=*/2);
    auto in_cs = std::make_shared<MckM::Atomic<int64_t>>(0);
    std::vector<Explorer::ThreadSpec> specs;
    for (int cpu : {0, 1, 2}) {
      Explorer::ThreadSpec spec;
      spec.cpu = cpu;
      spec.body = [lock, in_cs]() {
        typename L::Context ctx;
        int ran = 0;
        auto body = [&] {
          if (in_cs->FetchAdd(1) != 0) {
            Explorer::Current().Fail("closures overlapped across cohorts");
          }
          ++ran;
          if (in_cs->FetchAdd(-1) != 1) {
            Explorer::Current().Fail("closures overlapped across cohorts");
          }
        };
        runtime::FunctionRef<void()> fn = body;
        lock->Execute(ctx, fn);
        if (ran != 1) {
          Explorer::Current().Fail("closure ran " + std::to_string(ran) + " times");
        }
      };
      specs.push_back(std::move(spec));
    }
    return specs;
  });
  EXPECT_FALSE(result.violation_found) << result.violation;
  EXPECT_TRUE(result.exhausted);
}

TEST(CombiningMck, HsynchLockModeTwoCohortsExhaustive) {
  static const topo::Topology topology = topo::Topology::FromSpec("mck4:4;pair=2");
  static const topo::Hierarchy hierarchy =
      topo::Hierarchy::Select(topology, {"pair", "system"});
  using L = HsynchLock<MckM, locks::TicketLock<MckM>>;
  mck::CheckConfig config;
  config.threads = 3;
  config.acquisitions = 1;
  config.cpus = {0, 1, 2};
  auto stats = mck::CheckLock<L>(config, [] {
    return std::make_shared<L>(hierarchy, /*level=*/0, /*combine_degree=*/2);
  });
  EXPECT_FALSE(stats.result.violation_found) << stats.result.violation;
  EXPECT_TRUE(stats.result.exhausted);
}

// ---------------------------------------------------------------------------
// Harness: combining locks run delegated critical sections and report them.
// ---------------------------------------------------------------------------

TEST(CombiningHarness, CombiningLocksRunAndReportStats) {
  auto machine = sim::Machine::PaperArm();
  CombiningOptions options;  // hsynch at "numa", MCS top, H from params
  const Registry registry = WithCombining(SimRegistry(false), options);
  for (const char* name : {"ccsynch", "hsynch-numa"}) {
    harness::BenchConfig config;
    config.spec.machine = &machine;
    config.spec.hierarchy =
        topo::Hierarchy::Select(machine.topology, {"numa", "system"});
    config.spec.registry = &registry;
    config.spec.seed = 7;
    config.lock_name = name;
    config.num_threads = 16;
    config.duration_ms = 0.2;
    const auto result = harness::RunLockBench(config);
    SCOPED_TRACE(name);
    EXPECT_GT(result.total_ops, 0u);
    // The adapter maps the combining counters onto one LevelStats entry; every
    // critical section is either inline or delegated, so acquisitions == total_ops,
    // and under 16 contending threads some closures must have been delegated.
    ASSERT_EQ(result.lock_level_stats.size(), 1u);
    EXPECT_EQ(result.lock_level_stats[0].acquisitions, result.total_ops);
    EXPECT_GT(result.lock_level_stats[0].inherited, 0u) << "no delegation happened";
  }
}

// ---------------------------------------------------------------------------
// Sweep: byte-identity across worker counts and cache round-trips with combining
// locks enrolled next to generated compositions.
// ---------------------------------------------------------------------------

select::SweepConfig CombiningSweep(const sim::Machine& machine,
                                   const Registry& registry) {
  select::SweepConfig config;
  config.spec.machine = &machine;
  config.spec.hierarchy = topo::Hierarchy::Select(machine.topology, {"numa", "system"});
  config.spec.registry = &registry;
  config.lock_names = {"mcs-mcs", "tkt-mcs", "ccsynch", "hsynch-numa"};
  config.thread_counts = {1, 4, 16};
  config.duration_ms = 0.2;
  return config;
}

void ExpectSweepsIdentical(const select::SweepResult& a, const select::SweepResult& b,
                           const std::string& label) {
  ASSERT_EQ(a.curves.size(), b.curves.size()) << label;
  for (size_t i = 0; i < a.curves.size(); ++i) {
    EXPECT_EQ(a.curves[i].name, b.curves[i].name) << label;
    const std::vector<double>& va = a.curves[i].throughput;
    const std::vector<double>& vb = b.curves[i].throughput;
    ASSERT_EQ(va.size(), vb.size()) << label;
    if (!va.empty()) {
      EXPECT_EQ(std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)), 0)
          << label << " curve " << a.curves[i].name;
    }
  }
  EXPECT_EQ(a.selection.hc_best, b.selection.hc_best) << label;
  EXPECT_EQ(a.selection.lc_best, b.selection.lc_best) << label;
}

TEST(CombiningSweepTest, WorkerCountDoesNotChangeResults) {
  auto machine = sim::Machine::PaperArm();
  const Registry registry = WithCombining(SimRegistry(false), {});
  auto config = CombiningSweep(machine, registry);

  config.jobs = 1;
  const auto serial = select::RunScriptedBenchmark(config);
  EXPECT_TRUE(serial.quarantined.empty());
  config.jobs = 2;
  const auto two = select::RunScriptedBenchmark(config);
  config.jobs = 4;
  const auto four = select::RunScriptedBenchmark(config);
  ExpectSweepsIdentical(serial, two, "jobs=1 vs jobs=2");
  ExpectSweepsIdentical(serial, four, "jobs=1 vs jobs=4");
}

TEST(CombiningSweepTest, ResultCacheRoundTripsCombiningCells) {
  auto machine = sim::Machine::PaperArm();
  const Registry registry = WithCombining(SimRegistry(false), {});
  std::string dir = std::string(::testing::TempDir()) + "/clof_combining_cache";
  std::filesystem::remove_all(dir);  // reruns must start cold
  exec::ResultCache cache(dir);

  auto config = CombiningSweep(machine, registry);
  config.jobs = 2;
  config.cache = &cache;
  const auto cold = select::RunScriptedBenchmark(config);
  const uint64_t cells =
      static_cast<uint64_t>(config.lock_names.size() * config.thread_counts.size());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.stores(), cells);
  const auto warm = select::RunScriptedBenchmark(config);
  EXPECT_EQ(cache.hits(), cells) << "second run must be fully cache-served";
  ExpectSweepsIdentical(cold, warm, "computed vs cache-served");
}

TEST(CombiningSweepTest, OptionsChangeTheRegistryDescription) {
  // Different combining options must never share cache entries: the options join the
  // registry description, which joins every cell fingerprint.
  const Registry& base = SimRegistry(false);
  const Registry a = WithCombining(base, {});
  CombiningOptions tuned;
  tuned.combine_degree = 8;
  tuned.top_lock = "clh";
  tuned.hsynch_levels = {"cache", "numa"};
  const Registry b = WithCombining(base, tuned);
  EXPECT_NE(a.description(), base.description());
  EXPECT_NE(a.description(), b.description());
  EXPECT_EQ(CombiningLockNames(tuned),
            (std::vector<std::string>{"ccsynch", "hsynch-cache", "hsynch-numa"}));
}

TEST(CombiningSweepTest, UnknownLevelAndTopLockFailLoudly) {
  const Registry& base = SimRegistry(false);
  CombiningOptions bad_top;
  bad_top.top_lock = "hem";
  EXPECT_THROW(WithCombining(base, bad_top), std::invalid_argument);

  CombiningOptions bad_level;
  bad_level.hsynch_levels = {"no-such-level"};
  const Registry registry = WithCombining(base, bad_level);
  auto machine = sim::Machine::PaperArm();
  const auto hierarchy =
      topo::Hierarchy::Select(machine.topology, {"numa", "system"});
  EXPECT_THROW(registry.Make("hsynch-no-such-level", hierarchy), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Pass-budget starvation model.
// ---------------------------------------------------------------------------

TEST(StarvationBudgetTest, FlatAndEmptyRunsUseTheFloor) {
  torture::TortureConfig config;
  config.duration_ms = 0.1;
  config.starvation_fraction = 0.5;
  const double floor_ns = 0.5 * 0.1 * 1e6;
  EXPECT_DOUBLE_EQ(torture::StarvationBudgetNs(config, /*lock_levels=*/1, 1000),
                   floor_ns);
  EXPECT_DOUBLE_EQ(
      torture::StarvationBudgetNs(config, Registry::kAnyDepth, 1000), floor_ns)
      << "kAnyDepth registrations carry no pass structure";
  EXPECT_DOUBLE_EQ(torture::StarvationBudgetNs(config, /*lock_levels=*/3, 0), floor_ns)
      << "an empty run has no mean CS time to model";
}

TEST(StarvationBudgetTest, HierarchicalLocksEarnPassBudget) {
  torture::TortureConfig config;
  config.duration_ms = 0.1;
  config.starvation_fraction = 0.5;
  config.params.keep_local_threshold = 128;
  // 50 ops in 0.1 ms => mean CS 2000 ns; 3 levels => 2 lower levels of keep-local
  // passes: slack * (1 + 2 * 128) * 2000.
  const double expected = torture::kStarvationPassSlack * (1.0 + 2.0 * 128.0) * 2000.0;
  EXPECT_DOUBLE_EQ(torture::StarvationBudgetNs(config, /*lock_levels=*/3, 50),
                   expected);
  // The budget never drops below the floor even for busy hierarchical runs.
  config.params.keep_local_threshold = 1;
  EXPECT_DOUBLE_EQ(torture::StarvationBudgetNs(config, /*lock_levels=*/2, 1000000),
                   0.5 * 0.1 * 1e6);
}

// ---------------------------------------------------------------------------
// Torture: the seeded combining mutants are flagged by the oracles they were written
// against, and the genuine algorithms pass the same matrix clean.
// ---------------------------------------------------------------------------

torture::TortureConfig TortureBase(const sim::Machine& machine) {
  torture::TortureConfig config;
  config.machine = &machine;
  config.hierarchy =
      topo::Hierarchy::Select(machine.topology, {"cache", "numa", "system"});
  config.num_threads = 6;
  config.duration_ms = 0.1;
  config.seed = 1;
  config.jobs = 0;
  return config;
}

bool HasOracle(const torture::TortureReport& report, const std::string& lock_name,
               const std::string& oracle) {
  for (const auto& violation : report.violations) {
    if (violation.lock_name == lock_name && violation.oracle == oracle) {
      return true;
    }
  }
  return false;
}

TEST(CombiningTortureTest, SeededCombiningMutantsAreFlagged) {
  auto machine = sim::Machine::PaperArm();
  auto config = TortureBase(machine);
  config.registry = &torture::MutantRegistry();
  config.lock_names = {"mut-ccsynch-lost-closure", "mut-hsynch-skip-top"};
  const auto report = torture::RunTorture(config);
  EXPECT_TRUE(report.Flagged("mut-ccsynch-lost-closure"));
  EXPECT_TRUE(HasOracle(report, "mut-ccsynch-lost-closure", "lost-update"))
      << torture::FormatTortureReport(report);
  EXPECT_TRUE(report.Flagged("mut-hsynch-skip-top"));
  EXPECT_TRUE(HasOracle(report, "mut-hsynch-skip-top", "mutual-exclusion") ||
              HasOracle(report, "mut-hsynch-skip-top", "lost-update"))
      << torture::FormatTortureReport(report);
}

TEST(CombiningTortureTest, GenuineCombiningLocksPassTheMatrixCleanly) {
  auto machine = sim::Machine::PaperArm();
  CombiningOptions options;
  options.hsynch_levels = {"cache"};  // 6 torture threads span two cache cohorts
  const Registry registry = WithCombining(SimRegistry(false), options);
  auto config = TortureBase(machine);
  config.registry = &registry;
  config.lock_names = {"ccsynch", "hsynch-cache"};
  const auto report = torture::RunTorture(config);
  for (const auto& violation : report.violations) {
    ADD_FAILURE() << "false positive: " << violation.lock_name << " / "
                  << violation.scenario << " / " << violation.oracle << ": "
                  << violation.detail;
  }
  EXPECT_TRUE(report.AllClean());
}

}  // namespace
}  // namespace clof::combining

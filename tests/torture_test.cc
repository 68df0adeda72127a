// Tests for the torture harness (src/torture): the mutant locks validate the oracles
// (every seeded-in bug is flagged, with the expected oracle kind), genuine locks pass
// the same matrix cleanly, and reports are deterministic across executor widths.
#include "src/torture/torture.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/clof/adaptive.h"
#include "src/clof/registry.h"
#include "src/clof/timeout.h"
#include "src/combining/combining.h"
#include "src/fault/scenarios.h"
#include "src/sim/platform.h"
#include "src/topo/topology.h"
#include "src/torture/mutants.h"

namespace clof::torture {
namespace {

sim::Machine Arm() { return sim::Machine::PaperArm(); }

TortureConfig BaseConfig(const sim::Machine& machine) {
  TortureConfig config;
  config.machine = &machine;
  config.hierarchy =
      topo::Hierarchy::Select(machine.topology, {"cache", "numa", "system"});
  config.num_threads = 6;
  config.duration_ms = 0.1;
  config.seed = 1;
  config.jobs = 0;
  return config;
}

bool HasOracle(const TortureReport& report, const std::string& lock_name,
               const std::string& oracle) {
  for (const auto& violation : report.violations) {
    if (violation.lock_name == lock_name && violation.oracle == oracle) {
      return true;
    }
  }
  return false;
}

TEST(TortureMatrixTest, StartsWithTheUnperturbedScenario) {
  auto matrix = fault::TortureMatrix(7);
  ASSERT_EQ(matrix.size(), 6u);
  EXPECT_EQ(matrix[0].name, "none");
  EXPECT_FALSE(matrix[0].plan.AnyEnabled());
  EXPECT_EQ(matrix[5].name, "storm");
  EXPECT_TRUE(matrix[5].plan.AnyEnabled());
}

TEST(TortureTest, EveryMutantIsFlaggedWithItsOracle) {
  auto machine = Arm();
  TortureConfig config = BaseConfig(machine);
  config.registry = &MutantRegistry();
  config.lock_names = MutantNames();
  auto report = RunTorture(config);

  for (const auto& name : MutantNames()) {
    EXPECT_TRUE(report.Flagged(name)) << name << " escaped the torture matrix";
  }
  // Each seeded-in bug must be caught by the oracle family it was written against
  // (docs/TORTURE.md maps mutants to oracles).
  EXPECT_TRUE(HasOracle(report, "mut-split-acquire", "mutual-exclusion") ||
              HasOracle(report, "mut-split-acquire", "lost-update"));
  EXPECT_TRUE(HasOracle(report, "mut-skip-unlock", "deadlock"));
  EXPECT_TRUE(HasOracle(report, "mut-stuck-spin", "watchdog"));
  EXPECT_TRUE(HasOracle(report, "mut-drop-handover", "mutual-exclusion") ||
              HasOracle(report, "mut-drop-handover", "deadlock"));
  EXPECT_TRUE(HasOracle(report, "mut-yield-turn", "starvation"));
  // The adaptive switcher that skips the drain barrier lets a post-switch acquirer
  // overlap a still-live old-side critical section (src/clof/adaptive.h).
  EXPECT_TRUE(HasOracle(report, "mut-adaptive-nodrain", "mutual-exclusion") ||
              HasOracle(report, "mut-adaptive-nodrain", "lost-update"));
  // The combiner that drops announced closures leaves their increments missing.
  EXPECT_TRUE(HasOracle(report, "mut-ccsynch-lost-closure", "lost-update"));
  // The local combiner that barges past the top arbiter overlaps another cohort's
  // combiner (src/combining/hsynch.h).
  EXPECT_TRUE(HasOracle(report, "mut-hsynch-skip-top", "mutual-exclusion") ||
              HasOracle(report, "mut-hsynch-skip-top", "lost-update"));
  // The check-then-act on the MCS tail wipes a concurrently-arriving enqueuer from
  // the queue; the wiped waiter parks forever.
  EXPECT_TRUE(HasOracle(report, "mut-mcs-aba-tail", "deadlock") ||
              HasOracle(report, "mut-mcs-aba-tail", "watchdog"));
  // The releaser that stops at an abandoned node strands everything queued behind it:
  // parked waiters read as deadlock, polling timed waiters as a watchdog trip
  // (docs/TIMEOUT.md).
  EXPECT_TRUE(HasOracle(report, "mut-mcst-leak-node", "deadlock") ||
              HasOracle(report, "mut-mcst-leak-node", "watchdog"));
  // The premature node recycle lands a stale grant on the node's next incarnation —
  // the thread that reported "timeout" holds the lock without knowing it, so critical
  // sections overlap (or, in other schedules, the misdirected grant strands the
  // legitimate queue).
  EXPECT_TRUE(HasOracle(report, "mut-timeout-ghost-acquire", "mutual-exclusion") ||
              HasOracle(report, "mut-timeout-ghost-acquire", "lost-update") ||
              HasOracle(report, "mut-timeout-ghost-acquire", "deadlock") ||
              HasOracle(report, "mut-timeout-ghost-acquire", "watchdog"));

  // Deadlock/watchdog violations carry the engine's per-thread diagnostic dump.
  bool saw_diagnostic = false;
  for (const auto& violation : report.violations) {
    if (violation.oracle == "deadlock" || violation.oracle == "watchdog") {
      EXPECT_FALSE(violation.diagnostic.empty())
          << violation.lock_name << " / " << violation.scenario;
      saw_diagnostic = true;
    }
  }
  EXPECT_TRUE(saw_diagnostic);
}

TEST(TortureTest, GenuineLocksPassTheMatrixCleanly) {
  auto machine = Arm();
  TortureConfig config = BaseConfig(machine);
  config.registry = &SimRegistry(/*ctr_hem=*/false);
  config.lock_names = {"mcs-mcs-mcs", "tkt-tkt-tkt", "clh-mcs-tkt", "hem-hem-hem",
                       "hmcs", "cna"};
  auto report = RunTorture(config);
  for (const auto& violation : report.violations) {
    ADD_FAILURE() << "false positive: " << violation.lock_name << " / "
                  << violation.scenario << " / " << violation.oracle << ": "
                  << violation.detail;
  }
  EXPECT_TRUE(report.AllClean());
  EXPECT_EQ(report.total_runs,
            static_cast<int>(config.lock_names.size() * report.scenario_names.size()));
}

TEST(TortureTest, GenuineTimeoutLocksPassTheMatrixCleanly) {
  // The real MCS-T and its WithTimeout composition under the full matrix. Both are
  // abortable, so the harness's timed driving exercises the abandon path (and the
  // releaser's skip-and-reclaim walk) under every scenario — the exact paths whose
  // seeded-bug versions (mut-mcst-leak-node, mut-timeout-ghost-acquire) must be
  // flagged above.
  auto machine = Arm();
  const Registry registry = timeout::WithTimeout(SimRegistry(/*ctr_hem=*/false), {});
  TortureConfig config = BaseConfig(machine);
  config.registry = &registry;
  config.lock_names = {"mcst-flat", "mcst-mcst-mcst"};
  auto report = RunTorture(config);
  for (const auto& violation : report.violations) {
    ADD_FAILURE() << "false positive: " << violation.lock_name << " / "
                  << violation.scenario << " / " << violation.oracle << ": "
                  << violation.detail;
  }
  EXPECT_TRUE(report.AllClean());
}

TEST(TortureTest, GenuineAdaptiveSwitchingPassesTheMatrixCleanly) {
  // The real facade under constant churn: a forced switch every 7 releases plus the
  // live detector, across all six fault scenarios. With the drain barrier in place
  // (unlike mut-adaptive-nodrain) every oracle must stay quiet.
  auto machine = Arm();
  adaptive::AdaptiveOptions options;
  options.lc_lock = "tkt-tkt-tkt";
  options.hc_lock = "mcs-mcs-mcs";
  options.force_switch_period = 7;
  const Registry registry = adaptive::WithAdaptive(SimRegistry(false), options);
  TortureConfig config = BaseConfig(machine);
  config.registry = &registry;
  config.lock_names = {"adaptive"};
  auto report = RunTorture(config);
  for (const auto& violation : report.violations) {
    ADD_FAILURE() << "false positive: " << violation.lock_name << " / "
                  << violation.scenario << " / " << violation.oracle << ": "
                  << violation.detail;
  }
  EXPECT_TRUE(report.AllClean());
}

TEST(TortureTest, ReportIsDeterministicAcrossJobs) {
  auto machine = Arm();
  TortureConfig config = BaseConfig(machine);
  config.registry = &MutantRegistry();
  config.lock_names = {"mut-split-acquire", "mut-skip-unlock"};
  config.jobs = 1;
  auto serial = RunTorture(config);
  config.jobs = 4;
  auto parallel = RunTorture(config);
  EXPECT_EQ(FormatTortureReport(serial, /*verbose=*/true),
            FormatTortureReport(parallel, /*verbose=*/true));
}

TEST(TortureTest, FormatReportNamesVerdicts) {
  auto machine = Arm();
  TortureConfig config = BaseConfig(machine);
  config.registry = &MutantRegistry();
  config.lock_names = {"mut-skip-unlock"};
  auto report = RunTorture(config);
  const std::string text = FormatTortureReport(report);
  EXPECT_NE(text.find("mut-skip-unlock"), std::string::npos);
  EXPECT_NE(text.find("FLAGGED"), std::string::npos);
  EXPECT_NE(text.find("[none]"), std::string::npos);  // scenario tag in detail lines
}

uint64_t TextHash(const std::string& text) {
  uint64_t hash = 14695981039346656037ull;  // FNV-1a
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

// clof_torture's default run at seed 1 and 0.1 ms (Arm, its full default hierarchy):
// every mutant, then the genuine control set it builds. The reports are pinned against
// a capture of the harness that ran non-combining locks through Acquire/Release, so
// routing them through Lock::Execute must leave every verdict and count unchanged.
constexpr uint64_t kMutantReportGolden = 0xe666b4562d4e5416ull;
constexpr uint64_t kControlReportGolden = 0x6b37a68d0db60b40ull;

TEST(TortureTest, DefaultReportsMatchCapture) {
  auto machine = Arm();
  TortureConfig config = BaseConfig(machine);
  config.hierarchy =
      topo::Hierarchy::Select(machine.topology, {"cache", "numa", "package", "system"});
  config.registry = &MutantRegistry();
  config.lock_names = MutantNames();
  const std::string mutants = FormatTortureReport(RunTorture(config));

  combining::CombiningOptions combining_options;
  combining_options.hsynch_levels = {"cache"};
  const Registry registry =
      timeout::WithTimeout(combining::WithCombining(SimRegistry(false), combining_options));
  config.registry = &registry;
  config.lock_names = {"clh-clh-clh-clh", "hem-clh-clh-hem", "mcs-clh-clh-mcs",
                       "tkt-clh-clh-mcs", "hmcs", "cna", "ccsynch", "hsynch-cache",
                       "mcst-flat", "mcst-mcst-mcst-mcst"};
  const std::string controls = FormatTortureReport(RunTorture(config));

  EXPECT_EQ(TextHash(mutants), kMutantReportGolden)
      << "actual 0x" << std::hex << TextHash(mutants) << "\n" << mutants;
  EXPECT_EQ(TextHash(controls), kControlReportGolden)
      << "actual 0x" << std::hex << TextHash(controls) << "\n" << controls;
}

TEST(TortureTest, RejectsUnusableConfigs) {
  auto machine = Arm();
  TortureConfig config = BaseConfig(machine);
  config.registry = &MutantRegistry();
  EXPECT_THROW(RunTorture(config), std::invalid_argument);  // no locks
  config.lock_names = {"no-such-lock"};
  EXPECT_THROW(RunTorture(config), std::invalid_argument);
  config.lock_names = MutantNames();
  config.duration_ms = 0.0;
  EXPECT_THROW(RunTorture(config), std::invalid_argument);
  config.duration_ms = 0.1;
  config.machine = nullptr;
  EXPECT_THROW(RunTorture(config), std::invalid_argument);
}

}  // namespace
}  // namespace clof::torture

#include "src/harness/lock_bench.h"

#include <gtest/gtest.h>

namespace clof::harness {
namespace {

BenchConfig BaseConfig(const sim::Machine& machine) {
  BenchConfig config;
  config.spec.machine = &machine;
  config.spec.hierarchy =
      topo::Hierarchy::Select(machine.topology, {"cache", "numa", "system"});
  config.lock_name = "mcs-mcs-mcs";
  config.spec.profile = workload::Profile::LevelDbReadRandom();
  config.num_threads = 8;
  config.duration_ms = 0.2;
  return config;
}

TEST(HarnessTest, DeterministicResults) {
  auto machine = sim::Machine::PaperArm();
  auto config = BaseConfig(machine);
  auto a = RunLockBench(config);
  auto b = RunLockBench(config);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.per_thread_ops, b.per_thread_ops);
}

TEST(HarnessTest, SeedChangesResultSlightly) {
  auto machine = sim::Machine::PaperArm();
  auto config = BaseConfig(machine);
  auto a = RunLockBench(config);
  config.spec.seed = 43;
  auto b = RunLockBench(config);
  EXPECT_NE(a.per_thread_ops, b.per_thread_ops);  // different think-time jitter
  EXPECT_NEAR(static_cast<double>(a.total_ops), static_cast<double>(b.total_ops),
              0.2 * static_cast<double>(a.total_ops));
}

TEST(HarnessTest, SingleThreadCalibration) {
  // DESIGN.md calibration target: leveldb_readrandom ~0.35 iterations/us at 1 thread.
  auto machine = sim::Machine::PaperArm();
  auto config = BaseConfig(machine);
  config.num_threads = 1;
  config.duration_ms = 0.5;
  auto result = RunLockBench(config);
  EXPECT_GT(result.throughput_per_us, 0.2);
  EXPECT_LT(result.throughput_per_us, 0.6);
}

TEST(HarnessTest, ThroughputCountsMatch) {
  auto machine = sim::Machine::PaperArm();
  auto config = BaseConfig(machine);
  auto result = RunLockBench(config);
  uint64_t sum = 0;
  for (uint64_t ops : result.per_thread_ops) {
    sum += ops;
  }
  EXPECT_EQ(sum, result.total_ops);
  EXPECT_NEAR(result.throughput_per_us,
              static_cast<double>(result.total_ops) / (config.duration_ms * 1e3), 1e-9);
}

TEST(HarnessTest, FairLockHasHighFairnessIndex) {
  auto machine = sim::Machine::PaperArm();
  auto config = BaseConfig(machine);
  config.lock_name = "tkt-tkt-tkt";
  config.duration_ms = 0.5;
  auto result = RunLockBench(config);
  EXPECT_GT(result.fairness_index, 0.9);
}

TEST(HarnessTest, MedianOfRunsIsOneOfTheRuns) {
  auto machine = sim::Machine::PaperArm();
  auto config = BaseConfig(machine);
  auto median = RunLockBenchMedian(config, 3);
  EXPECT_GT(median.total_ops, 0u);
}

TEST(HarnessTest, PaperThreadCounts) {
  auto x86 = topo::Topology::PaperX86();
  auto arm = topo::Topology::PaperArm();
  EXPECT_EQ(PaperThreadCounts(x86), (std::vector<int>{1, 4, 8, 16, 24, 32, 48, 64, 95}));
  EXPECT_EQ(PaperThreadCounts(arm),
            (std::vector<int>{1, 4, 8, 16, 24, 32, 48, 64, 95, 127}));
}

TEST(HarnessTest, ValidatesConfig) {
  auto machine = sim::Machine::PaperArm();
  auto config = BaseConfig(machine);
  config.num_threads = 500;
  EXPECT_THROW(RunLockBench(config), std::invalid_argument);
  config.num_threads = 8;
  config.duration_ms = 0.0;
  EXPECT_THROW(RunLockBench(config), std::invalid_argument);
  config.duration_ms = 0.2;
  config.spec.machine = nullptr;
  EXPECT_THROW(RunLockBench(config), std::invalid_argument);
}

}  // namespace
}  // namespace clof::harness

// Parallel-sweep acceptance tests: the scripted benchmark must produce byte-identical
// SweepResults for any worker count, serve repeat runs entirely from the result cache
// without changing the selection, and honor the on_lock_done delivery contract.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "src/clof/registry.h"
#include "src/exec/result_cache.h"
#include "src/select/scripted_bench.h"
#include "src/sim/platform.h"

namespace clof::select {
namespace {

SweepConfig SmallSweep(const sim::Machine& machine) {
  SweepConfig config;
  config.spec.machine = &machine;
  config.spec.hierarchy = topo::Hierarchy::Select(machine.topology, {"numa", "system"});
  config.spec.registry = &SimRegistry(false);
  // A handful of locks keeps the test fast while exercising multiple curves.
  config.lock_names = {"mcs-mcs", "clh-clh", "tkt-mcs", "hem-clh", "mcs-tkt"};
  config.thread_counts = {1, 4, 16};
  config.duration_ms = 0.2;
  return config;
}

// Bitwise equality of two sweeps: throughput AND every sidecar, via memcmp so that
// "byte-identical" means exactly that (no tolerance, no NaN special-casing).
void ExpectBitIdentical(const SweepResult& a, const SweepResult& b,
                        const std::string& label) {
  ASSERT_EQ(a.thread_counts, b.thread_counts) << label;
  ASSERT_EQ(a.curves.size(), b.curves.size()) << label;
  for (size_t i = 0; i < a.curves.size(); ++i) {
    const LockCurve& ca = a.curves[i];
    const LockCurve& cb = b.curves[i];
    EXPECT_EQ(ca.name, cb.name) << label;
    for (auto field : {&LockCurve::throughput, &LockCurve::local_handover_rate,
                       &LockCurve::transfers_per_op, &LockCurve::acquire_p99_ns,
                       &LockCurve::acquire_p999_ns}) {
      const std::vector<double>& va = ca.*field;
      const std::vector<double>& vb = cb.*field;
      ASSERT_EQ(va.size(), vb.size()) << label << " curve " << ca.name;
      if (!va.empty()) {
        EXPECT_EQ(std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)), 0)
            << label << " curve " << ca.name;
      }
    }
  }
  EXPECT_EQ(a.selection.hc_best, b.selection.hc_best) << label;
  EXPECT_EQ(a.selection.lc_best, b.selection.lc_best) << label;
}

TEST(ParallelSweepTest, WorkerCountDoesNotChangeResults) {
  auto machine = sim::Machine::PaperArm();
  SweepConfig config = SmallSweep(machine);

  config.jobs = 1;
  SweepResult serial = RunScriptedBenchmark(config);
  config.jobs = 2;
  SweepResult two = RunScriptedBenchmark(config);
  config.jobs = 4;
  SweepResult four = RunScriptedBenchmark(config);

  ExpectBitIdentical(serial, two, "jobs=1 vs jobs=2");
  ExpectBitIdentical(serial, four, "jobs=1 vs jobs=4");
}

TEST(ParallelSweepTest, CurveLookupFindsEverySweptLock) {
  auto machine = sim::Machine::PaperArm();
  SweepConfig config = SmallSweep(machine);
  config.jobs = 2;
  SweepResult result = RunScriptedBenchmark(config);
  for (const std::string& name : config.lock_names) {
    const LockCurve* curve = result.Curve(name);
    ASSERT_NE(curve, nullptr) << name;
    EXPECT_EQ(curve->name, name);
    EXPECT_EQ(curve->throughput.size(), config.thread_counts.size());
  }
  EXPECT_EQ(result.Curve("no-such-lock"), nullptr);
}

TEST(ParallelSweepTest, OnLockDoneContractHoldsForAnyWorkerCount) {
  auto machine = sim::Machine::PaperArm();
  for (int jobs : {1, 4}) {
    SweepConfig config = SmallSweep(machine);
    config.jobs = jobs;
    std::mutex mutex;
    bool inside = false;
    std::vector<std::string> names;
    std::vector<int> dones;
    int total_seen = -1;
    bool all_complete = true;
    config.on_lock_done = [&](const LockCurve& curve, int done, int total) {
      // Calls must be serialized: overlapping entry would trip `inside`.
      std::unique_lock<std::mutex> lock(mutex, std::try_to_lock);
      ASSERT_TRUE(lock.owns_lock()) << "on_lock_done invoked concurrently";
      ASSERT_FALSE(inside);
      inside = true;
      names.push_back(curve.name);
      dones.push_back(done);
      total_seen = total;
      all_complete = all_complete && curve.throughput.size() == 3 &&
                     curve.local_handover_rate.size() == 3 &&
                     curve.transfers_per_op.size() == 3;
      inside = false;
    };
    RunScriptedBenchmark(config);
    // Delivered in sweep order with done counting 1..total.
    EXPECT_EQ(names, config.lock_names) << "jobs=" << jobs;
    EXPECT_EQ(total_seen, static_cast<int>(config.lock_names.size()));
    for (size_t i = 0; i < dones.size(); ++i) {
      EXPECT_EQ(dones[i], static_cast<int>(i) + 1) << "jobs=" << jobs;
    }
    EXPECT_TRUE(all_complete) << "jobs=" << jobs;
  }
}

TEST(ParallelSweepTest, SecondRunIsFullyCacheServedWithSameSelection) {
  auto machine = sim::Machine::PaperArm();
  std::string dir = std::string(::testing::TempDir()) + "/clof_parallel_sweep_cache";
  std::filesystem::remove_all(dir);  // reruns must start cold
  exec::ResultCache cache(dir);

  SweepConfig config = SmallSweep(machine);
  config.jobs = 2;
  config.cache = &cache;

  SweepResult cold = RunScriptedBenchmark(config);
  uint64_t cells =
      static_cast<uint64_t>(config.lock_names.size() * config.thread_counts.size());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), cells);
  EXPECT_EQ(cache.stores(), cells);

  SweepResult warm = RunScriptedBenchmark(config);
  EXPECT_EQ(cache.hits(), cells) << "second run must be fully cache-served";
  EXPECT_EQ(cache.misses(), cells) << "no new misses on the second run";
  ExpectBitIdentical(cold, warm, "computed vs cache-served");

  // Cached cells interoperate with different worker counts too.
  config.jobs = 4;
  SweepResult warm4 = RunScriptedBenchmark(config);
  EXPECT_EQ(cache.hits(), 2 * cells);
  ExpectBitIdentical(cold, warm4, "computed vs cache-served jobs=4");
}

TEST(ParallelSweepTest, ConfigChangeBypassesCache) {
  auto machine = sim::Machine::PaperArm();
  std::string dir = std::string(::testing::TempDir()) + "/clof_parallel_sweep_cache2";
  std::filesystem::remove_all(dir);  // reruns must start cold
  exec::ResultCache cache(dir);

  SweepConfig config = SmallSweep(machine);
  config.lock_names = {"mcs-mcs"};
  config.cache = &cache;
  RunScriptedBenchmark(config);
  uint64_t stores_after_first = cache.stores();

  config.spec.seed += 1;  // any fingerprint field change must miss
  RunScriptedBenchmark(config);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.stores(), 2 * stores_after_first);
}

// The data-center shape: a 4-level hierarchy over all 1024 CPUs of the CXL-pod
// preset. Worker parallelism must stay invisible here too — these cells run on the
// shared per-cell engine chunk pool, so jobs=2/4 additionally exercises concurrent
// chunk checkout/return across workers — and cached cells must replay bit-for-bit.
TEST(ParallelSweepTest, FourLevelScaleSweepIsWorkerCountInvariantAndCacheable) {
  auto machine = sim::Machine::CxlPod1024();
  SweepConfig config;
  config.spec.machine = &machine;
  config.spec.hierarchy =
      topo::Hierarchy::Select(machine.topology, {"cache", "numa", "pod", "system"});
  config.spec.registry = &SimRegistry(false);
  config.lock_names = {"mcs-mcs-mcs-mcs", "tkt-mcs-mcs-mcs", "clh-clh-mcs-tkt"};
  config.thread_counts = {4, 64, 256};
  config.duration_ms = 0.1;

  config.jobs = 1;
  SweepResult serial = RunScriptedBenchmark(config);
  config.jobs = 2;
  SweepResult two = RunScriptedBenchmark(config);
  config.jobs = 4;
  SweepResult four = RunScriptedBenchmark(config);
  ExpectBitIdentical(serial, two, "4-level jobs=1 vs jobs=2");
  ExpectBitIdentical(serial, four, "4-level jobs=1 vs jobs=4");

  std::string dir = std::string(::testing::TempDir()) + "/clof_parallel_sweep_cache_4l";
  std::filesystem::remove_all(dir);  // reruns must start cold
  exec::ResultCache cache(dir);
  config.cache = &cache;
  config.jobs = 4;
  SweepResult cold = RunScriptedBenchmark(config);
  uint64_t cells =
      static_cast<uint64_t>(config.lock_names.size() * config.thread_counts.size());
  EXPECT_EQ(cache.misses(), cells);
  EXPECT_EQ(cache.stores(), cells);
  ExpectBitIdentical(serial, cold, "4-level computed with cache attached");

  config.jobs = 2;
  SweepResult warm = RunScriptedBenchmark(config);
  EXPECT_EQ(cache.hits(), cells) << "second run must be fully cache-served";
  ExpectBitIdentical(serial, warm, "4-level computed vs cache-served");
}

}  // namespace
}  // namespace clof::select

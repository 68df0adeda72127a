// The clof::trace observability layer: determinism (tracing must never perturb
// virtual time — bit-identical results with tracing on, off, or absent), per-level
// accounting invariants, Chrome trace_event export stability, and the harness-side
// handover metrics.
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/harness/lock_bench.h"
#include "src/mem/sim_memory.h"
#include "src/sim/engine.h"
#include "src/topo/topology.h"
#include "src/trace/chrome_export.h"
#include "src/trace/trace.h"

namespace clof {
namespace {

// Golden totals for GoldenVirtualTimeResults, measured when the trace layer was
// introduced (together with the SharedState::Touch atomicity fix, which is why they
// differ from any pre-fix build).
constexpr uint64_t kGoldenMcsOps = 390;
constexpr uint64_t kGoldenTktClhTktOps = 373;

harness::BenchConfig BaseConfig(const sim::Machine& machine) {
  harness::BenchConfig config;
  config.spec.machine = &machine;
  config.spec.hierarchy =
      topo::Hierarchy::Select(machine.topology, {"cache", "numa", "system"});
  config.lock_name = "mcs-mcs-mcs";
  config.spec.profile = workload::Profile::LevelDbReadRandom();
  config.num_threads = 8;
  config.duration_ms = 0.2;
  return config;
}

uint64_t SumTransfers(const std::vector<trace::LevelMetrics>& metrics) {
  uint64_t sum = 0;
  for (const auto& m : metrics) {
    sum += m.line_transfers;
  }
  return sum;
}

// --- Determinism: the acceptance criterion of the whole layer ---

TEST(TraceTest, TracingDoesNotPerturbVirtualTime) {
  auto machine = sim::Machine::PaperArm();
  auto config = BaseConfig(machine);
  auto plain = harness::RunLockBench(config);

  trace::TraceBuffer buffer;
  config.trace_sink = &buffer;
  auto traced = harness::RunLockBench(config);

  EXPECT_EQ(plain.total_ops, traced.total_ops);
  EXPECT_EQ(plain.per_thread_ops, traced.per_thread_ops);
  EXPECT_EQ(plain.total_accesses, traced.total_accesses);
  EXPECT_EQ(plain.total_line_transfers, traced.total_line_transfers);
  EXPECT_EQ(plain.handovers_by_level, traced.handovers_by_level);
  EXPECT_EQ(plain.acquire_latency.total_ps(), traced.acquire_latency.total_ps());
  EXPECT_GT(buffer.recorded(), 0u);
}

TEST(TraceTest, SameSeedSameTraceBytes) {
  auto machine = sim::Machine::PaperArm();
  auto config = BaseConfig(machine);
  config.duration_ms = 0.05;

  std::string json[2];
  for (auto& out : json) {
    trace::TraceBuffer buffer;
    config.trace_sink = &buffer;
    harness::RunLockBench(config);
    out = trace::ChromeTraceJson(buffer, machine.topology);
  }
  ASSERT_FALSE(json[0].empty());
  EXPECT_EQ(json[0], json[1]);  // byte-identical, not merely equivalent
}

// Golden virtual-time results (PaperArm, cache/numa/system, leveldb profile, seed 42,
// 0.2 virtual ms, 8 threads). These pin the simulator's timing behavior: any future
// change to observability code that perturbs virtual time — an extra simulated access,
// a reordered event — shifts total_ops and fails here. Regenerate only for intentional
// cost-model changes (build clof_bench and read the op counts off --stats runs).
TEST(TraceTest, GoldenVirtualTimeResults) {
  auto machine = sim::Machine::PaperArm();
  auto config = BaseConfig(machine);
  auto mcs = harness::RunLockBench(config);
  EXPECT_EQ(mcs.total_ops, kGoldenMcsOps);
  config.lock_name = "tkt-clh-tkt";
  auto mixed = harness::RunLockBench(config);
  EXPECT_EQ(mixed.total_ops, kGoldenTktClhTktOps);
}

// --- Per-level accounting invariants ---

TEST(TraceTest, PerLevelTransfersSumToEngineTotal) {
  auto machine = sim::Machine::PaperArm();
  auto config = BaseConfig(machine);
  auto result = harness::RunLockBench(config);
  EXPECT_GT(result.total_line_transfers, 0u);
  EXPECT_EQ(SumTransfers(result.level_metrics), result.total_line_transfers);
  ASSERT_EQ(result.level_metrics.size(),
            static_cast<size_t>(trace::NumLevelBuckets(machine.topology.num_levels())));
}

TEST(TraceTest, EngineCountsTransfersAndWakeupsDirectly) {
  auto machine = sim::Machine::PaperArm();
  sim::Engine engine(machine.topology, machine.platform);
  mem::SimMemory::Atomic<uint64_t> word{0};
  // CPU 96 spins until CPU 0 (another package) writes: exactly one cross-package
  // transfer chain and one wakeup must be attributed to the top levels.
  engine.Spawn(96, [&] { mem::SimMemory::SpinUntil(word, [](uint64_t v) { return v == 1; }); });
  engine.Spawn(0, [&] {
    sim::Engine::Current().Work(500.0);
    word.Store(1);
  });
  engine.Run();
  EXPECT_EQ(SumTransfers(engine.level_metrics()), engine.total_line_transfers());
  uint64_t wakeups = 0;
  for (const auto& m : engine.level_metrics()) {
    wakeups += m.spin_wakeups;
  }
  EXPECT_EQ(wakeups, 1u);
  // The wakeup crossed the system level (CPU 0 and 96 share only the top level).
  int top = machine.topology.SharingLevel(0, 96);
  EXPECT_EQ(engine.level_metrics()[static_cast<size_t>(top)].spin_wakeups, 1u);
}

TEST(TraceTest, HandoverAccounting) {
  auto machine = sim::Machine::PaperArm();
  auto config = BaseConfig(machine);
  auto result = harness::RunLockBench(config);
  // Every acquisition after the first is a handover from the previous owner.
  EXPECT_EQ(result.total_handovers, result.total_ops - 1);
  EXPECT_EQ(result.acquire_latency.count(), result.total_ops);
  uint64_t sum = std::accumulate(result.handovers_by_level.begin(),
                                 result.handovers_by_level.end(), uint64_t{0});
  EXPECT_EQ(sum, result.total_handovers);
  // Locality is cumulative and reaches 1 at the system level.
  double below = 0.0;
  for (int level = 0; level < machine.topology.num_levels(); ++level) {
    double at = result.HandoverLocalityAt(level);
    EXPECT_GE(at, below);
    below = at;
  }
  EXPECT_DOUBLE_EQ(below, 1.0);
}

TEST(TraceTest, SingleThreadHandoversAreAllSameCpu) {
  auto machine = sim::Machine::PaperArm();
  auto config = BaseConfig(machine);
  config.num_threads = 1;
  auto result = harness::RunLockBench(config);
  EXPECT_DOUBLE_EQ(result.HandoverLocalityAt(topo::Topology::kSameCpu), 1.0);
}

TEST(TraceTest, NumaAwareLockHasMoreLocalHandovers) {
  // The paper's §5 claim in miniature: a NUMA-aware composition keeps handovers inside
  // the cache cohort; its locality at the lowest level must beat a 1-level ticket lock
  // spanning the machine. (CPUs 0..3 and 32..35: two cache/numa cohorts.)
  auto machine = sim::Machine::PaperArm();
  auto config = BaseConfig(machine);
  config.cpu_assignment = {0, 1, 2, 3, 32, 33, 34, 35};
  int cache_level = machine.topology.LevelIndexByName("cache");
  auto aware = harness::RunLockBench(config);

  config.spec.hierarchy = topo::Hierarchy::Select(machine.topology, {"system"});
  config.lock_name = "tkt";
  auto oblivious = harness::RunLockBench(config);
  EXPECT_GT(aware.HandoverLocalityAt(cache_level),
            oblivious.HandoverLocalityAt(cache_level));
}

// --- Chrome export ---

TEST(TraceTest, ChromeJsonShape) {
  auto machine = sim::Machine::PaperArm();
  auto config = BaseConfig(machine);
  config.duration_ms = 0.02;
  trace::TraceBuffer buffer;
  config.trace_sink = &buffer;
  harness::RunLockBench(config);

  std::string json = trace::ChromeTraceJson(buffer, machine.topology);
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ns\"", 0), 0u);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);   // access slices
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);   // process metadata
  EXPECT_EQ(json.substr(json.size() - 4), "\n]}\n");
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// --- Building blocks ---

TEST(TraceTest, RingBufferKeepsMostRecent) {
  trace::TraceBuffer buffer(4);
  for (uint64_t i = 0; i < 10; ++i) {
    trace::Event event;
    event.start = i;
    buffer.OnEvent(event);
  }
  EXPECT_EQ(buffer.recorded(), 10u);
  EXPECT_EQ(buffer.dropped(), 6u);
  auto events = buffer.Events();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].start, 6 + i);  // chronological, oldest dropped
  }
}

TEST(TraceTest, LatencyHistogramBasics) {
  trace::LatencySummary latency;
  EXPECT_EQ(latency.MeanNs(), 0.0);
  latency.Record(sim::PsFromNs(10.0));
  latency.Record(sim::PsFromNs(20.0));
  latency.Record(sim::PsFromNs(30.0));
  EXPECT_EQ(latency.count(), 3u);
  EXPECT_DOUBLE_EQ(latency.MeanNs(), 20.0);
  EXPECT_DOUBLE_EQ(sim::NsFromPs(latency.max_ps()), 30.0);

  latency.Record(sim::PsFromNs(40.0));
  EXPECT_EQ(latency.count(), 4u);
  EXPECT_DOUBLE_EQ(latency.MeanNs(), 25.0);
}

TEST(TraceTest, BucketHelpers) {
  auto topology = topo::Topology::PaperArm();
  const int n = topology.num_levels();
  EXPECT_EQ(trace::LevelBucket(0, n), 0);
  EXPECT_EQ(trace::LevelBucket(n - 1, n), n - 1);
  EXPECT_EQ(trace::LevelBucket(topo::Topology::kSameCpu, n), trace::SameCpuBucket(n));
  EXPECT_EQ(trace::LevelBucket(n, n), trace::ColdBucket(n));
  EXPECT_EQ(trace::BucketName(trace::SameCpuBucket(n), topology), "same-cpu");
  EXPECT_EQ(trace::BucketName(trace::ColdBucket(n), topology), "cold");
  EXPECT_EQ(trace::BucketName(0, topology), topology.level(0).name);
  EXPECT_EQ(trace::BucketName(-1, topology), "hit");
}

}  // namespace
}  // namespace clof

// Determinism canary: pins the FNV-1a hash of the full transcript of a small fixed
// sweep — curves plus their observability/robustness sidecars, the selection, and a
// faulted + unfaulted single cell on both paper platforms — and of two 1024-CPU cells
// as golden constants.
//
// The repo's determinism invariant ("same program + same seed => identical virtual-time
// results") is what makes hot-path refactors of the engine safe to land: any change
// that perturbs virtual time shifts every figure. The byte-identity tests in
// parallel_sweep_test.cc only compare runs within one binary, so a silent model change
// would pass them; this test compares against a *pinned capture*, so a future hot-path
// change that shifts results fails loudly here instead of silently bending curves.
//
// The constants were captured at the pre-line-table-refactor engine
// (commit ef393a8, unordered_map lines + std::function access callbacks) and must
// survive any representation change that claims result-neutrality. They hash IEEE-754
// double bit patterns, so they are specific to a little-endian IEEE-754 host (every
// supported platform) but independent of optimization level; if a *deliberate* model
// change lands, recapture by running this test and copying the "actual" values from
// the failure output.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/clof/registry.h"
#include "src/fault/scenarios.h"
#include "src/harness/lock_bench.h"
#include "src/select/scripted_bench.h"
#include "src/sim/platform.h"
#include "src/topo/topology.h"

namespace clof {
namespace {

// FNV-1a over the raw bytes of every field, with sizes mixed in so that boundary
// shifts (e.g. one sample moving between vectors) cannot cancel out.
class Transcript {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Double(double v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void Doubles(const std::vector<double>& v) {
    U64(v.size());
    if (!v.empty()) {
      Bytes(v.data(), v.size() * sizeof(double));
    }
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

// The same small sweep shape as tests/parallel_sweep_test.cc: a handful of generated
// locks across three contention points, enough to exercise selection and sidecars.
select::SweepConfig SmallSweep(const sim::Machine& machine, bool ctr_registry) {
  select::SweepConfig config;
  config.spec.machine = &machine;
  config.spec.hierarchy = topo::Hierarchy::Select(machine.topology, {"numa", "system"});
  config.spec.registry = &SimRegistry(ctr_registry);
  config.lock_names = {"mcs-mcs", "clh-clh", "tkt-mcs", "hem-clh", "mcs-tkt"};
  config.thread_counts = {1, 4, 16};
  config.duration_ms = 0.2;
  return config;
}

uint64_t SweepTranscript(const sim::Machine& machine, bool ctr_registry) {
  select::SweepResult result = select::RunScriptedBenchmark(SmallSweep(machine, ctr_registry));
  Transcript t;
  t.U64(result.thread_counts.size());
  for (int count : result.thread_counts) {
    t.U64(static_cast<uint64_t>(count));
  }
  t.U64(result.curves.size());
  for (const auto& curve : result.curves) {
    t.Str(curve.name);
    t.Doubles(curve.throughput);
    t.Doubles(curve.local_handover_rate);
    t.Doubles(curve.transfers_per_op);
    t.Doubles(curve.acquire_p99_ns);
    // curve.acquire_p999_ns postdates the capture, so it stays out of the hash;
    // parallel_sweep_test checks it is byte-identical across worker counts.
  }
  t.Str(result.selection.hc_best);
  t.Str(result.selection.lc_best);
  t.Str(result.selection.worst);
  t.Double(result.selection.hc_best_score);
  t.Double(result.selection.lc_best_score);
  t.Double(result.selection.worst_score);
  return t.hash();
}

void HashBenchResult(Transcript& t, const harness::BenchResult& r) {
  t.Str(r.lock_name);
  t.U64(static_cast<uint64_t>(r.num_threads));
  t.U64(r.total_ops);
  t.Double(r.throughput_per_us);
  t.U64(r.per_thread_ops.size());
  for (uint64_t ops : r.per_thread_ops) {
    t.U64(ops);
  }
  t.Double(r.fairness_index);
  t.U64(r.total_accesses);
  t.U64(r.total_line_transfers);
  t.U64(r.level_metrics.size());
  for (const auto& m : r.level_metrics) {
    t.U64(m.line_transfers);
    t.U64(m.invalidations);
    t.U64(m.spin_wakeups);
    t.U64(m.port_queue_ps);
  }
  t.U64(r.total_handovers);
  for (uint64_t h : r.handovers_by_level) {
    t.U64(h);
  }
  t.U64(r.acquire_latency.count());
  t.U64(r.acquire_latency.total_ps());
  t.U64(r.acquire_latency.max_ps());
  t.U64(r.lock_level_stats.size());
  for (const auto& s : r.lock_level_stats) {
    t.U64(s.acquisitions);
    t.U64(s.inherited);
    t.U64(s.local_passes);
    t.U64(s.climbs);
    t.U64(s.threshold_climbs);
  }
  t.Double(r.acquire_p50_ns);
  t.Double(r.acquire_p99_ns);
  t.Double(r.acquire_p999_ns);
  t.Double(r.max_acquire_ns);
  t.U64(static_cast<uint64_t>(r.starved_threads));
}

// One unfaulted and one storm-faulted cell (every injector on), hashed together: the
// fault hot paths (pre-access stalls, interference fibers, churn) are part of the
// transcript this canary protects.
uint64_t CellTranscript(const sim::Machine& machine, bool ctr_registry) {
  harness::BenchConfig config;
  config.spec.machine = &machine;
  config.spec.hierarchy = topo::Hierarchy::Select(machine.topology, {"numa", "system"});
  config.spec.registry = &SimRegistry(ctr_registry);
  config.lock_name = "mcs-mcs";
  config.num_threads = 16;
  config.duration_ms = 0.2;

  Transcript t;
  HashBenchResult(t, harness::RunLockBench(config));
  config.spec.fault = fault::PlanFromSpec("all", config.spec.seed);
  HashBenchResult(t, harness::RunLockBench(config));
  return t.hash();
}

// Two 4-level cells over all 1024 CPUs of the CXL pod, the largest ready queue any
// golden cell builds: the ticket stack starts 1024 runnable threads, and its wakeup
// herds are queued through the heap's bulk Floyd rebuild (Engine::HeapBulkAppend);
// the mcs stack keeps handovers local, with long idle stretches between them.
uint64_t CxlPod1024Transcript() {
  const sim::Machine machine = sim::Machine::CxlPod1024();
  harness::BenchConfig config;
  config.spec.machine = &machine;
  config.spec.hierarchy =
      topo::Hierarchy::Select(machine.topology, {"cache", "numa", "pod", "system"});
  config.spec.registry = &SimRegistry(true);

  Transcript t;
  config.lock_name = "mcs-mcs-mcs-mcs";
  config.num_threads = 64;
  config.duration_ms = 0.15;
  HashBenchResult(t, harness::RunLockBench(config));
  config.lock_name = "tkt-tkt-tkt-tkt";
  config.num_threads = 1024;
  config.duration_ms = 0.1;
  HashBenchResult(t, harness::RunLockBench(config));
  return t.hash();
}

// Golden constants: the pre-refactor capture described in the header comment.
constexpr uint64_t kArmSweepGolden = 0x881010769f3bdf0bull;
constexpr uint64_t kX86SweepGolden = 0x0ed8e304be0aae85ull;
constexpr uint64_t kArmCellsGolden = 0x722ebbc8952e57cfull;
constexpr uint64_t kX86CellsGolden = 0x0df4c1e0649bc89eull;
// Captured at commit 2437e69, the last engine with two ready queues, where
// tests/scheduler_identity_test.cc still checked these cells heap == timing wheel.
constexpr uint64_t kCxlPod1024CellsGolden = 0xff81b46ef8ea1bf6ull;

TEST(GoldenDeterminismTest, ArmSweepTranscriptMatchesCapture) {
  uint64_t actual = SweepTranscript(sim::Machine::PaperArm(), false);
  EXPECT_EQ(actual, kArmSweepGolden) << "actual 0x" << std::hex << actual;
}

TEST(GoldenDeterminismTest, X86SweepTranscriptMatchesCapture) {
  uint64_t actual = SweepTranscript(sim::Machine::PaperX86(), true);
  EXPECT_EQ(actual, kX86SweepGolden) << "actual 0x" << std::hex << actual;
}

TEST(GoldenDeterminismTest, ArmFaultedAndUnfaultedCellsMatchCapture) {
  uint64_t actual = CellTranscript(sim::Machine::PaperArm(), false);
  EXPECT_EQ(actual, kArmCellsGolden) << "actual 0x" << std::hex << actual;
}

TEST(GoldenDeterminismTest, X86FaultedAndUnfaultedCellsMatchCapture) {
  uint64_t actual = CellTranscript(sim::Machine::PaperX86(), true);
  EXPECT_EQ(actual, kX86CellsGolden) << "actual 0x" << std::hex << actual;
}

TEST(GoldenDeterminismTest, CxlPod1024FourLevelCellsMatchCapture) {
  uint64_t actual = CxlPod1024Transcript();
  EXPECT_EQ(actual, kCxlPod1024CellsGolden) << "actual 0x" << std::hex << actual;
}

}  // namespace
}  // namespace clof

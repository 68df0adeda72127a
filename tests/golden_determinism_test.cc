// Determinism canary: pins the FNV-1a hash of the full transcript of a small fixed
// sweep — curves plus their observability/robustness sidecars, the selection, and a
// faulted + unfaulted single cell on both paper platforms — and of two 1024-CPU cells
// as golden constants. Two later captures pin cells against the harness that still
// ran ordinary locks through Acquire/Release, and a service point plus two
// pool-allocating churned cells that must not depend on the process's history.
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
#include <memory>
#include <string>
#include <vector>

#include "src/clof/registry.h"
#include "src/clof/timeout.h"
#include "src/combining/combining.h"
#include "src/fault/scenarios.h"
#include "src/harness/lock_bench.h"
#include "src/harness/service_bench.h"
#include "src/runtime/rng.h"
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

// The two Arm cells that used to be run twice, once through Lock::Execute and once
// through Acquire/Release, to show the closure shim issues the classic access
// sequence. Every harness now runs its critical sections through Execute, so the cells
// are pinned against the capture of the Acquire/Release path instead.
uint64_t ArmExecuteShimTranscript() {
  const sim::Machine machine = sim::Machine::PaperArm();
  harness::BenchConfig config;
  config.spec.machine = &machine;
  config.spec.hierarchy = topo::Hierarchy::Select(machine.topology, {"numa", "system"});
  config.spec.registry = &SimRegistry(false);
  config.spec.seed = 7;
  config.num_threads = 8;
  config.duration_ms = 0.2;

  Transcript t;
  for (const char* name : {"tkt-mcs", "hmcs"}) {
    config.lock_name = name;
    HashBenchResult(t, harness::RunLockBench(config));
  }
  return t.hash();
}

void HashServiceResult(Transcript& t, const harness::ServiceBenchResult& r) {
  t.U64(r.total_ops);
  t.Double(r.throughput_per_us);
  t.Double(r.offered_load_per_us);
  t.Double(r.completion_ratio);
  t.U64(r.dropped_requests);
  t.Double(r.drop_rate);
  t.Double(r.request_p50_ns);
  t.Double(r.request_p99_ns);
  t.Double(r.request_p999_ns);
  t.U64(r.sites.size());
  for (const auto& site : r.sites) {
    t.Str(site.site);
    t.Str(site.lock_name);
    t.U64(site.ops);
    t.Double(site.acquire_p50_ns);
    t.Double(site.acquire_p99_ns);
    t.Double(site.acquire_p999_ns);
    t.U64(site.dropped);
    t.Double(site.share_observed);
  }
}

// One history-sensitive workload: a saturated MiniProxy service point, whose threads
// finish at different times while others still make contexts, plus two churned cells
// whose locks allocate queue nodes from a pool mid-run (MCS-T under a deadline and
// CC-Synch), while the churned threads are long done.
uint64_t HistorySensitiveTranscript(const sim::Machine& machine, const Registry& registry) {
  const auto hierarchy = topo::Hierarchy::Select(machine.topology, {"numa", "system"});
  Transcript t;

  harness::ServiceBenchConfig service;
  service.spec.machine = &machine;
  service.spec.hierarchy = hierarchy;
  service.spec.registry = &SimRegistry(false);
  service.service = workload::ServiceProfile::MiniProxy(8);
  service.site_locks = {"mcs-hem", "clh-hem", "mcs-clh"};
  service.num_threads = 127;
  service.duration_ms = 0.25;
  service.offered_load_per_us = 12.0;
  HashServiceResult(t, harness::RunServiceBench(service));

  harness::BenchConfig cell;
  cell.spec.machine = &machine;
  cell.spec.hierarchy = hierarchy;
  cell.spec.registry = &registry;
  cell.spec.fault = fault::PlanFromSpec("churn", cell.spec.seed);
  cell.num_threads = 32;
  cell.duration_ms = 0.2;
  cell.lock_name = "mcst-mcst";
  cell.spec.deadline_ns = 400.0;
  HashBenchResult(t, harness::RunLockBench(cell));
  cell.lock_name = "ccsynch";
  cell.spec.deadline_ns = 0.0;
  HashBenchResult(t, harness::RunLockBench(cell));
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
// Captured at commit d884aef, where RunLockBench still ran these locks through
// Acquire/Release.
constexpr uint64_t kArmExecuteShimCellsGolden = 0xa10763c0181c2a0bull;
// Captured once every harness kept its lock contexts until the run ended; at d884aef
// the service point read 10.480, 10.496 and 10.488 /us over the three histories below.
constexpr uint64_t kHistoryFreeGolden = 0xcd829340aeab2ec2ull;

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

TEST(GoldenDeterminismTest, ArmExecuteShimCellsMatchCapture) {
  uint64_t actual = ArmExecuteShimTranscript();
  EXPECT_EQ(actual, kArmExecuteShimCellsGolden) << "actual 0x" << std::hex << actual;
}

// A result must be a function of its configuration alone, never of what the host
// thread ran before it: simulated lines are host addresses, so a block freed while the
// engine runs and handed out again by malloc would carry the dead object's coherence
// state into the new one. Runs the same workload fresh, after another service run, and
// after heap churn that leaves the allocator's free lists in a different state.
TEST(GoldenDeterminismTest, ServiceAndPoolCellsAreHistoryFree) {
  const sim::Machine machine = sim::Machine::PaperArm();
  const Registry registry =
      timeout::WithTimeout(combining::WithCombining(SimRegistry(false), {}));
  const uint64_t fresh = HistorySensitiveTranscript(machine, registry);

  harness::ServiceBenchConfig light;
  light.spec.machine = &machine;
  light.spec.hierarchy = topo::Hierarchy::Select(machine.topology, {"numa", "system"});
  light.spec.registry = &SimRegistry(false);
  light.service = workload::ServiceProfile::MiniProxy(8);
  light.site_locks = {"mcs-hem", "clh-hem", "mcs-clh"};
  light.num_threads = 127;
  light.duration_ms = 0.25;
  light.offered_load_per_us = 4.0;
  harness::RunServiceBench(light);
  const uint64_t after_service = HistorySensitiveTranscript(machine, registry);

  runtime::Xoshiro256 rng(2024);
  std::vector<std::unique_ptr<char[]>> kept;
  for (int i = 0; i < 2000; ++i) {
    auto block = std::make_unique<char[]>(16 + rng.NextBounded(512));
    if (rng.NextDouble() < 0.5) {
      kept.push_back(std::move(block));  // the rest is freed at the end of the iteration
    }
  }
  const uint64_t after_heap_churn = HistorySensitiveTranscript(machine, registry);

  EXPECT_EQ(fresh, after_service);
  EXPECT_EQ(fresh, after_heap_churn);
  EXPECT_EQ(fresh, kHistoryFreeGolden) << "actual 0x" << std::hex << fresh;
}

}  // namespace
}  // namespace clof

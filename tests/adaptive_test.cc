// The runtime adaptive facade (docs/ADAPTIVE.md), bottom layer up:
//
//  * SwitchGate / AdaptivePair under the mck explorer — every interleaving of two
//    acquirers racing one mid-run switch is mutual-exclusion clean, and skipping the
//    drain barrier (the seeded mut-adaptive-nodrain bug) is caught by the same
//    harness. The in-CS token is a *visible* MckMemory atomic: a host-side counter
//    would let DPOR soundly prune exactly the schedules that expose an overlap
//    (src/mck/check_lock.h explains the trap).
//  * AdaptiveLock under the simulator — forced churn and the windowed detector both
//    produce switches with well-formed trace markers, and the facade tracks the
//    winning inner lock within the issue's 10% envelope at both ramp ends.
//  * The selection bridge — select::PlanAdaptive derives the pair and thresholds
//    from a sweep, and rejects sweeps with nothing to adapt between.
//  * Determinism — a sweep that includes the facade is byte-identical across
//    jobs=1/2/4 and across a result-cache round trip, like every other lock.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/clof/adaptive.h"
#include "src/clof/registry.h"
#include "src/exec/result_cache.h"
#include "src/harness/lock_bench.h"
#include "src/locks/mcs.h"
#include "src/locks/ticket.h"
#include "src/mck/explorer.h"
#include "src/mck/mck_memory.h"
#include "src/mem/sim_memory.h"
#include "src/select/adaptive_policy.h"
#include "src/select/scripted_bench.h"
#include "src/sim/engine.h"
#include "src/sim/platform.h"
#include "src/topo/topology.h"
#include "src/trace/chrome_export.h"
#include "src/trace/trace.h"

namespace clof {
namespace {

// --- Model checking: the transition protocol over every interleaving ---

// Ticket locks on both sides: the property under exploration is the *gate's*
// transition protocol, not the inner algorithms (those have their own mck tests), and
// the smallest genuine inner lock keeps the full schedule space exhaustible.
using MckPair = adaptive::AdaptivePair<mck::MckMemory, locks::TicketLock<mck::MckMemory>,
                                       locks::TicketLock<mck::MckMemory>>;

// Two workers acquire once each around a visible in-CS token while a dedicated
// switcher thread moves the pair LC -> HC mid-run. CheckLock cannot drive this shape
// (its threads only acquire/release), so the harness is explicit.
mck::Explorer::Result ExploreOneSwitch(bool skip_drain) {
  mck::Explorer explorer;
  return explorer.Explore([skip_drain] {
    // Two stripes: only the workers (CPUs 0 and 1) ever Enter(); the switcher calls
    // no per-CPU operation.
    auto lock = std::make_shared<MckPair>(
        /*num_cpus=*/2, MckPair::Options{.start_side = 0, .skip_drain = skip_drain});
    auto in_cs = std::make_shared<mck::MckMemory::Atomic<int64_t>>(0);
    std::vector<mck::Explorer::ThreadSpec> specs;
    for (int tid = 0; tid < 2; ++tid) {
      mck::Explorer::ThreadSpec spec;
      spec.cpu = tid;
      spec.body = [lock, in_cs] {
        MckPair::Context ctx;
        lock->Acquire(ctx);
        if (in_cs->FetchAdd(1) != 0) {
          mck::Explorer::Current().Fail("mutual exclusion violated");
        }
        if (in_cs->FetchAdd(-1) != 1) {
          mck::Explorer::Current().Fail("mutual exclusion violated");
        }
        lock->Release(ctx);
      };
      specs.push_back(std::move(spec));
    }
    mck::Explorer::ThreadSpec switcher;
    switcher.cpu = 2;
    switcher.body = [lock] {
      MckPair::Context ctx;
      lock->Switch(1, ctx);
    };
    specs.push_back(std::move(switcher));
    return specs;
  });
}

TEST(AdaptiveMckTest, SwitchMidContentionIsMutualExclusionClean) {
  auto result = ExploreOneSwitch(/*skip_drain=*/false);
  EXPECT_FALSE(result.violation_found) << result.violation;
  EXPECT_TRUE(result.exhausted) << "budget must cover the full schedule space";
  EXPECT_GT(result.executions, 1u);
}

TEST(AdaptiveMckTest, SkippingTheDrainBarrierIsCaught) {
  // The same harness with the drain removed: the switcher can release the target
  // inner lock while an old-side critical section is still live, and some schedule
  // lets a post-flip arrival overlap it. This is exactly what mut-adaptive-nodrain
  // seeds for the torture oracles.
  auto result = ExploreOneSwitch(/*skip_drain=*/true);
  EXPECT_TRUE(result.violation_found);
  EXPECT_NE(result.violation.find("mutual exclusion violated"), std::string::npos)
      << result.violation;
}

// --- The SwitchGate protocol surface (host-degraded SimMemory, single thread) ---

TEST(SwitchGateTest, EnterTracksTheActiveSideAcrossASwitch) {
  auto machine = sim::Machine::PaperArm();
  sim::Engine engine(machine.topology, machine.platform);
  engine.Spawn(0, [] {
    adaptive::SwitchGate<mem::SimMemory> gate(/*num_cpus=*/2);
    EXPECT_EQ(gate.ActiveSide(), 0u);
    uint32_t side = gate.Enter();
    EXPECT_EQ(side, 0u);
    gate.Leave(side);

    bool acquired = false;
    bool released = false;
    gate.SwitchTo(
        1, [&] { acquired = true; }, [&] { released = true; });
    EXPECT_TRUE(acquired);
    EXPECT_TRUE(released);
    EXPECT_EQ(gate.ActiveSide(), 1u);
    EXPECT_EQ(gate.Enter(), 1u);
    gate.Leave(1);
  });
  engine.Run();
}

// --- The registry facade ---

adaptive::AdaptiveOptions PairOptions() {
  adaptive::AdaptiveOptions options;
  options.lc_lock = "tkt-tkt-tkt";
  options.hc_lock = "mcs-mcs-mcs";
  return options;
}

TEST(WithAdaptiveTest, RegistersTheFacadeAndKeepsItOutOfGeneratedSweeps) {
  const Registry& base = SimRegistry(false);
  const Registry registry = adaptive::WithAdaptive(base, PairOptions());
  ASSERT_TRUE(registry.Contains("adaptive"));
  auto info = registry.Info("adaptive");
  EXPECT_EQ(info.kind, Registry::Kind::kBaseline);
  EXPECT_FALSE(info.fair) << "the gate's retry loop admits bypass";

  // kBaseline keeps the facade out of generated-only sweeps (it would otherwise be
  // swept as a candidate against its own inner locks).
  Registry::NameFilter generated;
  generated.generated_only = true;
  auto names = registry.Names(generated);
  EXPECT_EQ(std::find(names.begin(), names.end(), "adaptive"), names.end());

  // The augmented description embeds the serialized options: adaptive cells never
  // share fingerprints with the base registry or with other configurations.
  EXPECT_NE(registry.description(), base.description());
  EXPECT_NE(registry.description().find(adaptive::DescribeOptions(PairOptions())),
            std::string::npos);
  Registry tuned_base = adaptive::WithAdaptive(base, [] {
    auto options = PairOptions();
    options.window = 128;
    return options;
  }());
  EXPECT_NE(registry.description(), tuned_base.description());

  auto machine = sim::Machine::PaperArm();
  auto hierarchy = topo::Hierarchy::Select(machine.topology, {"cache", "numa", "system"});
  auto lock = registry.Make("adaptive", hierarchy);
  EXPECT_EQ(lock->name(), "adaptive");
  EXPECT_FALSE(lock->is_fair());
  EXPECT_EQ(lock->levels(), 3);  // reports the HC composition's depth
}

// --- The simulated facade: forced churn, detector switching, markers ---

harness::BenchConfig FacadeBench(const sim::Machine& machine, const Registry& registry,
                                 int threads, double duration_ms) {
  harness::BenchConfig config;
  config.spec.machine = &machine;
  config.spec.hierarchy =
      topo::Hierarchy::Select(machine.topology, {"cache", "numa", "system"});
  config.spec.registry = &registry;
  config.lock_name = "adaptive";
  config.num_threads = threads;
  config.duration_ms = duration_ms;
  return config;
}

TEST(AdaptiveLockTest, ForcedChurnSwitchesAndRecordsMarkers) {
  auto machine = sim::Machine::PaperArm();
  auto options = PairOptions();
  options.detector_enabled = false;   // isolate the forced path
  options.force_switch_period = 16;   // toggle every 16 releases
  const Registry registry = adaptive::WithAdaptive(SimRegistry(false), options);

  auto result = harness::RunLockBench(FacadeBench(machine, registry, 4, 0.1));
  EXPECT_GT(result.total_ops, 0u);
  // RunLockBench's per-thread counter reconciliation already ran: churn did not break
  // mutual exclusion. Now the observability contract: one marker per switch, sides
  // alternating, virtual times nondecreasing.
  ASSERT_GE(result.lock_markers.size(), 2u);
  sim::Time last_time = 0;
  for (size_t i = 0; i < result.lock_markers.size(); ++i) {
    const trace::Marker& marker = result.lock_markers[i];
    EXPECT_EQ(marker.name, "adaptive-switch");
    EXPECT_GE(marker.cpu, 0);
    EXPECT_GE(marker.time, last_time);
    last_time = marker.time;
    const char* arrow = i % 2 == 0 ? "tkt-tkt-tkt -> mcs-mcs-mcs" : "mcs-mcs-mcs -> tkt-tkt-tkt";
    EXPECT_NE(marker.detail.find(arrow), std::string::npos) << i << ": " << marker.detail;
    EXPECT_NE(marker.detail.find("#" + std::to_string(i + 1)), std::string::npos)
        << marker.detail;
    EXPECT_NE(marker.detail.find("forced"), std::string::npos) << marker.detail;
  }

  // The markers flow into the Chrome export as instant events.
  trace::TraceBuffer buffer(16);  // no scheduler events needed, just the marker path
  std::string json =
      trace::ChromeTraceJson(buffer, machine.topology, result.lock_markers);
  EXPECT_NE(json.find("adaptive-switch"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\",\"s\":\"p\""), std::string::npos);
}

TEST(AdaptiveLockTest, DetectorUpSwitchesUnderContention) {
  auto machine = sim::Machine::PaperArm();
  auto options = PairOptions();
  options.window = 16;
  options.up_latency_ns = 1.0;        // any measurable contention trips the EWMA ...
  options.remote_handover_min = 0.0;  // ... with no locality confirmation required
  options.down_latency_ns = 0.0;      // EWMA < 0 is impossible: never switch back
  const Registry registry = adaptive::WithAdaptive(SimRegistry(false), options);

  auto result = harness::RunLockBench(FacadeBench(machine, registry, 8, 0.1));
  ASSERT_FALSE(result.lock_markers.empty())
      << "8 contending threads must trip a 1ns up-threshold";
  const trace::Marker& first = result.lock_markers.front();
  EXPECT_NE(first.detail.find("tkt-tkt-tkt -> mcs-mcs-mcs #1"), std::string::npos)
      << first.detail;
  EXPECT_NE(first.detail.find("ewma"), std::string::npos)
      << "detector switches must carry their rationale: " << first.detail;
}

TEST(AdaptiveLockTest, QuietDetectorNeverSwitches) {
  // One thread, default thresholds: no contention signal, the facade stays on the LC
  // side and records nothing — adaptation off the hot path costs no switches.
  auto machine = sim::Machine::PaperArm();
  const Registry registry = adaptive::WithAdaptive(SimRegistry(false), PairOptions());
  auto result = harness::RunLockBench(FacadeBench(machine, registry, 1, 0.1));
  EXPECT_GT(result.total_ops, 0u);
  EXPECT_TRUE(result.lock_markers.empty());
}

// The acceptance envelope, in miniature: at the quiet end the facade rides the LC
// lock, at the contended end the HC lock, within 10% of each. `clof_bench --adaptive
// --check` holds a whole ramp to it; this pins the two ends in the test suite.
TEST(AdaptiveLockTest, TracksTheWinningInnerLockWithinTenPercent) {
  auto machine = sim::Machine::PaperArm();
  auto options = PairOptions();
  const Registry registry = adaptive::WithAdaptive(SimRegistry(false), options);

  // The high end runs long enough for the pre-switch transient (one detector window
  // on the LC lock) to amortize — the same reason `clof_bench --adaptive` defaults to
  // 1ms cells.
  auto run = [&](const std::string& name, int threads, double duration_ms) {
    auto config = FacadeBench(machine, registry, threads, duration_ms);
    config.lock_name = name;
    return harness::RunLockBench(config).throughput_per_us;
  };
  const int low = 1;
  const int high = 24;
  const double lc_low = run(options.lc_lock, low, 0.2);
  const double hc_high = run(options.hc_lock, high, 1.0);
  const double adaptive_low = run("adaptive", low, 0.2);
  const double adaptive_high = run("adaptive", high, 1.0);
  EXPECT_GE(adaptive_low, 0.9 * lc_low)
      << "low end: adaptive " << adaptive_low << " vs LC " << lc_low;
  EXPECT_GE(adaptive_high, 0.9 * hc_high)
      << "high end: adaptive " << adaptive_high << " vs HC " << hc_high;
}

// --- PlanAdaptive: the sweep -> options bridge ---

TEST(PlanAdaptiveTest, DerivesThresholdsFromTheLcWinnersCurve) {
  select::SweepResult sweep;
  sweep.thread_counts = {1, 24};
  select::LockCurve lc;
  lc.name = "lc-win";
  lc.throughput = {10.0, 2.0};
  lc.acquire_p99_ns = {100.0, 2500.0};
  select::LockCurve hc;
  hc.name = "hc-win";
  hc.throughput = {5.0, 8.0};
  hc.acquire_p99_ns = {200.0, 400.0};
  sweep.curves = {lc, hc};
  sweep.selection.lc_best = "lc-win";
  sweep.selection.hc_best = "hc-win";
  sweep.IndexCurves();

  auto options = select::PlanAdaptive(sweep);
  EXPECT_EQ(options.lc_lock, "lc-win");
  EXPECT_EQ(options.hc_lock, "hc-win");
  // base = 100, peak = 2500: down = 1.5*base, up = max(3*base, sqrt(base*peak)) = 500.
  EXPECT_DOUBLE_EQ(options.down_latency_ns, 150.0);
  EXPECT_DOUBLE_EQ(options.up_latency_ns, 500.0);

  // The floor: a flat curve (peak == base) falls back to 3x base.
  sweep.curves[0].acquire_p99_ns = {100.0, 100.0};
  sweep.IndexCurves();
  EXPECT_DOUBLE_EQ(select::PlanAdaptive(sweep).up_latency_ns, 300.0);
}

TEST(PlanAdaptiveTest, RejectsSweepsWithNothingToAdaptBetween) {
  select::SweepResult empty;  // no selection at all (e.g. everything quarantined)
  EXPECT_THROW(select::PlanAdaptive(empty), std::invalid_argument);

  select::SweepResult no_sidecar;
  select::LockCurve bare;
  bare.name = "bare";
  bare.throughput = {1.0};
  no_sidecar.thread_counts = {4};
  no_sidecar.curves = {bare};
  no_sidecar.selection.lc_best = "bare";
  no_sidecar.selection.hc_best = "bare";
  no_sidecar.IndexCurves();
  EXPECT_THROW(select::PlanAdaptive(no_sidecar), std::invalid_argument);
}

// --- Determinism: the facade behaves like any other lock under the executor ---

select::SweepConfig AdaptiveSweep(const sim::Machine& machine, const Registry& registry) {
  select::SweepConfig config;
  config.spec.machine = &machine;
  config.spec.hierarchy =
      topo::Hierarchy::Select(machine.topology, {"cache", "numa", "system"});
  config.spec.registry = &registry;
  config.lock_names = {"tkt-tkt-tkt", "mcs-mcs-mcs", "adaptive"};
  config.thread_counts = {2, 8};
  config.duration_ms = 0.05;
  return config;
}

void ExpectSweepBitIdentical(const select::SweepResult& a, const select::SweepResult& b,
                             const std::string& label) {
  ASSERT_EQ(a.curves.size(), b.curves.size()) << label;
  for (size_t i = 0; i < a.curves.size(); ++i) {
    EXPECT_EQ(a.curves[i].name, b.curves[i].name) << label;
    ASSERT_EQ(a.curves[i].throughput.size(), b.curves[i].throughput.size()) << label;
    EXPECT_EQ(std::memcmp(a.curves[i].throughput.data(), b.curves[i].throughput.data(),
                          a.curves[i].throughput.size() * sizeof(double)),
              0)
        << label << " lock " << a.curves[i].name;
    EXPECT_EQ(std::memcmp(a.curves[i].acquire_p99_ns.data(),
                          b.curves[i].acquire_p99_ns.data(),
                          a.curves[i].acquire_p99_ns.size() * sizeof(double)),
              0)
        << label << " lock " << a.curves[i].name;
  }
  EXPECT_EQ(a.selection.hc_best, b.selection.hc_best) << label;
  EXPECT_EQ(a.quarantined, b.quarantined) << label;
}

TEST(AdaptiveSweepTest, ByteIdenticalAcrossJobsAndTheCache) {
  auto machine = sim::Machine::PaperArm();
  auto options = PairOptions();
  options.force_switch_period = 96;  // real switching inside the measured cells
  const Registry registry = adaptive::WithAdaptive(SimRegistry(false), options);

  auto config = AdaptiveSweep(machine, registry);
  config.jobs = 1;
  auto serial = select::RunScriptedBenchmark(config);
  EXPECT_TRUE(serial.quarantined.empty());
  config.jobs = 2;
  ExpectSweepBitIdentical(serial, select::RunScriptedBenchmark(config), "jobs=1 vs 2");
  config.jobs = 4;
  ExpectSweepBitIdentical(serial, select::RunScriptedBenchmark(config), "jobs=1 vs 4");

  std::string dir = std::string(::testing::TempDir()) + "/clof_adaptive_cache";
  std::filesystem::remove_all(dir);
  exec::ResultCache cache(dir);
  config.cache = &cache;
  auto cold = select::RunScriptedBenchmark(config);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_GT(cache.stores(), 0u);
  auto warm = select::RunScriptedBenchmark(config);
  EXPECT_EQ(cache.hits(), cache.stores()) << "second run must be fully cache-served";
  ExpectSweepBitIdentical(serial, cold, "serial vs cold-cache");
  ExpectSweepBitIdentical(cold, warm, "computed vs cache-served");
}

}  // namespace
}  // namespace clof

// clof::fault acceptance tests (docs/FAULT_INJECTION.md). The two load-bearing
// properties from the issue:
//  * a disabled FaultPlan is invisible — an installed hook with an all-default plan is
//    bit-identical to no fault layer at all, and a disabled robustness scenario retains
//    exactly 100% of baseline throughput;
//  * a faulted run is exactly as deterministic as an unfaulted one — byte-identical
//    across worker counts and across the result cache, mirroring parallel_sweep_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/clof/registry.h"
#include "src/exec/result_cache.h"
#include "src/fault/injector.h"
#include "src/fault/scenarios.h"
#include "src/harness/lock_bench.h"
#include "src/mem/sim_memory.h"
#include "src/runtime/rng.h"
#include "src/select/scripted_bench.h"
#include "src/sim/engine.h"
#include "src/sim/platform.h"
#include "src/torture/mutants.h"

namespace clof {
namespace {

using AtomicU64 = mem::SimMemory::Atomic<uint64_t>;

struct alignas(64) PaddedAtomic {
  AtomicU64 value{0};
};

// --- Engine level: an installed hook with an all-default plan is invisible ---

// A small contended workload; returns every fiber's final virtual time plus the
// engine's coherence totals, so "identical" covers timing and traffic alike.
std::vector<double> RunEngineWorkload(sim::FaultHook* hook) {
  sim::Machine m = sim::Machine::PaperArm();
  sim::Engine engine(m.topology, m.platform);
  engine.SetFaultHook(hook);
  auto line = std::make_unique<PaddedAtomic>();
  std::vector<double> out(4, 0.0);
  for (int t = 0; t < 4; ++t) {
    engine.Spawn(t * 5, [&, t] {
      auto& eng = sim::Engine::Current();
      for (int i = 0; i < 50; ++i) {
        eng.Work(25.0);
        line->value.FetchAdd(1);
      }
      out[static_cast<size_t>(t)] = eng.NowNs();
    });
  }
  engine.Run();
  out.push_back(static_cast<double>(engine.total_accesses()));
  out.push_back(static_cast<double>(engine.total_line_transfers()));
  return out;
}

TEST(FaultInjectorTest, DefaultPlanHookIsBitIdenticalToNoHook) {
  std::vector<double> bare = RunEngineWorkload(nullptr);
  fault::Injector idle(fault::FaultPlan{}, /*run_seed=*/42, /*num_cpus=*/256);
  std::vector<double> hooked = RunEngineWorkload(&idle);
  ASSERT_EQ(bare.size(), hooked.size());
  EXPECT_EQ(std::memcmp(bare.data(), hooked.data(), bare.size() * sizeof(double)), 0)
      << "an all-disabled FaultPlan must be invisible to the engine";
}

TEST(FaultInjectorTest, PreemptionStallsAreDeterministicPerThread) {
  fault::FaultPlan plan;
  plan.preempt.enabled = true;
  auto collect = [&] {
    fault::Injector injector(plan, 42, 16);
    std::vector<sim::Time> stalls;
    sim::Time now = 0;
    for (int i = 0; i < 200; ++i) {
      now += sim::PsFromNs(1000.0);
      stalls.push_back(injector.PreAccessStall(/*thread_id=*/3, /*cpu=*/0, now));
    }
    return stalls;
  };
  EXPECT_EQ(collect(), collect());
}

TEST(FaultInjectorTest, HeteroMapDependsOnPlanSeedOnly) {
  fault::FaultPlan plan;
  plan.hetero.enabled = true;
  fault::Injector a(plan, /*run_seed=*/1, 64);
  fault::Injector b(plan, /*run_seed=*/999, 64);  // different rep of a median run
  bool any_slow = false;
  for (int cpu = 0; cpu < 64; ++cpu) {
    EXPECT_EQ(a.WorkScale(cpu), b.WorkScale(cpu)) << "cpu " << cpu;
    any_slow = any_slow || a.WorkScale(cpu) != 1.0;
  }
  EXPECT_TRUE(any_slow) << "slow_fraction=0.5 over 64 CPUs must slow some of them";
}

// --- Scenario parsing ---

TEST(FaultScenariosTest, PlanFromSpecParsesInjectorLists) {
  fault::FaultPlan plan = fault::PlanFromSpec("preempt,churn", 7);
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_TRUE(plan.preempt.enabled);
  EXPECT_TRUE(plan.churn.enabled);
  EXPECT_FALSE(plan.hetero.enabled);
  EXPECT_FALSE(plan.interference.enabled);

  fault::FaultPlan all = fault::PlanFromSpec("all", 7);
  EXPECT_TRUE(all.preempt.enabled && all.hetero.enabled && all.interference.enabled &&
              all.churn.enabled);
  EXPECT_FALSE(fault::PlanFromSpec("none", 7).AnyEnabled());
  EXPECT_THROW(fault::PlanFromSpec("cosmic-rays", 7), std::invalid_argument);
  // An empty token, or a `none` that shares the list, names no plan.
  for (const char* spec : {"", ",", "preempt,,churn", "preempt,", ",churn", "none,preempt",
                           "preempt,none", "none,none"}) {
    EXPECT_THROW(fault::PlanFromSpec(spec, 7), std::invalid_argument) << spec;
  }
}

// The injectors `spec` names, read by this test's own tokenizer: preempt, hetero,
// interference, churn, in that order; nullopt for an empty or unknown token, or for a
// `none` that is not the whole spec.
std::optional<std::array<bool, 4>> NamedInjectors(const std::string& spec) {
  const std::vector<std::string> names = {"preempt", "hetero", "interference", "churn"};
  std::array<bool, 4> on{};
  std::vector<std::string> tokens(1);
  for (char c : spec) {
    if (c == ',') {
      tokens.emplace_back();
    } else {
      tokens.back() += c;
    }
  }
  for (const std::string& token : tokens) {
    const auto name = std::find(names.begin(), names.end(), token);
    if (name != names.end()) {
      on[name - names.begin()] = true;
    } else if (token == "all" || token == "storm") {
      on.fill(true);
    } else if (token != "none" || tokens.size() != 1) {
      return std::nullopt;
    }
  }
  return on;
}

TEST(FaultScenariosTest, PlanFromSpecSurvivesCutsAndByteFlips) {
  // Every cut of a full injector list plus a fixed set of seeded single-byte flips. Each
  // input is rejected with std::invalid_argument or gives exactly the plan it names.
  const std::string spec = "preempt,hetero,interference,churn";
  std::vector<std::string> inputs;
  for (size_t cut = 0; cut <= spec.size(); ++cut) {
    inputs.push_back(spec.substr(0, cut));
  }
  const std::string separators = ",aelmnorst ";
  runtime::Xoshiro256 rng(20211026);
  for (int i = 0; i < 4096; ++i) {
    std::string flipped = spec;
    const uint64_t draw = rng.Next();
    flipped[draw % spec.size()] =
        (draw >> 32) & 1 ? static_cast<char>(rng.Next() & 0xff)
                         : separators[rng.Next() % separators.size()];
    inputs.push_back(flipped);
  }
  int accepted = 0;
  for (const std::string& input : inputs) {
    const auto named = NamedInjectors(input);
    try {
      const fault::FaultPlan plan = fault::PlanFromSpec(input, 7);
      ++accepted;
      ASSERT_TRUE(named.has_value()) << "accepted: " << input;
      EXPECT_EQ(plan.seed, 7u) << input;
      EXPECT_EQ(plan.preempt.enabled, (*named)[0]) << input;
      EXPECT_EQ(plan.hetero.enabled, (*named)[1]) << input;
      EXPECT_EQ(plan.interference.enabled, (*named)[2]) << input;
      EXPECT_EQ(plan.churn.enabled, (*named)[3]) << input;
    } catch (const std::invalid_argument&) {
      EXPECT_FALSE(named.has_value()) << "rejected: " << input;
    }
  }
  EXPECT_GE(accepted, 4);  // the cuts that end on a token boundary, the whole spec among them
}

TEST(FaultScenariosTest, DefaultMatrixCoversEveryInjectorPlusStorm) {
  auto matrix = fault::DefaultMatrix(42);
  ASSERT_EQ(matrix.size(), 5u);
  EXPECT_EQ(matrix.back().name, "storm");
  for (const auto& scenario : matrix) {
    EXPECT_TRUE(scenario.plan.AnyEnabled()) << scenario.name;
    EXPECT_EQ(scenario.plan.seed, 42u) << scenario.name;
  }
}

// --- Harness level: each injector perturbs the run the way it claims to ---

harness::BenchConfig SmallBench(const sim::Machine& machine) {
  harness::BenchConfig config;
  config.spec.machine = &machine;
  config.spec.hierarchy = topo::Hierarchy::Select(machine.topology, {"numa", "system"});
  config.spec.registry = &SimRegistry(false);
  config.lock_name = "mcs-mcs";
  config.num_threads = 8;
  config.duration_ms = 0.3;
  return config;
}

TEST(FaultHarnessTest, FaultedRunsAreSeedDeterministic) {
  auto machine = sim::Machine::PaperArm();
  harness::BenchConfig config = SmallBench(machine);
  config.spec.fault = fault::PlanFromSpec("all", config.spec.seed);
  auto a = harness::RunLockBench(config);
  auto b = harness::RunLockBench(config);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.per_thread_ops, b.per_thread_ops);
  EXPECT_EQ(std::memcmp(&a.throughput_per_us, &b.throughput_per_us, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.acquire_p99_ns, &b.acquire_p99_ns, sizeof(double)), 0);
  EXPECT_EQ(a.total_line_transfers, b.total_line_transfers);
}

TEST(FaultHarnessTest, PreemptionCostsThroughputAndRaisesTail) {
  auto machine = sim::Machine::PaperArm();
  harness::BenchConfig config = SmallBench(machine);
  auto base = harness::RunLockBench(config);
  config.spec.fault.preempt.enabled = true;
  auto faulted = harness::RunLockBench(config);
  EXPECT_LT(faulted.throughput_per_us, base.throughput_per_us);
  EXPECT_GT(faulted.acquire_p99_ns, base.acquire_p99_ns)
      << "a preempted holder must convoy the FIFO waiters behind it";
}

TEST(FaultHarnessTest, HeterogeneousCpusCostThroughput) {
  auto machine = sim::Machine::PaperArm();
  harness::BenchConfig config = SmallBench(machine);
  auto base = harness::RunLockBench(config);
  config.spec.fault.hetero.enabled = true;
  auto faulted = harness::RunLockBench(config);
  EXPECT_LT(faulted.throughput_per_us, base.throughput_per_us);
}

TEST(FaultHarnessTest, InterferenceAddsLineTransfers) {
  auto machine = sim::Machine::PaperArm();
  harness::BenchConfig config = SmallBench(machine);
  auto base = harness::RunLockBench(config);
  config.spec.fault.interference.enabled = true;
  auto faulted = harness::RunLockBench(config);
  EXPECT_GT(faulted.total_accesses, base.total_accesses);
  EXPECT_GT(faulted.total_line_transfers, base.total_line_transfers);
  // The hammer fibers never acquire, so per-thread op accounting stays intact.
  EXPECT_EQ(faulted.per_thread_ops.size(), static_cast<size_t>(config.num_threads));
}

TEST(FaultHarnessTest, ChurnStopsASeededSubsetEarly) {
  auto machine = sim::Machine::PaperArm();
  harness::BenchConfig config = SmallBench(machine);
  auto base = harness::RunLockBench(config);
  config.spec.fault.churn.enabled = true;
  auto faulted = harness::RunLockBench(config);
  EXPECT_LT(faulted.total_ops, base.total_ops);
  // Stopped threads still banked their pre-stop iterations: churn is not starvation.
  EXPECT_EQ(faulted.starved_threads, 0);
}

// --- Perturbation re-ranking: determinism across jobs and the cache, exact no-op
// identity ---

// Both ranking objectives run the same candidate x scenario executor loop; the
// determinism tests below cover each.
constexpr select::Objective kObjectives[] = {select::Objective::kRetainedThroughput,
                                             select::Objective::kWorstP999};

select::PerturbationConfig SmallRobustness(
    const sim::Machine& machine,
    select::Objective objective = select::Objective::kRetainedThroughput) {
  select::PerturbationConfig config;
  config.sweep.spec.machine = &machine;
  config.sweep.spec.hierarchy =
      topo::Hierarchy::Select(machine.topology, {"numa", "system"});
  config.sweep.spec.registry = &SimRegistry(false);
  config.sweep.lock_names = {"mcs-mcs", "clh-clh", "tkt-mcs"};
  config.sweep.thread_counts = {1, 4, 16};
  config.sweep.duration_ms = 0.2;
  config.objective = objective;
  config.candidates = 2;
  return config;
}

// Bitwise equality of two re-ranking results, memcmp on every double (mirrors
// parallel_sweep_test::ExpectBitIdentical).
void ExpectRobustnessBitIdentical(const select::PerturbationResult& a,
                                  const select::PerturbationResult& b,
                                  const std::string& label) {
  EXPECT_EQ(a.sweep.selection.hc_best, b.sweep.selection.hc_best) << label;
  EXPECT_EQ(a.probe_threads, b.probe_threads) << label;
  ASSERT_EQ(a.locks.size(), b.locks.size()) << label;
  for (size_t i = 0; i < a.locks.size(); ++i) {
    const select::PerturbedLock& la = a.locks[i];
    const select::PerturbedLock& lb = b.locks[i];
    EXPECT_EQ(la.name, lb.name) << label;
    std::vector<double> da = {la.hc_score, la.baseline_throughput, la.baseline_p99_ns,
                              la.baseline_p999_ns, la.worst_retention, la.worst_p999_ns,
                              la.score};
    std::vector<double> db = {lb.hc_score, lb.baseline_throughput, lb.baseline_p99_ns,
                              lb.baseline_p999_ns, lb.worst_retention, lb.worst_p999_ns,
                              lb.score};
    for (const auto& outcome : la.outcomes) {
      da.insert(da.end(), {outcome.throughput_per_us, outcome.retention,
                           outcome.acquire_p99_ns, outcome.acquire_p999_ns,
                           static_cast<double>(outcome.starved_threads)});
    }
    for (const auto& outcome : lb.outcomes) {
      db.insert(db.end(), {outcome.throughput_per_us, outcome.retention,
                           outcome.acquire_p99_ns, outcome.acquire_p999_ns,
                           static_cast<double>(outcome.starved_threads)});
    }
    ASSERT_EQ(da.size(), db.size()) << label << " lock " << la.name;
    EXPECT_EQ(std::memcmp(da.data(), db.data(), da.size() * sizeof(double)), 0)
        << label << " lock " << la.name;
  }
  EXPECT_EQ(a.best, b.best) << label;
  EXPECT_EQ(a.winner_changed, b.winner_changed) << label;
}

TEST(RobustnessTest, WorkerCountDoesNotChangeResults) {
  auto machine = sim::Machine::PaperArm();
  for (select::Objective objective : kObjectives) {
    SCOPED_TRACE(select::ObjectiveName(objective));
    select::PerturbationConfig config = SmallRobustness(machine, objective);
    config.sweep.jobs = 1;
    auto serial = select::RunPerturbationRanking(config);
    config.sweep.jobs = 2;
    auto two = select::RunPerturbationRanking(config);
    config.sweep.jobs = 4;
    auto four = select::RunPerturbationRanking(config);
    ExpectRobustnessBitIdentical(serial, two, "jobs=1 vs jobs=2");
    ExpectRobustnessBitIdentical(serial, four, "jobs=1 vs jobs=4");
  }
}

TEST(RobustnessTest, CacheRoundTripIsByteIdentical) {
  auto machine = sim::Machine::PaperArm();
  for (select::Objective objective : kObjectives) {
    SCOPED_TRACE(select::ObjectiveName(objective));
    // One cache per objective: the two share every sweep cell, so a shared directory
    // would serve the second objective's cold run.
    std::string dir = std::string(::testing::TempDir()) + "/clof_fault_cache_" +
                      select::ObjectiveName(objective);
    std::filesystem::remove_all(dir);  // reruns must start cold
    exec::ResultCache cache(dir);
    select::PerturbationConfig config = SmallRobustness(machine, objective);
    config.sweep.jobs = 2;
    config.sweep.cache = &cache;

    auto cold = select::RunPerturbationRanking(config);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_GT(cache.stores(), 0u);
    const uint64_t cells = cache.stores();

    auto warm = select::RunPerturbationRanking(config);
    EXPECT_EQ(cache.hits(), cells) << "second run must be fully cache-served";
    ExpectRobustnessBitIdentical(cold, warm, "computed vs cache-served");
  }
}

TEST(RobustnessTest, DisabledScenarioRetainsExactlyEverything) {
  auto machine = sim::Machine::PaperArm();
  select::PerturbationConfig config = SmallRobustness(machine);
  config.sweep.jobs = 2;
  // One all-disabled scenario: the "perturbed" cells must replay the baseline cells
  // byte for byte, so retention is exactly 1.0 — the no-fault identity from the issue.
  config.scenarios = {{"noop", fault::FaultPlan{}}};
  auto result = select::RunPerturbationRanking(config);
  ASSERT_FALSE(result.locks.empty());
  for (const auto& lock : result.locks) {
    ASSERT_EQ(lock.outcomes.size(), 1u);
    const select::PerturbedCell& outcome = lock.outcomes.front();
    EXPECT_EQ(std::memcmp(&outcome.throughput_per_us, &lock.baseline_throughput,
                          sizeof(double)),
              0)
        << lock.name;
    EXPECT_EQ(outcome.retention, 1.0) << lock.name;
    EXPECT_EQ(std::memcmp(&outcome.acquire_p99_ns, &lock.baseline_p99_ns, sizeof(double)),
              0)
        << lock.name;
    EXPECT_EQ(lock.worst_retention, 1.0) << lock.name;
    EXPECT_EQ(std::memcmp(&lock.score, &lock.hc_score, sizeof(double)), 0)
        << lock.name;
  }
  EXPECT_EQ(result.best, result.sweep.selection.hc_best);
  EXPECT_FALSE(result.winner_changed);
}

// The p999 objective's mirror of the test above. Its baseline is read off the sweep
// curve at the probe point, so this pins that the curve carries the cell's p999 and
// not its p99.
TEST(RobustnessTest, DisabledScenarioKeepsTheBaselineP999Exactly) {
  auto machine = sim::Machine::PaperArm();
  select::PerturbationConfig config =
      SmallRobustness(machine, select::Objective::kWorstP999);
  config.sweep.jobs = 2;
  config.scenarios = {{"noop", fault::FaultPlan{}}};
  auto result = select::RunPerturbationRanking(config);
  ASSERT_FALSE(result.locks.empty());
  for (const auto& lock : result.locks) {
    ASSERT_EQ(lock.outcomes.size(), 1u);
    const select::PerturbedCell& outcome = lock.outcomes.front();
    EXPECT_EQ(std::memcmp(&outcome.acquire_p999_ns, &lock.baseline_p999_ns,
                          sizeof(double)),
              0)
        << lock.name << ": scenario p999 " << outcome.acquire_p999_ns
        << " vs baseline p999 " << lock.baseline_p999_ns;
    EXPECT_EQ(std::memcmp(&lock.score, &lock.baseline_p999_ns, sizeof(double)), 0)
        << lock.name;
  }
}

TEST(RobustnessTest, RejectsAFaultedBaselineSweep) {
  auto machine = sim::Machine::PaperArm();
  select::PerturbationConfig config = SmallRobustness(machine);
  config.sweep.spec.fault.preempt.enabled = true;
  EXPECT_THROW(select::RunPerturbationRanking(config), std::invalid_argument);
}

TEST(RobustnessTest, CandidatesIncludeTheLcBest) {
  auto machine = sim::Machine::PaperArm();
  select::PerturbationConfig config = SmallRobustness(machine);
  config.candidates = 1;  // force the LC-best to be appended if it is not HC-top-1
  auto result = select::RunPerturbationRanking(config);
  bool found = false;
  for (const auto& lock : result.locks) {
    found = found || lock.name == result.sweep.selection.lc_best;
  }
  EXPECT_TRUE(found) << "the LC-best must always be in the candidate set";
}

TEST(RobustnessTest, OverlongCandidateRequestClampsWithANote) {
  auto machine = sim::Machine::PaperArm();
  select::PerturbationConfig config = SmallRobustness(machine);
  config.candidates = 10;  // only 3 locks swept
  auto result = select::RunPerturbationRanking(config);
  EXPECT_EQ(result.locks.size(), 3u) << "clamp to the survivors, not silence or throw";
  EXPECT_NE(result.note.find("requested top-10"), std::string::npos) << result.note;
  EXPECT_NE(result.note.find("3 lock(s) survived"), std::string::npos) << result.note;
  EXPECT_FALSE(result.best.empty());

  // A request the sweep can satisfy stays note-free.
  config.candidates = 2;
  EXPECT_TRUE(select::RunPerturbationRanking(config).note.empty());
}

TEST(RobustnessTest, AllQuarantinedBaselineExplainsItselfInsteadOfRanking) {
  auto machine = sim::Machine::PaperArm();
  select::PerturbationConfig config = SmallRobustness(machine);
  config.sweep.spec.registry = &torture::MutantRegistry();
  config.sweep.lock_names = {"mut-skip-unlock"};  // deadlocks in every cell
  auto result = select::RunPerturbationRanking(config);
  EXPECT_TRUE(result.sweep.Quarantined("mut-skip-unlock"));
  EXPECT_TRUE(result.locks.empty());
  EXPECT_TRUE(result.best.empty());
  EXPECT_FALSE(result.winner_changed);
  EXPECT_NE(result.note.find("quarantined all 1 lock(s)"), std::string::npos)
      << result.note;
}

}  // namespace
}  // namespace clof

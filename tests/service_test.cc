// Multi-lock service tests (docs/SERVICE.md): the Zipf/arrival samplers that drive
// request generation, structured service/spec validation, the per-site sweep-proxy
// math, and the determinism + caching guarantees of RunServiceBench and
// RunSiteSelection (byte-identical across host worker counts and cached re-runs).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/clof/registry.h"
#include "src/clof/run_spec.h"
#include "src/exec/result_cache.h"
#include "src/harness/service_bench.h"
#include "src/runtime/rng.h"
#include "src/select/site_selection.h"
#include "src/sim/platform.h"
#include "src/workload/arrivals.h"
#include "src/workload/service.h"

namespace clof {
namespace {

using workload::LockSite;
using workload::OpenLoopArrivals;
using workload::ServiceProfile;
using workload::ZipfSampler;

// ---------------------------------------------------------------------------
// ZipfSampler
// ---------------------------------------------------------------------------

TEST(ZipfSamplerTest, RejectsBadParameters) {
  EXPECT_THROW(ZipfSampler(0, 0.5), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -0.1), std::invalid_argument);
  EXPECT_NO_THROW(ZipfSampler(10, 0.0));
  EXPECT_NO_THROW(ZipfSampler(10, 0.99));
}

TEST(ZipfSamplerTest, ZeroThetaDegeneratesToUniform) {
  const uint64_t n = 16;
  ZipfSampler zipf(n, 0.0);
  for (uint64_t k = 0; k < n; ++k) {
    EXPECT_DOUBLE_EQ(zipf.Probability(k), 1.0 / static_cast<double>(n));
  }
  runtime::Xoshiro256 rng(7);
  const int draws = 100000;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < draws; ++i) {
    const uint64_t rank = zipf.Next(rng);
    ASSERT_LT(rank, n);
    ++counts[rank];
  }
  // Every rank within 5% relative of the uniform expectation (>4 sigma of slack;
  // the draw is deterministic anyway).
  const double expected = static_cast<double>(draws) / static_cast<double>(n);
  for (uint64_t k = 0; k < n; ++k) {
    EXPECT_NEAR(counts[k], expected, 0.05 * expected) << "rank " << k;
  }
}

TEST(ZipfSamplerTest, SkewedDrawsMatchTheStatedDistribution) {
  const uint64_t n = 1024;
  ZipfSampler zipf(n, 0.99);
  // Probabilities are a proper, monotonically decreasing distribution.
  double total = 0.0;
  for (uint64_t k = 0; k < n; ++k) {
    total += zipf.Probability(k);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(zipf.Probability(0), zipf.Probability(1));
  EXPECT_GT(zipf.Probability(1), zipf.Probability(10));
  EXPECT_GT(zipf.Probability(10), zipf.Probability(1000));

  // The head of the empirical distribution matches Probability(): rank 0 is drawn
  // exactly when u < P(0) in Gray's inverse CDF, so its frequency is a direct check.
  runtime::Xoshiro256 rng(11);
  const int draws = 200000;
  int rank0 = 0;
  for (int i = 0; i < draws; ++i) {
    if (zipf.Next(rng) == 0) {
      ++rank0;
    }
  }
  const double expected = zipf.Probability(0) * draws;
  EXPECT_NEAR(rank0, expected, 0.05 * expected);
}

TEST(ZipfSamplerTest, DeterministicForSeed) {
  ZipfSampler zipf(256, 0.9);
  runtime::Xoshiro256 a(42);
  runtime::Xoshiro256 b(42);
  runtime::Xoshiro256 c(43);
  bool seeds_differ = false;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t va = zipf.Next(a);
    EXPECT_EQ(va, zipf.Next(b));
    seeds_differ = seeds_differ || va != zipf.Next(c);
  }
  EXPECT_TRUE(seeds_differ);
}

// ---------------------------------------------------------------------------
// OpenLoopArrivals
// ---------------------------------------------------------------------------

TEST(OpenLoopArrivalsTest, RejectsNonPositiveRate) {
  EXPECT_THROW(OpenLoopArrivals(0.0), std::invalid_argument);
  EXPECT_THROW(OpenLoopArrivals(-1.0), std::invalid_argument);
  EXPECT_NO_THROW(OpenLoopArrivals(0.25));
}

TEST(OpenLoopArrivalsTest, GapsArePositiveWithTheStatedMean) {
  OpenLoopArrivals arrivals(2.0);  // 2 requests/us => 500 ns mean gap
  EXPECT_DOUBLE_EQ(arrivals.MeanGapNs(), 500.0);
  runtime::Xoshiro256 rng(5);
  const int draws = 100000;
  double sum = 0.0;
  for (int i = 0; i < draws; ++i) {
    const double gap = arrivals.NextGapNs(rng);
    ASSERT_GT(gap, 0.0);
    sum += gap;
  }
  EXPECT_NEAR(sum / draws, arrivals.MeanGapNs(), 0.02 * arrivals.MeanGapNs());
}

TEST(OpenLoopArrivalsTest, DeterministicForSeed) {
  OpenLoopArrivals arrivals(1.5);
  runtime::Xoshiro256 a(9);
  runtime::Xoshiro256 b(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_DOUBLE_EQ(arrivals.NextGapNs(a), arrivals.NextGapNs(b));
  }
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

TEST(ServiceValidationTest, MiniProxyIsValid) {
  ServiceProfile service = ServiceProfile::MiniProxy();
  SpecValidation validation = ValidateServiceProfile(service);
  EXPECT_TRUE(validation.ok()) << validation.Format();
  EXPECT_EQ(service.sites.size(), 3u);
}

TEST(ServiceValidationTest, ReportsEveryIssueAtOnce) {
  ServiceProfile service;
  service.name = "broken";
  service.keys = 0;        // empty key space
  service.zipf_theta = 1.0;  // outside Gray's approximation domain
  LockSite bad;
  bad.name = "";        // unnamed
  bad.share = 0.0;      // non-positive share
  bad.instances = 0;    // no lock instances
  service.sites.push_back(bad);
  LockSite dup;
  dup.name = "dup";
  service.sites.push_back(dup);
  service.sites.push_back(dup);  // duplicate name

  SpecValidation validation = ValidateServiceProfile(service);
  ASSERT_FALSE(validation.ok());
  // Every problem reported in one pass, not just the first.
  EXPECT_GE(validation.issues.size(), 6u) << validation.Format();
  const std::string text = validation.Format();
  EXPECT_NE(text.find("sites[0].name"), std::string::npos) << text;
  EXPECT_NE(text.find("sites[0].share"), std::string::npos) << text;
  EXPECT_NE(text.find("sites[0].instances"), std::string::npos) << text;
  EXPECT_NE(text.find("duplicate site name 'dup'"), std::string::npos) << text;
  EXPECT_NE(text.find("service.keys"), std::string::npos) << text;
  EXPECT_NE(text.find("service.zipf_theta"), std::string::npos) << text;
}

TEST(ServiceValidationTest, RunSpecCollectsStructuralAndSiteIssues) {
  // A default-constructed spec is doubly broken: no machine, no hierarchy.
  RunSpec empty;
  SpecValidation validation = empty.Validate();
  ASSERT_FALSE(validation.ok());
  EXPECT_GE(validation.issues.size(), 2u) << validation.Format();

  auto machine = sim::Machine::PaperArm();
  RunSpec spec;
  spec.machine = &machine;
  spec.hierarchy = topo::Hierarchy::Select(machine.topology, {"numa", "system"});
  spec.registry = &SimRegistry(false);
  EXPECT_TRUE(spec.Validate().ok()) << spec.Validate().Format();

  LockSite bad;
  bad.name = "";
  bad.share = -1.0;
  spec.sites.push_back(bad);
  validation = spec.Validate();
  ASSERT_FALSE(validation.ok());
  EXPECT_NE(validation.Format().find("sites[0]"), std::string::npos)
      << validation.Format();
  // ValidateOrThrow names the entry point and carries the full issue list.
  try {
    spec.ValidateOrThrow("ServiceTest");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("ServiceTest:"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("sites[0]"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Sweep-proxy math
// ---------------------------------------------------------------------------

TEST(SweepProxyTest, ServiceRequestNsIsShareWeighted) {
  ServiceProfile service;
  service.name = "math";
  LockSite a;
  a.name = "a";
  a.share = 3.0;
  a.profile.think_ns = 100.0;
  a.profile.cs_work_ns = 50.0;
  LockSite b;
  b.name = "b";
  b.share = 1.0;
  b.profile.think_ns = 400.0;
  b.profile.cs_work_ns = 0.0;
  service.sites = {a, b};
  // (3 * 150 + 1 * 400) / 4
  EXPECT_DOUBLE_EQ(workload::ServiceRequestNs(service), 212.5);
}

TEST(SweepProxyTest, SiteSweepProfileSetsTheInterVisitGap) {
  ServiceProfile service;
  service.name = "math";
  LockSite a;
  a.name = "a";
  a.share = 3.0;
  a.instances = 2;
  a.profile.name = "a_prof";
  a.profile.cs_hot_lines = 4;
  a.profile.think_ns = 100.0;
  a.profile.cs_work_ns = 50.0;
  LockSite b;
  b.name = "b";
  b.share = 1.0;
  b.profile.think_ns = 400.0;
  b.profile.cs_work_ns = 0.0;
  service.sites = {a, b};

  workload::Profile proxy = workload::SiteSweepProfile(service, a);
  // dilution = instances / normalized share = 2 / 0.75; gap = dilution * request;
  // think = gap - (own think + own CS work).
  const double gap = (2.0 / 0.75) * 212.5;
  EXPECT_NEAR(proxy.think_ns, gap - 150.0, 1e-9);
  // Everything but the name and think time is the site's own profile.
  EXPECT_EQ(proxy.name, "math.a");
  EXPECT_EQ(proxy.cs_hot_lines, 4);
  EXPECT_DOUBLE_EQ(proxy.cs_work_ns, 50.0);
}

TEST(SweepProxyTest, OwnCostNeverDrivesThinkNegative) {
  // A single-site service: the inter-visit gap IS the request cost, so the proxy's
  // think time collapses to zero rather than going negative.
  ServiceProfile service;
  service.name = "solo";
  LockSite only;
  only.name = "only";
  only.share = 1.0;
  only.profile.think_ns = 120.0;
  only.profile.cs_work_ns = 80.0;
  service.sites = {only};
  EXPECT_DOUBLE_EQ(workload::SiteSweepProfile(service, only).think_ns, 0.0);
}

// ---------------------------------------------------------------------------
// RunServiceBench
// ---------------------------------------------------------------------------

harness::ServiceBenchConfig SmallServiceBench(const sim::Machine& machine) {
  harness::ServiceBenchConfig config;
  config.spec.machine = &machine;
  config.spec.hierarchy = topo::Hierarchy::Select(machine.topology, {"numa", "system"});
  config.spec.registry = &SimRegistry(false);
  config.service = ServiceProfile::MiniProxy(2);
  config.site_locks = {"mcs-mcs", "clh-clh", "mcs-tkt"};
  config.num_threads = 8;
  config.duration_ms = 0.2;
  config.offered_load_per_us = 4.0;
  return config;
}

TEST(ServiceBenchTest, RunsAreDeterministicAndInternallyConsistent) {
  auto machine = sim::Machine::PaperArm();
  harness::ServiceBenchConfig config = SmallServiceBench(machine);
  harness::ServiceBenchResult first = harness::RunServiceBench(config);
  harness::ServiceBenchResult second = harness::RunServiceBench(config);

  EXPECT_GT(first.total_ops, 0u);
  EXPECT_GT(first.throughput_per_us, 0.0);
  EXPECT_DOUBLE_EQ(first.offered_load_per_us, 4.0);
  EXPECT_GT(first.completion_ratio, 0.0);
  EXPECT_LE(first.completion_ratio, 1.0 + 1e-9);

  // Site stats partition the total and remember their lock assignment.
  ASSERT_EQ(first.sites.size(), config.service.sites.size());
  uint64_t site_ops = 0;
  double share_total = 0.0;
  for (size_t s = 0; s < first.sites.size(); ++s) {
    EXPECT_EQ(first.sites[s].site, config.service.sites[s].name);
    EXPECT_EQ(first.sites[s].lock_name, config.site_locks[s]);
    EXPECT_GT(first.sites[s].ops, 0u) << first.sites[s].site;
    site_ops += first.sites[s].ops;
    share_total += first.sites[s].share_observed;
  }
  EXPECT_EQ(site_ops, first.total_ops);
  EXPECT_NEAR(share_total, 1.0, 1e-9);

  // Bit-identical repetition: same config, same virtual history.
  EXPECT_EQ(first.total_ops, second.total_ops);
  EXPECT_EQ(std::memcmp(&first.throughput_per_us, &second.throughput_per_us,
                        sizeof(double)),
            0);
  for (size_t s = 0; s < first.sites.size(); ++s) {
    EXPECT_EQ(first.sites[s].ops, second.sites[s].ops);
    EXPECT_DOUBLE_EQ(first.sites[s].acquire_p99_ns, second.sites[s].acquire_p99_ns);
  }
}

TEST(ServiceBenchTest, ObservedSharesTrackTheProfileBelowSaturation) {
  auto machine = sim::Machine::PaperArm();
  harness::ServiceBenchConfig config = SmallServiceBench(machine);
  config.offered_load_per_us = 2.0;  // comfortably below the stats-site knee
  harness::ServiceBenchResult result = harness::RunServiceBench(config);
  double total_share = 0.0;
  for (const LockSite& site : config.service.sites) {
    total_share += site.share;
  }
  for (size_t s = 0; s < result.sites.size(); ++s) {
    const double expected = config.service.sites[s].share / total_share;
    EXPECT_NEAR(result.sites[s].share_observed, expected, 0.1)
        << result.sites[s].site;
  }
}

TEST(ServiceBenchTest, RejectsANonPositiveDuration) {
  auto machine = sim::Machine::PaperArm();
  harness::ServiceBenchConfig config = SmallServiceBench(machine);
  for (double duration_ms : {0.0, -1.0}) {
    config.duration_ms = duration_ms;
    EXPECT_THROW(harness::RunServiceBench(config), std::invalid_argument) << duration_ms;
  }
}

// ---------------------------------------------------------------------------
// RunSiteSelection
// ---------------------------------------------------------------------------

select::SiteSweepConfig SmallSiteSelection(const sim::Machine& machine) {
  select::SiteSweepConfig config;
  config.base.spec.machine = &machine;
  config.base.spec.hierarchy =
      topo::Hierarchy::Select(machine.topology, {"numa", "system"});
  config.base.spec.registry = &SimRegistry(false);
  config.base.lock_names = {"mcs-mcs", "clh-clh", "mcs-tkt", "tkt-clh"};
  config.base.thread_counts = {1, 4, 8};
  config.base.duration_ms = 0.2;
  config.service = ServiceProfile::MiniProxy(2);
  config.service_threads = 16;
  return config;
}

void ExpectSameSelection(const select::SiteSelectionResult& a,
                         const select::SiteSelectionResult& b,
                         const std::string& label) {
  EXPECT_EQ(a.global_winner, b.global_winner) << label;
  EXPECT_EQ(std::memcmp(&a.global_score, &b.global_score, sizeof(double)), 0) << label;
  ASSERT_EQ(a.sites.size(), b.sites.size()) << label;
  for (size_t s = 0; s < a.sites.size(); ++s) {
    EXPECT_EQ(a.sites[s].winner, b.sites[s].winner) << label;
    EXPECT_EQ(a.sites[s].installed, b.sites[s].installed) << label;
    EXPECT_EQ(a.sites[s].probe_threads, b.sites[s].probe_threads) << label;
    const std::vector<select::LockCurve>& ca = a.sites[s].sweep.curves;
    const std::vector<select::LockCurve>& cb = b.sites[s].sweep.curves;
    ASSERT_EQ(ca.size(), cb.size()) << label;
    for (size_t i = 0; i < ca.size(); ++i) {
      ASSERT_EQ(ca[i].throughput.size(), cb[i].throughput.size()) << label;
      EXPECT_EQ(std::memcmp(ca[i].throughput.data(), cb[i].throughput.data(),
                            ca[i].throughput.size() * sizeof(double)),
                0)
          << label << " site " << a.sites[s].site.name << " curve " << ca[i].name;
    }
  }
  EXPECT_EQ(std::memcmp(&a.calibration_global, &b.calibration_global, sizeof(double)),
            0)
      << label;
  EXPECT_EQ(
      std::memcmp(&a.calibration_per_site, &b.calibration_per_site, sizeof(double)), 0)
      << label;
}

TEST(SiteSelectionTest, ByteIdenticalAcrossJobs) {
  auto machine = sim::Machine::PaperArm();
  select::SiteSweepConfig config = SmallSiteSelection(machine);
  config.calibration_load_per_us = 8.0;
  config.refine_duration_ms = 0.2;

  config.base.jobs = 1;
  select::SiteSelectionResult serial = select::RunSiteSelection(config);
  config.base.jobs = 2;
  select::SiteSelectionResult two = select::RunSiteSelection(config);
  config.base.jobs = 4;
  select::SiteSelectionResult four = select::RunSiteSelection(config);

  ExpectSameSelection(serial, two, "jobs=1 vs jobs=2");
  ExpectSameSelection(serial, four, "jobs=1 vs jobs=4");

  // The structural guarantees the demo leans on: a verdict at every site, a global
  // baseline, and refinement that never loses to it at the calibration load.
  EXPECT_FALSE(serial.global_winner.empty());
  for (const select::SiteReport& report : serial.sites) {
    EXPECT_FALSE(report.winner.empty()) << report.site.name;
    EXPECT_FALSE(report.installed.empty()) << report.site.name;
    EXPECT_GT(report.probe_threads, 0) << report.site.name;
  }
  EXPECT_GT(serial.calibration_global, 0.0);
  EXPECT_GE(serial.calibration_per_site, serial.calibration_global);
}

TEST(SiteSelectionTest, SecondRunIsCacheServedAndIdentical) {
  auto machine = sim::Machine::PaperArm();
  std::string dir = std::string(::testing::TempDir()) + "/clof_service_cache";
  std::filesystem::remove_all(dir);  // reruns must start cold
  exec::ResultCache cache(dir);

  select::SiteSweepConfig config = SmallSiteSelection(machine);
  config.base.jobs = 2;
  config.base.cache = &cache;

  select::SiteSelectionResult cold = select::RunSiteSelection(config);
  // Every per-site sweep cell is its own fingerprint (the site name and share join
  // the key), so the cold run misses and stores sites x locks x threads cells.
  const uint64_t cells = static_cast<uint64_t>(config.service.sites.size() *
                                               config.base.lock_names.size() *
                                               config.base.thread_counts.size());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), cells);
  EXPECT_EQ(cache.stores(), cells);

  select::SiteSelectionResult warm = select::RunSiteSelection(config);
  EXPECT_EQ(cache.hits(), cells) << "second run must be fully cache-served";
  EXPECT_EQ(cache.misses(), cells);
  ExpectSameSelection(cold, warm, "cold vs cache-served");
}

TEST(SiteSelectionTest, MalformedServiceThrowsWithEveryIssue) {
  auto machine = sim::Machine::PaperArm();
  select::SiteSweepConfig config = SmallSiteSelection(machine);
  config.service.sites.clear();
  config.service.keys = 0;
  try {
    select::RunSiteSelection(config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("RunSiteSelection:"), std::string::npos) << what;
    EXPECT_NE(what.find("service.sites"), std::string::npos) << what;
    EXPECT_NE(what.find("service.keys"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace clof

#include "src/harness/service_bench.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "src/harness/run_driver.h"
#include "src/harness/shared_state.h"
#include "src/runtime/rng.h"
#include "src/runtime/stats.h"
#include "src/sim/engine.h"
#include "src/workload/arrivals.h"

namespace clof::harness {

ServiceBenchResult RunServiceBench(const ServiceBenchConfig& config) {
  config.spec.ValidateOrThrow("RunServiceBench");
  {
    SpecValidation service_issues = ValidateServiceProfile(config.service);
    if (!service_issues.ok()) {
      throw std::invalid_argument("RunServiceBench: " + service_issues.Format());
    }
  }
  if (config.site_locks.size() != config.service.sites.size()) {
    throw std::invalid_argument("RunServiceBench: site_locks must name one lock per "
                                "service site (" +
                                std::to_string(config.site_locks.size()) + " names for " +
                                std::to_string(config.service.sites.size()) + " sites)");
  }
  if (config.spec.fault.AnyEnabled()) {
    throw std::invalid_argument(
        "RunServiceBench: fault plans are not supported; run fault studies through "
        "RunLockBench");
  }
  RunDriver driver({.caller = "RunServiceBench",
                    .machine = config.spec.machine,
                    .num_threads = config.num_threads,
                    .duration_ms = config.duration_ms,
                    .seed = config.spec.seed,
                    .watchdog = config.watchdog});
  const double offered =
      config.offered_load_per_us > 0.0 ? config.offered_load_per_us
                                       : config.service.arrival_rate_per_us;
  if (!(offered > 0.0)) {
    throw std::invalid_argument("RunServiceBench: offered load must be positive");
  }

  const Registry& registry = config.spec.ResolveRegistry();
  const std::vector<workload::LockSite>& sites = config.service.sites;
  const auto num_sites = sites.size();

  // One lock + one SharedState per shard instance, grouped by site: instance i of site
  // s is shard first_shard[s] + i, which is also its lock's id in the driver.
  // Independent heaps per instance: contention only couples requests that actually
  // hit the same shard.
  std::vector<int> first_shard(num_sites);
  std::vector<std::unique_ptr<SharedState>> shards;
  for (size_t s = 0; s < num_sites; ++s) {
    first_shard[s] = static_cast<int>(shards.size());
    for (int i = 0; i < sites[s].instances; ++i) {
      driver.AddLock(registry.Make(config.site_locks[s], config.spec.hierarchy,
                                   config.spec.params));
      shards.push_back(std::make_unique<SharedState>(sites[s].profile));
    }
  }

  // Cumulative normalized shares for request routing.
  double share_sum = 0.0;
  for (const workload::LockSite& site : sites) {
    share_sum += site.share;
  }
  std::vector<double> cumulative(num_sites, 0.0);
  double acc = 0.0;
  for (size_t s = 0; s < num_sites; ++s) {
    acc += sites[s].share / share_sum;
    cumulative[s] = acc;
  }
  cumulative.back() = 1.0;  // close the interval against rounding

  const workload::ZipfSampler zipf(config.service.keys, config.service.zipf_theta);
  const workload::OpenLoopArrivals arrivals(offered /
                                            static_cast<double>(config.num_threads));

  const double end_ns = config.duration_ms * 1e6;
  // Per-site tallies. Fibers run on one host thread, so plain shared containers
  // observe the deterministic interleaving without adding simulated accesses.
  std::vector<uint64_t> site_ops(num_sites, 0);
  std::vector<uint64_t> site_drops(num_sites, 0);
  std::vector<std::vector<double>> site_latency_ns(num_sites);
  std::vector<double> request_latency_ns;  // scheduled arrival -> completion
  uint64_t offered_requests = 0;
  const double deadline_ns = config.spec.deadline_ns;

  driver.Run([&](int t, runtime::Xoshiro256& rng) {
    auto& eng = sim::Engine::Current();
    double next_arrival_ns = 0.0;
    while (true) {
      next_arrival_ns += arrivals.NextGapNs(rng);
      if (next_arrival_ns >= end_ns) {
        break;
      }
      ++offered_requests;
      if (eng.Now() >= driver.end()) {
        // Past the horizon with a backlog: keep draining the arrival stream so
        // `offered_requests` counts every request the load implies, but drop the
        // work — that shortfall is exactly what completion_ratio reports.
        continue;
      }
      const sim::Time arrival = sim::PsFromNs(next_arrival_ns);
      if (eng.Now() < arrival) {
        eng.Work(next_arrival_ns - sim::NsFromPs(eng.Now()));
      }
      // Route: site by share, shard instance by Zipf key popularity. The key is
      // drawn for every request (even single-instance sites) so each site's rank
      // stream is a fixed function of the routing stream.
      const double pick = rng.NextDouble();
      size_t s = 0;
      while (s + 1 < num_sites && pick > cumulative[s]) {
        ++s;
      }
      const uint64_t key = zipf.Next(rng);
      const int shard =
          first_shard[s] + static_cast<int>(key % static_cast<uint64_t>(sites[s].instances));
      const workload::Profile& p = sites[s].profile;
      // Per-request absolute deadline: scheduled arrival + budget (docs/TIMEOUT.md).
      // Lateness pre-check first: a request whose deadline already passed while it
      // waited in the backlog is shed before doing any of its work — this, not the
      // bounded acquire, is what caps the backlog under heavy overload.
      const double request_deadline_ns =
          deadline_ns > 0.0 ? next_arrival_ns + deadline_ns : 0.0;
      if (request_deadline_ns > 0.0 && sim::NsFromPs(eng.Now()) >= request_deadline_ns) {
        ++site_drops[s];
        eng.ReportProgress();  // shedding is forward progress
        continue;
      }
      if (p.think_ns > 0.0) {
        // The request's per-site work outside the critical section (parse, hash,
        // serialize). Jittered like the single-lock harness.
        double jitter = 1.0 + p.think_jitter * (2.0 * rng.NextDouble() - 1.0);
        eng.Work(p.think_ns * jitter);
      }
      const sim::Time acquire_begin = eng.Now();
      // The acquire is bounded by the request's remaining budget, which may already be
      // spent: abortable site locks (the mcst chains) honor the bound for real,
      // anything else degrades to the blocking shim.
      std::optional<double> budget_ns;
      if (request_deadline_ns > 0.0) {
        budget_ns = request_deadline_ns - sim::NsFromPs(eng.Now());
      }
      // Latency and shard work are recorded on whichever thread runs the critical
      // section: the combiner's when a combining site delegates it.
      auto body = [&] {
        site_latency_ns[s].push_back(sim::NsFromPs(eng.Now() - acquire_begin));
        shards[shard]->TouchCriticalSection(rng);
        if (p.cs_work_ns > 0.0) {
          eng.Work(p.cs_work_ns);
        }
      };
      if (!driver.CriticalSection(t, shard, budget_ns, body)) {
        ++site_drops[s];
        eng.ReportProgress();
        continue;
      }
      ++site_ops[s];
      request_latency_ns.push_back(sim::NsFromPs(eng.Now()) - next_arrival_ns);
      eng.ReportProgress();
    }
  });
  for (const auto& shard : shards) {
    shard->VerifyCounters();
  }

  ServiceBenchResult result;
  result.offered_load_per_us = offered;
  result.num_threads = config.num_threads;
  result.duration_ms = config.duration_ms;
  for (uint64_t n : site_ops) {
    result.total_ops += n;
  }
  result.throughput_per_us = static_cast<double>(result.total_ops) /
                             (config.duration_ms * 1e3);
  result.completion_ratio =
      offered_requests == 0 ? 1.0
                            : static_cast<double>(result.total_ops) /
                                  static_cast<double>(offered_requests);
  for (uint64_t n : site_drops) {
    result.dropped_requests += n;
  }
  {
    const uint64_t attempts = result.total_ops + result.dropped_requests;
    result.drop_rate = attempts == 0 ? 0.0
                                     : static_cast<double>(result.dropped_requests) /
                                           static_cast<double>(attempts);
  }
  std::sort(request_latency_ns.begin(), request_latency_ns.end());
  result.request_p50_ns = runtime::PercentileSorted(request_latency_ns, 0.50);
  result.request_p99_ns = runtime::PercentileSorted(request_latency_ns, 0.99);
  result.request_p999_ns = runtime::PercentileSorted(request_latency_ns, 0.999);
  result.sites.reserve(num_sites);
  for (size_t s = 0; s < num_sites; ++s) {
    SiteBenchStats stats;
    stats.site = sites[s].name;
    stats.lock_name = config.site_locks[s];
    stats.ops = site_ops[s];
    stats.throughput_per_us =
        static_cast<double>(site_ops[s]) / (config.duration_ms * 1e3);
    std::sort(site_latency_ns[s].begin(), site_latency_ns[s].end());
    stats.acquire_p50_ns = runtime::PercentileSorted(site_latency_ns[s], 0.50);
    stats.acquire_p99_ns = runtime::PercentileSorted(site_latency_ns[s], 0.99);
    stats.acquire_p999_ns = runtime::PercentileSorted(site_latency_ns[s], 0.999);
    stats.dropped = site_drops[s];
    stats.share_observed =
        result.total_ops == 0 ? 0.0
                              : static_cast<double>(site_ops[s]) /
                                    static_cast<double>(result.total_ops);
    result.sites.push_back(std::move(stats));
  }
  return result;
}

}  // namespace clof::harness

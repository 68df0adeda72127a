// The multi-lock service benchmark (docs/SERVICE.md).
//
// RunLockBench answers "how fast is lock L under workload W" for one lock; this
// harness answers the question a service operator actually has: with a *set* of lock
// sites (sharded cache, connection table, stats counter...) each backed by its own
// CLoF composition, what aggregate request throughput does the process sustain at a
// given offered load? Worker threads receive open-loop Poisson arrival streams, route
// each request to a site by its workload share, pick a shard instance through the
// service's Zipf key distribution, and run that site's critical-section profile under
// that instance's lock. Sweeping the offered load traces the fig9-style saturation
// curve clof_bench --service prints.
#ifndef CLOF_SRC_HARNESS_SERVICE_BENCH_H_
#define CLOF_SRC_HARNESS_SERVICE_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/clof/run_spec.h"
#include "src/sim/watchdog.h"
#include "src/workload/service.h"

namespace clof::harness {

struct ServiceBenchConfig {
  // Machine, hierarchy, registry, seed, ClofParams. `spec.sites` and `spec.profile`
  // are ignored here — the service's own site list is authoritative. Fault plans are
  // rejected (the multi-lock run has no single shared heap for the injectors to aim
  // at); fault studies stay on the single-lock harness.
  RunSpec spec;
  workload::ServiceProfile service;
  // One lock name per service site, parallel to `service.sites`. A sharded site gets
  // `instances` independent locks of this composition, one per shard.
  std::vector<std::string> site_locks;
  int num_threads = 1;
  double duration_ms = 1.0;  // virtual milliseconds
  // Offered load in requests per virtual microsecond across all threads; 0 means
  // `service.arrival_rate_per_us`.
  double offered_load_per_us = 0.0;
  sim::WatchdogConfig watchdog;
};

// Per-site outcome of one service run.
struct SiteBenchStats {
  std::string site;
  std::string lock_name;
  uint64_t ops = 0;
  double throughput_per_us = 0.0;
  double acquire_p50_ns = 0.0;
  double acquire_p99_ns = 0.0;
  double acquire_p999_ns = 0.0;
  // Requests shed at this site because their deadline expired — before starting (the
  // lateness pre-check) or inside the bounded acquire (docs/TIMEOUT.md). Always 0 when
  // spec.deadline_ns is 0.
  uint64_t dropped = 0;
  // Fraction of completed requests that hit this site (should track the site's
  // normalized share when nothing is saturated).
  double share_observed = 0.0;
};

struct ServiceBenchResult {
  uint64_t total_ops = 0;
  double throughput_per_us = 0.0;    // completed requests per virtual microsecond
  double offered_load_per_us = 0.0;  // the arrival rate this run was driven at
  // Completed / offered. ~1 below saturation; drops as the backlog grows, which is
  // how the service curve shows where a composition set runs out of headroom.
  double completion_ratio = 0.0;
  int num_threads = 0;
  double duration_ms = 0.0;
  // --- Deadlines (docs/TIMEOUT.md) ---
  // Deadline-expired requests across all sites, and dropped / (served + dropped).
  // Above the saturation knee a deadline turns unbounded queueing into these drops:
  // request_p999_ns stays bounded near spec.deadline_ns while drop_rate rises — the
  // graceful-degradation curve `clof_bench --service --deadline=NS` prints.
  uint64_t dropped_requests = 0;
  double drop_rate = 0.0;
  // Request latency measured from the *scheduled arrival* to completion (queueing
  // delay + think work + acquire + critical section), over completed requests.
  // Unlike the per-site acquire percentiles this grows without bound past the knee
  // of a deadline-free run — the SLO metric the deadline story is about.
  double request_p50_ns = 0.0;
  double request_p99_ns = 0.0;
  double request_p999_ns = 0.0;
  std::vector<SiteBenchStats> sites;
};

// Runs the service once. Deterministic: identical config => identical result, whatever
// ran before on the host thread (the run driver keeps every lock context until the
// run ends; see src/harness/run_driver.h).
ServiceBenchResult RunServiceBench(const ServiceBenchConfig& config);

}  // namespace clof::harness

#endif  // CLOF_SRC_HARNESS_SERVICE_BENCH_H_

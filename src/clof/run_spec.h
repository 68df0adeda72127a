// The shared "what to run" half of every benchmark configuration.
//
// BenchConfig (one lock, one thread count) and SweepConfig (the scripted benchmark over
// many locks and thread counts) used to duplicate these six fields; extracting them
// into one struct gives the sweep executor a single canonical value to fingerprint for
// the content-addressed result cache (src/exec/fingerprint.h) instead of two divergent
// copies that could silently drift apart.
//
// A run carries a vector of lock *sites* (docs/SERVICE.md): each workload::LockSite
// names one lock the process contends on, its share of the requests, and its
// critical-section profile. The common case — the paper's single process-wide mutex —
// leaves `sites` empty and is resolved by Sites()/ActiveProfile() to one implicit
// site built from `profile`, so existing specs (and their cache fingerprints) are
// unchanged. Multi-site specs drive select::RunSiteSelection and
// harness::RunServiceBench.
#ifndef CLOF_SRC_CLOF_RUN_SPEC_H_
#define CLOF_SRC_CLOF_RUN_SPEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/clof/registry.h"
#include "src/fault/fault_plan.h"
#include "src/sim/platform.h"
#include "src/topo/topology.h"
#include "src/workload/profiles.h"
#include "src/workload/service.h"

namespace clof {

// One structured validation finding: which field is wrong and why. Entry points
// (RunLockBench, RunScriptedBenchmark, RunSiteSelection, RunServiceBench, the
// sweep-driven PlanAdaptive overload) collect every finding before throwing, so a
// misconfigured spec reports all of its problems at once instead of the first one.
struct SpecIssue {
  std::string field;
  std::string message;
};

struct SpecValidation {
  std::vector<SpecIssue> issues;

  bool ok() const { return issues.empty(); }
  void Add(std::string field, std::string message) {
    issues.push_back({std::move(field), std::move(message)});
  }
  // "field: message; field: message" — the payload of the exception ValidateOrThrow
  // raises.
  std::string Format() const;
};

// Validates a multi-lock service description: non-empty site list, positive shares,
// well-formed per-site fields, a usable key space. Shared by RunSiteSelection and
// RunServiceBench (the "empty site list" checks live here because a RunSpec with no
// explicit sites legitimately means "one implicit site").
SpecValidation ValidateServiceProfile(const workload::ServiceProfile& service);

struct RunSpec {
  const sim::Machine* machine = nullptr;  // required
  topo::Hierarchy hierarchy;              // hierarchy for lock construction
  const Registry* registry = nullptr;     // default: SimRegistry(arch == x86)
  workload::Profile profile = workload::Profile::LevelDbReadRandom();
  // Lock sites of this run (docs/SERVICE.md). Empty = the classic single implicit
  // site: one lock, `profile` as its critical section. Single-entry site lists tag a
  // per-site sweep cell (the site name and share join the cache fingerprint); only
  // harness::RunServiceBench accepts more than one site.
  std::vector<workload::LockSite> sites;
  uint64_t seed = 42;
  ClofParams params;
  // Per-request acquisition deadline in virtual ns; 0 disables deadlines (the exact
  // historical code path and cache fingerprint). When set, harness::RunLockBench bounds
  // every acquire with Lock::TryAcquireFor(deadline_ns) and counts timed-out attempts
  // as drops, and harness::RunServiceBench gives each request the absolute deadline
  // `arrival + deadline_ns` — late requests are dropped instead of queueing without
  // bound (docs/TIMEOUT.md). Only abortable locks bound the wait for real; for the
  // rest the shim degrades to blocking acquisition (Lock::TryAcquireFor).
  double deadline_ns = 0.0;
  // Deterministic perturbations applied to the run (docs/FAULT_INJECTION.md). The
  // default plan has every injector disabled and takes the exact non-fault code path.
  fault::FaultPlan fault;

  // The registry this spec runs against: `registry` if set, else the simulated
  // registry matching the machine's architecture. `machine` must be non-null.
  const Registry& ResolveRegistry() const {
    return registry != nullptr ? *registry
                               : SimRegistry(machine->platform.arch == sim::Arch::kX86);
  }

  // The canonical site list: `sites` when explicitly set, else one implicit site
  // wrapping `profile` with the whole workload share.
  std::vector<workload::LockSite> Sites() const;

  // The critical-section profile a single-lock run simulates: the first site's
  // profile when sites are explicit (per-site sweeps put the effective profile
  // there), else `profile`.
  const workload::Profile& ActiveProfile() const {
    return sites.empty() ? profile : sites.front().profile;
  }

  // Structural validation, shared by every entry point: null machine, invalid or
  // foreign-topology hierarchy, a hierarchy depth the resolved registry has no
  // generated locks for, malformed site entries. Returns every finding; never throws.
  SpecValidation Validate() const;

  // Throws std::invalid_argument("<entry_point>: " + Format()) listing every issue.
  void ValidateOrThrow(std::string_view entry_point) const;
};

}  // namespace clof

#endif  // CLOF_SRC_CLOF_RUN_SPEC_H_

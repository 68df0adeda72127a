#include "src/exec/fingerprint.h"

#include <cinttypes>
#include <cstdio>

namespace clof::exec {

void Fingerprint::Add(std::string_view key, std::string_view value) {
  text_.append(key);
  text_.push_back('=');
  text_.append(value);
  text_.push_back('\n');
}

void Fingerprint::Add(std::string_view key, int64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%" PRId64, value);
  Add(key, std::string_view(buffer));
}

void Fingerprint::Add(std::string_view key, uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%" PRIu64, value);
  Add(key, std::string_view(buffer));
}

void Fingerprint::Add(std::string_view key, double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  Add(key, std::string_view(buffer));
}

uint64_t Fnv1a(std::string_view bytes, uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string Hex16(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

uint64_t Fingerprint::Hash() const { return Fnv1a(text_); }

std::string Fingerprint::HashHex() const { return Hex16(Hash()); }

void AppendTopology(Fingerprint& fp, const topo::Topology& topology) {
  fp.Add("topo.name", topology.name());
  fp.Add("topo.cpus", topology.num_cpus());
  fp.Add("topo.levels", topology.num_levels());
  for (int l = 0; l < topology.num_levels(); ++l) {
    const topo::Level& level = topology.level(l);
    std::string prefix = "topo.level" + std::to_string(l);
    fp.Add(prefix + ".name", level.name);
    fp.Add(prefix + ".cohorts", level.num_cohorts);
    std::string map;
    map.reserve(level.cpu_to_cohort.size() * 4);
    for (int cohort : level.cpu_to_cohort) {
      map += std::to_string(cohort);
      map.push_back(',');
    }
    fp.Add(prefix + ".map", map);
  }
}

void AppendPlatform(Fingerprint& fp, const sim::PlatformModel& platform) {
  fp.Add("plat.name", platform.name);
  fp.Add("plat.arch", platform.arch == sim::Arch::kX86 ? "x86" : "arm");
  for (size_t i = 0; i < platform.level_latency_ns.size(); ++i) {
    fp.Add("plat.latency" + std::to_string(i), platform.level_latency_ns[i]);
  }
  fp.Add("plat.l1_hit_ns", platform.l1_hit_ns);
  fp.Add("plat.local_rmw_ns", platform.local_rmw_ns);
  fp.Add("plat.cold_miss_ns", platform.cold_miss_ns);
  fp.Add("plat.sharer_invalidation_ns", platform.sharer_invalidation_ns);
  fp.Add("plat.port_occupancy", platform.port_occupancy);
  fp.Add("plat.spinner_interference", platform.spinner_interference);
  fp.Add("plat.contended_rmw_extra_ns", platform.contended_rmw_extra_ns);
  fp.Add("plat.sc_retry_penalty_ns", platform.sc_retry_penalty_ns);
}

void AppendHierarchy(Fingerprint& fp, const topo::Hierarchy& hierarchy) {
  if (!hierarchy.valid()) {
    fp.Add("hier", "invalid");
    return;
  }
  fp.Add("hier.depth", hierarchy.depth());
  for (int d = 0; d < hierarchy.depth(); ++d) {
    // Topology level indices identify the selection; names alone could alias if a
    // custom topology reuses a name across levels.
    fp.Add("hier.level" + std::to_string(d),
           static_cast<int64_t>(hierarchy.TopologyLevel(d)));
  }
}

void AppendProfile(Fingerprint& fp, const workload::Profile& profile) {
  fp.Add("prof.name", profile.name);
  fp.Add("prof.cs_hot_lines", profile.cs_hot_lines);
  fp.Add("prof.cs_random_lines", profile.cs_random_lines);
  fp.Add("prof.cs_pool_lines", profile.cs_pool_lines);
  fp.Add("prof.cs_write_fraction", profile.cs_write_fraction);
  fp.Add("prof.cs_work_ns", profile.cs_work_ns);
  fp.Add("prof.think_ns", profile.think_ns);
  fp.Add("prof.think_jitter", profile.think_jitter);
}

void AppendClofParams(Fingerprint& fp, const ClofParams& params) {
  fp.Add("params.keep_local_threshold", params.keep_local_threshold);
  fp.Add("params.use_has_waiters_hook", params.use_has_waiters_hook);
}

void AppendFaultPlan(Fingerprint& fp, const fault::FaultPlan& plan) {
  // Every field of every injector: a faulted and an unfaulted run (or two runs with
  // different perturbation severities) can never share a cache address.
  fp.Add("fault.seed", plan.seed);
  fp.Add("fault.preempt.enabled", plan.preempt.enabled);
  fp.Add("fault.preempt.interval_us", plan.preempt.interval_us);
  fp.Add("fault.preempt.jitter", plan.preempt.jitter);
  fp.Add("fault.preempt.stall_us", plan.preempt.stall_us);
  fp.Add("fault.hetero.enabled", plan.hetero.enabled);
  fp.Add("fault.hetero.slow_fraction", plan.hetero.slow_fraction);
  fp.Add("fault.hetero.slow_factor", plan.hetero.slow_factor);
  fp.Add("fault.interference.enabled", plan.interference.enabled);
  fp.Add("fault.interference.threads", plan.interference.threads);
  fp.Add("fault.interference.lines_per_burst", plan.interference.lines_per_burst);
  fp.Add("fault.interference.gap_ns", plan.interference.gap_ns);
  fp.Add("fault.churn.enabled", plan.churn.enabled);
  fp.Add("fault.churn.stop_fraction", plan.churn.stop_fraction);
  fp.Add("fault.churn.stop_point", plan.churn.stop_point);
}

void AppendLockSite(Fingerprint& fp, const workload::LockSite& site,
                    const std::string& prefix) {
  fp.Add(prefix + ".name", site.name);
  fp.Add(prefix + ".share", site.share);
  fp.Add(prefix + ".instances", site.instances);
  // The site's own profile keys are prefixed, so they can never collide with the
  // spec-level "prof." block.
  Fingerprint site_profile;
  AppendProfile(site_profile, site.profile);
  fp.Add(prefix + ".profile", site_profile.text());
}

void AppendRunSpec(Fingerprint& fp, const RunSpec& spec) {
  AppendTopology(fp, spec.machine->topology);
  AppendPlatform(fp, spec.machine->platform);
  AppendHierarchy(fp, spec.hierarchy);
  fp.Add("registry", spec.ResolveRegistry().description());
  // The profile a single-lock cell actually simulates: sites[0]'s when sites are
  // explicit, else the classic spec.profile (identical transcript to before sites
  // existed, so historical cache entries stay addressable).
  AppendProfile(fp, spec.ActiveProfile());
  if (!spec.sites.empty()) {
    fp.Add("sites", static_cast<int64_t>(spec.sites.size()));
    for (size_t i = 0; i < spec.sites.size(); ++i) {
      AppendLockSite(fp, spec.sites[i], "site" + std::to_string(i));
    }
  }
  fp.Add("seed", spec.seed);
  AppendClofParams(fp, spec.params);
  AppendFaultPlan(fp, spec.fault);
  // Conditional, like the sites block: deadline-free specs keep their historical
  // fingerprints, while any enabled deadline re-addresses the cell.
  if (spec.deadline_ns != 0.0) {
    fp.Add("deadline_ns", spec.deadline_ns);
  }
}

Fingerprint CellFingerprint(const RunSpec& spec, const std::string& lock_name,
                            int num_threads, double duration_ms) {
  Fingerprint fp;
  fp.Add("schema", static_cast<int64_t>(kCellSchemaVersion));
  AppendRunSpec(fp, spec);
  fp.Add("cell.lock", lock_name);
  fp.Add("cell.threads", num_threads);
  fp.Add("cell.duration_ms", duration_ms);
  fp.Add("cell.runs", 1);
  return fp;
}

}  // namespace clof::exec

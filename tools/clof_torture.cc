// clof_torture — the lock torture driver (docs/TORTURE.md).
//
//   clof_torture                     validate the oracles: torture the eleven mutant
//                                    locks (all must be FLAGGED) and a genuine control
//                                    set — generated compositions, baselines, the
//                                    combining locks, and the abortable MCS-T timeout
//                                    family — (all must stay clean); exit 0 iff both
//                                    hold
//   clof_torture --mutants           mutants only
//   clof_torture --locks=a,b,...     named genuine locks only (clean = exit 0)
//
// Flags: --machine=x86|arm|cxl-pod-1024|dc-4level (default arm), --topology=<spec>
//        (custom machine, see topo::Topology::FromSpec), --levels=<names,comma>,
//        --threads=N, --duration_ms=D, --seed=S, --jobs=N (0 = all host CPUs),
//        --scenarios=none,preempt,... (csv of fault specs; default the full torture
//        matrix), --verbose (append engine diagnostics to deadlock/watchdog findings).
//
// This is the oracle-validation entry point scripts/check_all.sh runs as a smoke test
// and scripts/torture.sh runs at length with many seeds.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/clof/timeout.h"
#include "src/combining/combining.h"
#include "src/fault/scenarios.h"
#include "src/torture/mutants.h"
#include "src/torture/torture.h"

namespace {

using namespace clof;

// The default genuine control set: a deterministic handful of full-depth generated
// compositions plus the depth-adaptive baselines. Every one must pass the matrix
// cleanly for the oracles to be trusted.
std::vector<std::string> ControlLocks(const Registry& registry,
                                      const topo::Hierarchy& hierarchy) {
  std::vector<std::string> out;
  auto generated =
      registry.Names({.levels = hierarchy.depth(), .generated_only = true});
  for (size_t i = 0; i < generated.size() && out.size() < 4; i += generated.size() / 4 + 1) {
    out.push_back(generated[i]);
  }
  for (const char* name : {"hmcs", "cna"}) {
    if (registry.Contains(name)) {
      out.push_back(name);
    }
  }
  return out;
}

torture::TortureReport Torture(const bench::Flags& flags, const sim::Machine& machine,
                               const topo::Hierarchy& hierarchy, const Registry& registry,
                               std::vector<std::string> locks) {
  torture::TortureConfig config;
  config.machine = &machine;
  config.hierarchy = hierarchy;
  config.registry = &registry;
  config.lock_names = std::move(locks);
  config.num_threads = flags.GetInt("threads", 6);
  config.duration_ms = flags.GetPositive("duration_ms", 0.1);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  config.jobs = flags.GetInt("jobs", 0);
  config.scenarios = flags.ParseWith("scenarios", [&](const std::string& spec) {
    std::vector<fault::Scenario> scenarios;
    for (const auto& token : bench::SplitCsv(spec)) {
      scenarios.push_back({token, fault::PlanFromSpec(token, config.seed)});
    }
    return scenarios;
  });
  return torture::RunTorture(config);
}

int Run(const bench::Flags& flags) {
  const sim::Machine machine = bench::ParseMachine(flags);
  const auto hierarchy = bench::ParseHierarchy(flags, machine.topology);
  const bool verbose = flags.GetBool("verbose");
  const std::string named = flags.GetString("locks", "");
  const bool mutants_only = flags.GetBool("mutants");

  int failures = 0;

  if (named.empty()) {
    // Mutant phase: every deliberately broken lock must be flagged.
    auto report = Torture(flags, machine, hierarchy, torture::MutantRegistry(),
                          torture::MutantNames());
    std::printf("%s", torture::FormatTortureReport(report, verbose).c_str());
    for (const auto& name : torture::MutantNames()) {
      if (!report.Flagged(name)) {
        std::printf("ORACLE GAP: mutant %s was not flagged\n", name.c_str());
        ++failures;
      }
    }
  }

  if (!mutants_only) {
    // Genuine phase: every real lock must pass the same matrix cleanly. The registry
    // is augmented with the combining locks (H-Synch at the lowest hierarchy level,
    // so the torture thread block spans multiple cohorts) and the abortable MCS-T
    // timeout family (docs/TIMEOUT.md); both join the default control set — the
    // genuine algorithms must survive the same matrix their seeded-bug mutants fail.
    const Registry& base = SimRegistry(machine.platform.arch == sim::Arch::kX86);
    combining::CombiningOptions combining_options;
    combining_options.hsynch_levels = {hierarchy.LevelName(0)};
    const Registry registry =
        timeout::WithTimeout(combining::WithCombining(base, combining_options));
    std::vector<std::string> locks =
        named.empty() ? ControlLocks(registry, hierarchy) : bench::SplitCsv(named);
    if (named.empty()) {
      for (const auto& name : combining::CombiningLockNames(combining_options)) {
        locks.push_back(name);
      }
      // The flat MCS-T plus (when the hierarchy is shallow enough for the chain
      // grammar) the full-depth abortable composition: their timed driving exercises
      // the abandon path the timeout mutants break.
      locks.push_back("mcst-flat");
      const auto chains = timeout::TimeoutLockNames({});
      if (hierarchy.depth() <= static_cast<int>(chains.size())) {
        locks.push_back(chains[hierarchy.depth() - 1]);
      }
    }
    auto report = Torture(flags, machine, hierarchy, registry, locks);
    std::printf("%s", torture::FormatTortureReport(report, verbose).c_str());
    for (const auto& verdict : report.verdicts) {
      if (verdict.flagged) {
        std::printf("FALSE POSITIVE: genuine lock %s was flagged\n",
                    verdict.lock_name.c_str());
        ++failures;
      }
    }
  }

  std::printf("torture verdict: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(bench::Flags(argc, argv,
                            {"machine", "topology", "levels", "threads", "duration_ms", "seed",
                             "jobs", "scenarios", "verbose", "locks", "mutants"}));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

// Named perturbation scenarios: the matrix the robustness sweep runs every candidate
// lock through (select::RunPerturbationRanking), and the parser behind clof_bench's
// --fault= flag. Each scenario is one FaultPlan; DefaultMatrix covers each injector
// alone at its default severity plus a combined "storm".
#ifndef CLOF_SRC_FAULT_SCENARIOS_H_
#define CLOF_SRC_FAULT_SCENARIOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/fault_plan.h"

namespace clof::fault {

struct Scenario {
  std::string name;
  FaultPlan plan;
};

// The default robustness matrix: preempt, hetero, interference, churn, storm (all
// four at once). `seed` feeds each plan's seed so the matrix is reproducible.
std::vector<Scenario> DefaultMatrix(uint64_t seed);

// The torture matrix (docs/TORTURE.md): an unperturbed baseline ("none") followed by
// DefaultMatrix. The torture harness needs the clean schedule too — some lock bugs
// (e.g. a dropped MCS handover) fire fastest with no perturbation at all, and the
// bounded-starvation oracle only judges scenarios without preemption or churn.
std::vector<Scenario> TortureMatrix(uint64_t seed);

// Builds a plan from a comma-separated injector list: any of "preempt", "hetero",
// "interference", "churn", or the shorthands "all" / "storm" (every injector) and
// "none" (empty plan). Throws std::invalid_argument on an unknown name.
FaultPlan PlanFromSpec(const std::string& spec, uint64_t seed);

}  // namespace clof::fault

#endif  // CLOF_SRC_FAULT_SCENARIOS_H_

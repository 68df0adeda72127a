#include "src/fault/scenarios.h"

#include <stdexcept>

namespace clof::fault {
namespace {

FaultPlan BasePlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  return plan;
}

void EnableInjector(FaultPlan& plan, const std::string& name) {
  if (name == "preempt") {
    plan.preempt.enabled = true;
  } else if (name == "hetero") {
    plan.hetero.enabled = true;
  } else if (name == "interference") {
    plan.interference.enabled = true;
  } else if (name == "churn") {
    plan.churn.enabled = true;
  } else if (name == "all" || name == "storm") {
    plan.preempt.enabled = true;
    plan.hetero.enabled = true;
    plan.interference.enabled = true;
    plan.churn.enabled = true;
  } else if (name.empty()) {
    throw std::invalid_argument("empty fault injector name (a stray comma?)");
  } else if (name != "none") {
    throw std::invalid_argument("unknown fault injector: " + name +
                                " (want preempt|hetero|interference|churn|all|none)");
  }
}

}  // namespace

std::vector<Scenario> DefaultMatrix(uint64_t seed) {
  std::vector<Scenario> matrix;
  for (const char* name : {"preempt", "hetero", "interference", "churn", "storm"}) {
    Scenario scenario;
    scenario.name = name;
    scenario.plan = BasePlan(seed);
    EnableInjector(scenario.plan, name);
    matrix.push_back(std::move(scenario));
  }
  return matrix;
}

std::vector<Scenario> TortureMatrix(uint64_t seed) {
  std::vector<Scenario> matrix;
  Scenario none;
  none.name = "none";
  none.plan = BasePlan(seed);
  matrix.push_back(std::move(none));
  for (auto& scenario : DefaultMatrix(seed)) {
    matrix.push_back(std::move(scenario));
  }
  return matrix;
}

FaultPlan PlanFromSpec(const std::string& spec, uint64_t seed) {
  FaultPlan plan = BasePlan(seed);
  for (size_t begin = 0;;) {
    const size_t comma = spec.find(',', begin);
    const std::string token = spec.substr(begin, comma - begin);
    if (token == "none" && spec != token) {
      throw std::invalid_argument("'none' cannot be combined with other injectors");
    }
    EnableInjector(plan, token);
    if (comma == std::string::npos) {
      return plan;
    }
    begin = comma + 1;
  }
}

}  // namespace clof::fault

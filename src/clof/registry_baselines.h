// Baseline registration shared by all registries (included only by the registry
// builders, registry_sim.cc and registry_native.cc).
#ifndef CLOF_SRC_CLOF_REGISTRY_BASELINES_H_
#define CLOF_SRC_CLOF_REGISTRY_BASELINES_H_

#include <memory>
#include <string>

#include "src/baselines/cna.h"
#include "src/baselines/hmcs.h"
#include "src/baselines/shfllock.h"
#include "src/clof/clof_tree.h"
#include "src/clof/fast_path.h"
#include "src/clof/generator.h"  // MakeTreeLock
#include "src/clof/lock.h"
#include "src/clof/registry_internal.h"
#include "src/locks/clh.h"
#include "src/locks/mcs.h"
#include "src/locks/tas.h"
#include "src/locks/ticket.h"

namespace clof::internal {

// Lock-cohorting baselines (§2.3) are expressed as 2-level CLoF compositions over the
// {numa, system} sub-hierarchy — the paper's observation that CLoF generalizes
// cohorting, made executable. Requires the topology to have a "numa" level.
inline topo::Hierarchy CohortHierarchy(const topo::Hierarchy& hierarchy) {
  return topo::Hierarchy::Select(hierarchy.topology(), {"numa", "system"});
}

template <class M>
std::unique_ptr<Lock> MakeHmcs(const std::string& name, const topo::Hierarchy& hierarchy,
                               const ClofParams& params) {
  return std::make_unique<PlainLock<baselines::HmcsLock<M>>>(name, hierarchy.depth(), true,
                                                             hierarchy,
                                                             params.keep_local_threshold);
}

template <class M>
std::unique_ptr<Lock> MakeCna(const std::string& name, const topo::Hierarchy& hierarchy,
                              const ClofParams&) {
  return std::make_unique<PlainLock<baselines::CnaLock<M>>>(name, 2, true, hierarchy);
}

template <class M>
std::unique_ptr<Lock> MakeShfl(const std::string& name, const topo::Hierarchy& hierarchy,
                               const ClofParams&) {
  return std::make_unique<PlainLock<baselines::ShflLock<M>>>(name, 2, false, hierarchy);
}

template <class Tree>
std::unique_ptr<Lock> MakeCohort(const std::string& name, const topo::Hierarchy& hierarchy,
                                 const ClofParams& params) {
  return std::make_unique<TreeLock<Tree>>(name, CohortHierarchy(hierarchy), params);
}

template <class Tree>
std::unique_ptr<Lock> MakeFlat(const std::string& name, const topo::Hierarchy& hierarchy,
                               const ClofParams& params) {
  // Single-level lock over the system level of the same topology.
  return std::make_unique<TreeLock<Tree>>(
      name, topo::Hierarchy::Select(hierarchy.topology(), {"system"}), params);
}

template <class M>
void RegisterBaselines(Registry& registry) {
  registry.Register("hmcs", Registry::kAnyDepth, true, &MakeHmcs<M>, Registry::Kind::kBaseline);
  registry.Register("cna", Registry::kAnyDepth, true, &MakeCna<M>, Registry::Kind::kBaseline);
  registry.Register("shfl", Registry::kAnyDepth, false, &MakeShfl<M>, Registry::Kind::kBaseline);
  registry.Register("c-bo-mcs", Registry::kAnyDepth, false,
                    &MakeCohort<Compose<M, locks::BackoffLock<M>, locks::McsLock<M>>>, Registry::Kind::kBaseline);
  registry.Register("c-tkt-tkt", Registry::kAnyDepth, true,
                    &MakeCohort<Compose<M, locks::TicketLock<M>, locks::TicketLock<M>>>, Registry::Kind::kBaseline);
  // Unfair single-level locks for the fairness experiments; usable with any hierarchy.
  registry.Register("ttas", Registry::kAnyDepth, false,
                    &MakeFlat<Compose<M, locks::TtasLock<M>>>, Registry::Kind::kBaseline);
  registry.Register("bo", Registry::kAnyDepth, false,
                    &MakeFlat<Compose<M, locks::BackoffLock<M>>>, Registry::Kind::kBaseline);
  // Fast-path variants (§6 extension) of the featured compositions.
  registry.Register("fp-mcs", Registry::kAnyDepth, false,
                    &MakeFlat<FastPathClof<M, Compose<M, locks::McsLock<M>>>>, Registry::Kind::kBaseline);
  registry.Register(
      "fp-tkt-clh-tkt-tkt", 4, false,
      &MakeTreeLock<FastPathClof<
          M, Compose<M, locks::TicketLock<M>, locks::ClhLock<M>, locks::TicketLock<M>,
                     locks::TicketLock<M>>>>,
      Registry::Kind::kBaseline);
  registry.Register(
      "fp-tkt-tkt-mcs-mcs", 4, false,
      &MakeTreeLock<FastPathClof<
          M, Compose<M, locks::TicketLock<M>, locks::TicketLock<M>, locks::McsLock<M>,
                     locks::McsLock<M>>>>,
      Registry::Kind::kBaseline);
}

}  // namespace clof::internal

#endif  // CLOF_SRC_CLOF_REGISTRY_BASELINES_H_

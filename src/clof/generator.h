// CLoF lock generation by compile-time syntactic recursion (paper §4.1, §4.3): with N
// basic locks and M hierarchy levels, instantiate all N^M compositions as static types
// and register a factory for each. The basic set is the paper's: Ticketlock, MCS, CLH,
// Hemlock.
//
// Only the native registry (registry_native.cc) enumerates this way, for depths 1..3:
// natively the host instructions are the cost, and each composition inlines its basic
// locks. The simulated registries (registry_sim.cc) compose the same ClofTree over the
// run-time basic-lock slot instead, four tree types in all.
#ifndef CLOF_SRC_CLOF_GENERATOR_H_
#define CLOF_SRC_CLOF_GENERATOR_H_

#include <memory>
#include <string>

#include "src/clof/clof_tree.h"
#include "src/clof/lock.h"
#include "src/clof/registry.h"
#include "src/locks/clh.h"
#include "src/locks/hemlock.h"
#include "src/locks/mcs.h"
#include "src/locks/ticket.h"

namespace clof {

namespace internal {

// Stateless factory: the registry passes the lock's registered name through, so one
// function template per composition type suffices (no per-entry closures).
template <class Tree>
std::unique_ptr<Lock> MakeTreeLock(const std::string& name, const topo::Hierarchy& hierarchy,
                                   const ClofParams& params) {
  return std::make_unique<TreeLock<Tree>>(name, hierarchy, params);
}

template <class M, bool Ctr, int Depth, class... Acc>
struct GenerateCombos {
  static void Run(Registry& registry, const std::string& prefix) {
    if constexpr (Depth == 0) {
      using Tree = Compose<M, Acc...>;
      registry.Register(prefix, sizeof...(Acc), Tree::kIsFair, &MakeTreeLock<Tree>);
    } else {
      const std::string sep = prefix.empty() ? "" : "-";
      GenerateCombos<M, Ctr, Depth - 1, Acc..., locks::TicketLock<M>>::Run(registry,
                                                                           prefix + sep + "tkt");
      GenerateCombos<M, Ctr, Depth - 1, Acc..., locks::McsLock<M>>::Run(registry,
                                                                        prefix + sep + "mcs");
      GenerateCombos<M, Ctr, Depth - 1, Acc..., locks::ClhLock<M>>::Run(registry,
                                                                        prefix + sep + "clh");
      GenerateCombos<M, Ctr, Depth - 1, Acc..., locks::Hemlock<M, Ctr>>::Run(registry,
                                                                             prefix + sep + "hem");
    }
  }
};

}  // namespace internal

// Registers all combinations of depth 1..3, the depths the native registry enumerates
// (depth-1 entries double as the plain NUMA-oblivious locks "tkt", "mcs", "clh", "hem").
template <class M, bool CtrHem>
void GenerateAllClofLocks(Registry& registry) {
  internal::GenerateCombos<M, CtrHem, 1>::Run(registry, "");
  internal::GenerateCombos<M, CtrHem, 2>::Run(registry, "");
  internal::GenerateCombos<M, CtrHem, 3>::Run(registry, "");
}

}  // namespace clof

#endif  // CLOF_SRC_CLOF_GENERATOR_H_

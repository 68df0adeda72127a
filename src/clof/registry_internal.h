// Internal glue between registry.cc and the registry builders. The native builders live
// in their own translation unit because the static enumeration of every composition
// dominates its compile time (generator.h); the simulated builders compose one tree
// type per depth over the basic-lock slot and compile quickly.
#ifndef CLOF_SRC_CLOF_REGISTRY_INTERNAL_H_
#define CLOF_SRC_CLOF_REGISTRY_INTERNAL_H_

#include "src/clof/registry.h"

namespace clof::internal {

Registry BuildSimRegistryCtr();      // registry_sim.cc
Registry BuildSimRegistryNoCtr();
Registry BuildNativeRegistryCtr();   // registry_native.cc
Registry BuildNativeRegistryNoCtr();

// Registers the baselines (HMCS, CNA, ShflLock, cohort locks, unfair locks) shared by
// every registry. Defined in registry_baselines.h as a template over the memory policy.
template <class M>
void RegisterBaselines(Registry& registry);

}  // namespace clof::internal

#endif  // CLOF_SRC_CLOF_REGISTRY_INTERNAL_H_

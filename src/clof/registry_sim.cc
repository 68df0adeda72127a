// The simulated registries. Every generated name is the same ClofTree over the
// basic-lock slot locks::AnyBasic at the name's depth, so the simulator instantiates four
// tree types, not one per composition; src/locks/any_basic.h says why that cannot move a
// simulated result. The two registries differ only in the lock "hem" names: Hemlock
// with CTR for x86 platforms, without it for Arm (§3.2).
#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/clof/registry_baselines.h"
#include "src/locks/any_basic.h"
#include "src/mem/sim_memory.h"

namespace clof::internal {
namespace {

using Slot = locks::AnyBasic<mem::SimMemory>;

constexpr std::array<std::string_view, 4> kBasicNames = {"tkt", "mcs", "clh", "hem"};

// The one factory of both registries: reads each level's lock from the name, lowest
// level first. Only registered names reach it, three letters and a dash per level.
template <bool Ctr>
std::unique_ptr<Lock> MakeSlotTree(const std::string& name, const topo::Hierarchy& hierarchy,
                                   const ClofParams& params) {
  std::vector<locks::BasicKind> kinds;
  for (size_t at = 0; at < name.size(); at += 4) {
    const auto* basic = std::find(kBasicNames.begin(), kBasicNames.end(),
                                  std::string_view(name).substr(at, 3));
    const auto kind = static_cast<locks::BasicKind>(basic - kBasicNames.begin());
    kinds.push_back(kind == locks::BasicKind::kHem && Ctr ? locks::BasicKind::kHemCtr : kind);
  }
  using M = mem::SimMemory;
  switch (kinds.size()) {
    case 1:
      return std::make_unique<TreeLock<Compose<M, Slot>>>(name, hierarchy, params, kinds);
    case 2:
      return std::make_unique<TreeLock<Compose<M, Slot, Slot>>>(name, hierarchy, params, kinds);
    case 3:
      return std::make_unique<TreeLock<Compose<M, Slot, Slot, Slot>>>(name, hierarchy, params,
                                                                       kinds);
    case 4:
      return std::make_unique<TreeLock<Compose<M, Slot, Slot, Slot, Slot>>>(name, hierarchy,
                                                                            params, kinds);
  }
  throw std::invalid_argument("unknown lock: " + name);
}

// Registers every composition of depth 1..4 over the basic-lock set, then the
// baselines. The depth-1 entries double as the plain NUMA-oblivious locks.
template <bool Ctr>
Registry BuildSim() {
  Registry registry;
  for (int depth = 1; depth <= 4; ++depth) {
    for (int combo = 0; combo < 1 << (2 * depth); ++combo) {
      std::string name;
      for (int level = 0; level < depth; ++level) {
        name += level == 0 ? "" : "-";
        name += kBasicNames[(combo >> (2 * (depth - 1 - level))) & 3];
      }
      registry.Register(name, depth, Slot::kIsFair, &MakeSlotTree<Ctr>);
    }
  }
  RegisterBaselines<mem::SimMemory>(registry);
  return registry;
}

}  // namespace

Registry BuildSimRegistryCtr() { return BuildSim<true>(); }
Registry BuildSimRegistryNoCtr() { return BuildSim<false>(); }

}  // namespace clof::internal

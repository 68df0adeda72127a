// Native (std::atomic) registries: every composition of depth 1..3 plus the named
// 4-level locks the paper's evaluation features, each its own static type (§4.1).
#include "src/clof/generator.h"
#include "src/clof/registry_baselines.h"
#include "src/mem/native.h"

namespace clof::internal {
namespace {

// The best/worst 4-level compositions reported in the paper's Figures 9 and 10.
template <class M, bool Ctr>
void RegisterFeaturedDepth4(Registry& registry) {
  using Tkt = locks::TicketLock<M>;
  using Mcs = locks::McsLock<M>;
  using Clh = locks::ClhLock<M>;
  using Hem = locks::Hemlock<M, Ctr>;
  auto reg = [&registry](const std::string& name, auto tag) {
    using Tree = typename decltype(tag)::type;
    registry.Register(name, 4, Tree::kIsFair, &MakeTreeLock<Tree>);
  };
  reg("hem-hem-mcs-clh", std::type_identity<Compose<M, Hem, Hem, Mcs, Clh>>{});
  reg("tkt-tkt-mcs-mcs", std::type_identity<Compose<M, Tkt, Tkt, Mcs, Mcs>>{});
  reg("mcs-clh-tkt-mcs", std::type_identity<Compose<M, Mcs, Clh, Tkt, Mcs>>{});
  reg("tkt-clh-clh-clh", std::type_identity<Compose<M, Tkt, Clh, Clh, Clh>>{});
  reg("tkt-clh-tkt-tkt", std::type_identity<Compose<M, Tkt, Clh, Tkt, Tkt>>{});
  reg("mcs-tkt-tkt-tkt", std::type_identity<Compose<M, Mcs, Tkt, Tkt, Tkt>>{});
}

template <bool Ctr>
Registry BuildNative() {
  Registry registry;
  GenerateAllClofLocks<mem::NativeMemory, Ctr>(registry);
  RegisterFeaturedDepth4<mem::NativeMemory, Ctr>(registry);
  RegisterBaselines<mem::NativeMemory>(registry);
  return registry;
}

}  // namespace

Registry BuildNativeRegistryCtr() { return BuildNative<true>(); }
Registry BuildNativeRegistryNoCtr() { return BuildNative<false>(); }

}  // namespace clof::internal

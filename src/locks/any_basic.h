// The basic-lock slot: one of the paper's basic locks (Ticketlock, MCS, CLH, Hemlock
// with or without CTR), chosen at construction, with every call forwarded to it.
//
// The simulated registries build each generated name as the same ClofTree over this
// slot at the name's depth, so the simulator instantiates one tree type per depth
// instead of one per composition (DESIGN.md §5). That cannot move a virtual-time
// result. A simulated run depends only on the sequence of simulated accesses and Work()
// calls, and on which atomics share a cache line. The slot forwards each call to the
// chosen lock's own code, so the access sequence is that lock's; the dispatch is host
// code and costs no virtual time. Lines are host addresses (SimMemory::Atomic::LineAddr
// is `this >> 6`), so the layout must match too, and alignment guarantees it: the slot
// is one aligned line holding the chosen lock and a host-only tag, and each lock's part
// of a Context owns lines of its own. So exactly the atomics that share a line in the
// static composition share one here, and no others. The static_asserts below check
// that every alternative fits.
//
// Native code and the mck explorer keep the static compositions (§4.1): there the host
// instructions are the cost, and the explorer must check the real templates.
#ifndef CLOF_SRC_LOCKS_ANY_BASIC_H_
#define CLOF_SRC_LOCKS_ANY_BASIC_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>

#include "src/locks/clh.h"
#include "src/locks/hemlock.h"
#include "src/locks/mcs.h"
#include "src/locks/ticket.h"
#include "src/mem/memory_policy.h"

namespace clof::locks {

// The slot's alternatives: Ticketlock, MCS, CLH, and Hemlock without and with CTR. The
// registries name both Hemlocks "hem": with CTR on x86 platforms, without on Arm (§3.2).
enum class BasicKind : uint8_t { kTkt, kMcs, kClh, kHem, kHemCtr };

template <class M>
  requires mem::MemoryPolicy<M>
class alignas(64) AnyBasic {
  using Tkt = TicketLock<M>;
  using Mcs = McsLock<M>;
  using Clh = ClhLock<M>;
  using Hem = Hemlock<M, false>;
  using HemCtr = Hemlock<M, true>;

  template <class T>
  static constexpr bool kOwnsOneLine = alignof(T) == 64 && sizeof(T) == 64;
  // Each lock leaves room for the tag on the slot's line. Each lock's context is empty,
  // owns one line, or (CLH) holds only host pointers to line-aligned queue nodes.
  static_assert(sizeof(Tkt) < 64 && std::is_empty_v<typename Tkt::Context>,
                "Ticketlock outgrows the slot's layout");
  static_assert(sizeof(Mcs) < 64 && kOwnsOneLine<typename Mcs::Context>,
                "MCS outgrows the slot's layout");
  static_assert(sizeof(Clh) < 64 && kOwnsOneLine<typename Clh::QNode>,
                "CLH outgrows the slot's layout");
  static_assert(sizeof(Hem) < 64 && kOwnsOneLine<typename Hem::Context>,
                "Hemlock outgrows the slot's layout");
  static_assert(sizeof(HemCtr) < 64 && kOwnsOneLine<typename HemCtr::Context>,
                "Hemlock-CTR outgrows the slot's layout");

 public:
  static constexpr bool kIsFair =
      Tkt::kIsFair && Mcs::kIsFair && Clh::kIsFair && Hem::kIsFair && HemCtr::kIsFair;

  // A context for whichever lock the slot holds. It is built before anyone knows which
  // lock it serves, so it holds one context per lock, each on lines of its own, and an
  // operation touches only the chosen lock's, as with a static composition's context.
  // A CLH context owns a queue node, so the first Acquire of a CLH slot builds it.
  struct Context {
    typename Mcs::Context mcs;
    typename Hem::Context hem;
    typename HemCtr::Context hem_ctr;
    std::optional<typename Clh::Context> clh;
    typename Tkt::Context tkt;
  };

  explicit AnyBasic(BasicKind kind) : kind_(kind) {
    static_assert(sizeof(AnyBasic) == 64);
    Visit(kind_, [this](auto lock, auto) { std::construct_at(&(this->*lock)); });
  }
  ~AnyBasic() {
    Visit(kind_, [this](auto lock, auto) { std::destroy_at(&(this->*lock)); });
  }
  AnyBasic(const AnyBasic&) = delete;
  AnyBasic& operator=(const AnyBasic&) = delete;

  void Acquire(Context& ctx) {
    if (kind_ == BasicKind::kClh && !ctx.clh.has_value()) [[unlikely]] {
      ctx.clh.emplace();
    }
    Visit(kind_, [&](auto lock, auto part) { (this->*lock).Acquire(part(ctx)); });
  }

  void Release(Context& ctx) {
    Visit(kind_, [&](auto lock, auto part) { (this->*lock).Release(part(ctx)); });
  }

  bool HasWaiters(const Context& ctx) const {
    return Visit(kind_, [&](auto lock, auto part) { return (this->*lock).HasWaiters(part(ctx)); });
  }

  // The held lock's name in the paper's notation ("hem-ctr" for Hemlock with CTR).
  const char* name() const {
    return Visit(kind_, [this](auto lock, auto) -> const char* { return (this->*lock).kName; });
  }

 private:
  // Calls f(lock, part) with a member pointer to the lock `kind` names and a function
  // returning its part of a Context. The one place that maps kinds to members.
  template <class F>
  static decltype(auto) Visit(BasicKind kind, F&& f) {
    switch (kind) {
      case BasicKind::kTkt:
        return f(&AnyBasic::tkt_, [](auto& ctx) -> auto& { return ctx.tkt; });
      case BasicKind::kMcs:
        return f(&AnyBasic::mcs_, [](auto& ctx) -> auto& { return ctx.mcs; });
      case BasicKind::kClh:
        return f(&AnyBasic::clh_, [](auto& ctx) -> auto& { return *ctx.clh; });
      case BasicKind::kHem:
        return f(&AnyBasic::hem_, [](auto& ctx) -> auto& { return ctx.hem; });
      case BasicKind::kHemCtr:
        break;
    }
    return f(&AnyBasic::hem_ctr_, [](auto& ctx) -> auto& { return ctx.hem_ctr; });
  }

  union {
    Tkt tkt_;
    Mcs mcs_;
    Clh clh_;
    Hem hem_;
    HemCtr hem_ctr_;
  };
  BasicKind kind_;
};

}  // namespace clof::locks

#endif  // CLOF_SRC_LOCKS_ANY_BASIC_H_

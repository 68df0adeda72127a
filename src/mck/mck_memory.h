// MckMemory: the model-checking instantiation of the memory policy. Every atomic access
// becomes a scheduling point of mck::Explorer; spin loops block until the awaited
// location changes (version-checked, like the simulator's parking).
//
// All operations funnel through Dispatch(): inside an exploration the apply lambda is
// passed to Explorer::OnAccess as a non-owning FunctionRef (the lambda lives in this
// fiber's frame, which stays alive across the scheduling suspension, so no allocating
// type erasure is needed); outside an exploration it degenerates to running the lambda
// directly — the plain access that lets locks be constructed, inspected and destroyed
// freely in test code.
#ifndef CLOF_SRC_MCK_MCK_MEMORY_H_
#define CLOF_SRC_MCK_MCK_MEMORY_H_

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "src/mck/explorer.h"

namespace clof::mck {

struct MckMemory {
  template <typename T>
  class Atomic {
   public:
    Atomic() : value_() {}
    explicit Atomic(T v) : value_(v) {}
    Atomic(const Atomic&) = delete;
    Atomic& operator=(const Atomic&) = delete;

    T Load(std::memory_order = std::memory_order_acquire) const {
      T result{};
      Dispatch(Addr(), MckOpKind::kLoad, [&] {
        result = value_;
        return false;
      });
      return result;
    }

    void Store(T v, std::memory_order = std::memory_order_release) {
      Dispatch(Addr(), MckOpKind::kStore, [&] {
        bool changed = value_ != v;
        value_ = v;
        return changed;
      });
    }

    T Exchange(T v, std::memory_order = std::memory_order_acq_rel) {
      T old{};
      Dispatch(Addr(), MckOpKind::kRmw, [&] {
        old = value_;
        value_ = v;
        return old != v;
      });
      return old;
    }

    bool CompareExchange(T& expected, T desired,
                         std::memory_order = std::memory_order_acq_rel) {
      bool success = false;
      const T want = expected;
      T observed{};
      Dispatch(Addr(), MckOpKind::kCmpXchg, [&] {
        observed = value_;
        if (value_ == want) {
          value_ = desired;
          success = true;
          return want != desired;
        }
        return false;
      });
      if (!success) {
        expected = observed;
      }
      return success;
    }

    T FetchAdd(T delta, std::memory_order = std::memory_order_acq_rel)
      requires std::is_integral_v<T>
    {
      T old{};
      Dispatch(Addr(), MckOpKind::kRmw, [&] {
        old = value_;
        value_ = static_cast<T>(value_ + delta);
        return delta != T{0};
      });
      return old;
    }

    T RmwRead() {
      T result{};
      Dispatch(Addr(), MckOpKind::kRmw, [&] {
        result = value_;
        return false;
      });
      return result;
    }

    uintptr_t Addr() const { return reinterpret_cast<uintptr_t>(this); }

   private:
    // Routes one atomic operation: a scheduling-point access inside an exploration,
    // the plain operation (the lambda body alone) otherwise. The lambda outlives the
    // OnAccess call — it lives in this frame, on the suspended fiber's stack — so
    // handing the explorer a FunctionRef to it is safe.
    template <typename Apply>
    static void Dispatch(uintptr_t addr, MckOpKind kind, Apply&& apply) {
      if (!Explorer::InExploration()) {
        (void)apply();
        return;
      }
      Explorer::Current().OnAccess(addr, kind, runtime::FunctionRef<bool()>(apply));
    }

    mutable T value_;
  };

  static int CpuId() { return Explorer::Current().CurrentCpu(); }
  static int NumCpus() { return Explorer::Current().NumThreads(); }
  // Frozen clock: explorations have no time model. Timed waits become deterministic —
  // a deadline <= 0 takes its timeout branch at the first probe, a positive one never
  // does — so tests drive each abandonment branch explicitly instead of by timing.
  static double NowNs() { return 0.0; }
  static void Pause() {}
  static void Yield() {}
  static void Delay(uint32_t) {}

  template <typename T, typename Pred>
  static T SpinUntil(const Atomic<T>& atomic, Pred pred) {
    return SpinImpl(const_cast<Atomic<T>&>(atomic), pred, /*rmw_mode=*/false);
  }

  template <typename T, typename Pred>
  static T SpinUntilRmw(Atomic<T>& atomic, Pred pred) {
    return SpinImpl(atomic, pred, /*rmw_mode=*/true);
  }

 private:
  template <typename T, typename Pred>
  static T SpinImpl(Atomic<T>& atomic, Pred pred, bool rmw_mode) {
    auto& explorer = Explorer::Current();
    for (;;) {
      uint64_t version = explorer.VersionOf(atomic.Addr());
      T value = rmw_mode ? atomic.RmwRead() : atomic.Load(std::memory_order_acquire);
      if (pred(value)) {
        return value;
      }
      explorer.ParkOnAddrs({{atomic.Addr(), version}});
    }
  }
};

}  // namespace clof::mck

#endif  // CLOF_SRC_MCK_MCK_MEMORY_H_

// Explorer-level litmus tests: these guard the model checker itself. Each classic
// concurrency idiom must expose exactly the behaviours sequential consistency allows —
// a reduction (DPOR, eager local quanta) that hides one of them would make
// every downstream "lock verified" claim worthless.
#include "src/mck/explorer.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>

#include "src/clof/clof_tree.h"
#include "src/locks/clh.h"
#include "src/locks/hemlock.h"
#include "src/locks/mcs.h"
#include "src/locks/ticket.h"
#include "src/mck/check_lock.h"
#include "src/mck/mck_memory.h"
#include "src/topo/topology.h"
#include "tests/mck_test_locks.h"

namespace clof::mck {
namespace {

using AtomicU32 = MckMemory::Atomic<uint32_t>;

TEST(ExplorerLitmus, LostUpdateIsFound) {
  // Two load+store increments: final values {1, 2} must both be observed.
  Explorer explorer;
  std::set<uint32_t> finals;
  auto result = explorer.Explore([&] {
    auto v = std::make_shared<AtomicU32>(0u);
    auto done = std::make_shared<int>(0);
    std::vector<Explorer::ThreadSpec> specs;
    for (int t = 0; t < 2; ++t) {
      specs.push_back({t, [v, done, &finals] {
                         uint32_t x = v->Load();
                         v->Store(x + 1);
                         if (++*done == 2) {
                           finals.insert(v->Load());
                         }
                       }});
    }
    return specs;
  });
  EXPECT_FALSE(result.violation_found);
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(finals, (std::set<uint32_t>{1u, 2u}));
}

TEST(ExplorerLitmus, StoreBufferingForbiddenUnderSc) {
  // SB litmus: x=1; r0=y || y=1; r1=x. Under SC, r0==0 && r1==0 is impossible
  // (the explorer checks sequential consistency only — DESIGN.md documents this scope).
  Explorer explorer;
  bool both_zero = false;
  auto result = explorer.Explore([&] {
    auto x = std::make_shared<AtomicU32>(0u);
    auto y = std::make_shared<AtomicU32>(0u);
    auto r = std::make_shared<std::array<uint32_t, 2>>();
    auto done = std::make_shared<int>(0);
    auto finish = [r, done, &both_zero] {
      if (++*done == 2) {
        both_zero = both_zero || ((*r)[0] == 0 && (*r)[1] == 0);
      }
    };
    std::vector<Explorer::ThreadSpec> specs;
    specs.push_back({0, [x, y, r, finish] {
                       x->Store(1);
                       (*r)[0] = y->Load();
                       finish();
                     }});
    specs.push_back({1, [x, y, r, finish] {
                       y->Store(1);
                       (*r)[1] = x->Load();
                       finish();
                     }});
    return specs;
  });
  EXPECT_TRUE(result.exhausted);
  EXPECT_FALSE(both_zero);
}

TEST(ExplorerLitmus, MessagePassingHasNoStaleData) {
  // MP litmus — writer: data=1; flag=1. reader: r_flag=flag; r_data=data. Under SC,
  // seeing the flag set with stale data ((1,0)) is impossible; the other three
  // outcomes must all be explored.
  Explorer explorer;
  std::set<std::pair<uint32_t, uint32_t>> outcomes;
  auto result = explorer.Explore([&] {
    auto data = std::make_shared<AtomicU32>(0u);
    auto flag = std::make_shared<AtomicU32>(0u);
    std::vector<Explorer::ThreadSpec> specs;
    specs.push_back({0, [data, flag, &outcomes] {
                       uint32_t r_flag = flag->Load();
                       uint32_t r_data = data->Load();
                       outcomes.emplace(r_flag, r_data);
                     }});
    specs.push_back({1, [data, flag] {
                       data->Store(1);
                       flag->Store(1);
                     }});
    return specs;
  });
  EXPECT_TRUE(result.exhausted);
  EXPECT_TRUE(outcomes.count({0u, 0u}));
  EXPECT_TRUE(outcomes.count({0u, 1u}));
  EXPECT_TRUE(outcomes.count({1u, 1u}));
  EXPECT_FALSE(outcomes.count({1u, 0u}));  // flag set but data stale: SC forbids
}

TEST(ExplorerLitmus, AtomicRmwHasNoLostUpdate) {
  Explorer explorer;
  std::set<uint32_t> finals;
  auto result = explorer.Explore([&] {
    auto v = std::make_shared<AtomicU32>(0u);
    auto done = std::make_shared<int>(0);
    std::vector<Explorer::ThreadSpec> specs;
    for (int t = 0; t < 3; ++t) {
      specs.push_back({t, [v, done, &finals] {
                         v->FetchAdd(1);
                         if (++*done == 3) {
                           finals.insert(v->Load());
                         }
                       }});
    }
    return specs;
  });
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(finals, (std::set<uint32_t>{3u}));
}

TEST(ExplorerLitmus, CompareExchangeWinnerIsUnique) {
  Explorer explorer;
  bool multiple_winners = false;
  auto result = explorer.Explore([&] {
    auto v = std::make_shared<AtomicU32>(0u);
    auto winners = std::make_shared<int>(0);
    auto done = std::make_shared<int>(0);
    std::vector<Explorer::ThreadSpec> specs;
    for (int t = 0; t < 3; ++t) {
      specs.push_back({t, [v, winners, done, &multiple_winners] {
                         uint32_t expected = 0;
                         if (v->CompareExchange(expected, 7)) {
                           ++*winners;
                         }
                         if (++*done == 3) {
                           multiple_winners = multiple_winners || *winners != 1;
                         }
                       }});
    }
    return specs;
  });
  EXPECT_TRUE(result.exhausted);
  EXPECT_FALSE(multiple_winners);
}

TEST(ExplorerTest, SpinUntilBlocksUntilStore) {
  Explorer explorer;
  auto result = explorer.Explore([&] {
    auto flag = std::make_shared<AtomicU32>(0u);
    std::vector<Explorer::ThreadSpec> specs;
    specs.push_back({0, [flag] {
                       MckMemory::SpinUntil(*flag, [](uint32_t v) { return v == 1; });
                     }});
    specs.push_back({1, [flag] { flag->Store(1); }});
    return specs;
  });
  EXPECT_FALSE(result.violation_found) << result.violation;
  EXPECT_TRUE(result.exhausted);
}

TEST(ExplorerTest, StrandedSpinnerIsADeadlock) {
  Explorer explorer;
  auto result = explorer.Explore([&] {
    auto flag = std::make_shared<AtomicU32>(0u);
    std::vector<Explorer::ThreadSpec> specs;
    specs.push_back({0, [flag] {
                       MckMemory::SpinUntil(*flag, [](uint32_t v) { return v == 1; });
                     }});
    return specs;
  });
  EXPECT_TRUE(result.violation_found);
  EXPECT_NE(result.violation.find("deadlock"), std::string::npos);
}

TEST(ExplorerTest, FailUnwindsAndReportsFirstViolation) {
  Explorer explorer;
  auto result = explorer.Explore([&] {
    auto v = std::make_shared<AtomicU32>(0u);
    std::vector<Explorer::ThreadSpec> specs;
    specs.push_back({0, [v] {
                       v->Store(1);
                       Explorer::Current().Fail("custom violation");
                     }});
    specs.push_back({1, [v] {
                       MckMemory::SpinUntil(*v, [](uint32_t x) { return x == 2; });
                     }});
    return specs;
  });
  EXPECT_TRUE(result.violation_found);
  EXPECT_EQ(result.violation, "custom violation");
  EXPECT_FALSE(result.violating_schedule.empty());
}

TEST(ExplorerTest, ExecutionBudgetReportsNonExhausted) {
  Explorer::Options options;
  options.max_executions = 2;
  Explorer explorer(options);
  auto result = explorer.Explore([&] {
    auto v = std::make_shared<AtomicU32>(0u);
    std::vector<Explorer::ThreadSpec> specs;
    for (int t = 0; t < 3; ++t) {
      specs.push_back({t, [v] { v->FetchAdd(1); }});
    }
    return specs;
  });
  EXPECT_FALSE(result.violation_found);
  EXPECT_FALSE(result.exhausted);
  EXPECT_EQ(result.executions, 2u);
}

TEST(ExplorerTest, DeterministicExecutionCount) {
  auto count = [] {
    Explorer explorer;
    auto result = explorer.Explore([&] {
      auto v = std::make_shared<AtomicU32>(0u);
      std::vector<Explorer::ThreadSpec> specs;
      for (int t = 0; t < 3; ++t) {
        specs.push_back({t, [v] {
                           v->FetchAdd(1);
                           (void)v->Load();
                         }});
      }
      return specs;
    });
    return result.executions;
  };
  EXPECT_EQ(count(), count());
}

TEST(ExplorerTest, IndependentThreadsExploreOneExecution) {
  // Threads touching disjoint addresses commute: DPOR finds no conflict to branch on.
  Explorer explorer;
  auto result = explorer.Explore([&] {
    auto a = std::make_shared<AtomicU32>(0u);
    auto b = std::make_shared<AtomicU32>(0u);
    std::vector<Explorer::ThreadSpec> specs;
    specs.push_back({0, [a] { a->FetchAdd(1); a->FetchAdd(1); }});
    specs.push_back({1, [b] { b->FetchAdd(1); b->FetchAdd(1); }});
    return specs;
  });
  EXPECT_TRUE(result.exhausted);
  EXPECT_EQ(result.executions, 1u);
}

// --- Pinned explorations ---
//
// The explorer's bookkeeping may be reworked for speed, but no scheduling decision may
// move: each exploration below folds its whole Result into one FNV-1a constant. Between
// them they end executions every way the explorer can: completed (four locks), parked
// on two addresses, suspended at a SchedulePoint, cut by a mutant's violation, by a
// deadlock, by the step bound, and by the execution budget. No other end exists: an
// execution runs until every thread finishes or a violation stops it, and the
// fixed-step program pins that.

uint64_t Fingerprint(const Explorer::Result& result) {
  uint64_t hash = 0xcbf29ce484222325ull;
  auto byte = [&hash](uint8_t b) { hash = (hash ^ b) * 0x100000001b3ull; };
  auto word = [&byte](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  word(result.executions);
  word(result.total_steps);
  byte(result.exhausted ? 1 : 0);
  byte(result.violation_found ? 1 : 0);
  word(result.violation.size());
  for (char c : result.violation) {
    byte(static_cast<uint8_t>(c));
  }
  word(result.violating_schedule.size());
  for (int tid : result.violating_schedule) {
    word(static_cast<uint64_t>(tid));
  }
  return hash;
}

template <class L>
Explorer::Result CheckFresh(int threads, int acquisitions, std::vector<int> cpus = {}) {
  CheckConfig config;
  config.threads = threads;
  config.acquisitions = acquisitions;
  config.cpus = std::move(cpus);
  return CheckLock<L>(config, [] { return std::make_shared<L>(); }).result;
}

// Three threads with two accesses each and no waits, so every execution takes six
// steps; fewer in total would mean some execution ended early.
constexpr uint64_t kFixedProgramSteps = 6;
Explorer::Result ExploreFixedStepProgram() {
  Explorer explorer;
  return explorer.Explore([] {
    auto x = std::make_shared<AtomicU32>(0u);
    auto y = std::make_shared<AtomicU32>(0u);
    std::vector<Explorer::ThreadSpec> specs;
    specs.push_back({0, [x, y] {
                       x->Store(1);
                       y->Store(1);
                     }});
    specs.push_back({1, [x, y] {
                       (void)y->Load();
                       (void)x->Load();
                     }});
    specs.push_back({2, [x, y] {
                       (void)x->Load();
                       y->Store(2);
                     }});
    return specs;
  });
}

TEST(ExplorerPinTest, ExplorationsMatchCapture) {
  static const topo::Topology tiny8 = topo::Topology::FromSpec("tiny8:8;a=2;b=4");
  static const topo::Hierarchy two_level = topo::Hierarchy::Select(tiny8, {"b", "system"});
  using M = MckMemory;
  using TktTkt = Compose<M, locks::TicketLock<M>, locks::TicketLock<M>>;

  struct Case {
    const char* name;
    std::function<Explorer::Result()> explore;
    uint64_t fingerprint;
  };
  const Case cases[] = {
      {"tkt-tkt, 3 threads",
       [] {
         CheckConfig config;
         config.threads = 3;
         config.cpus = {0, 1, 4};
         return CheckLock<TktTkt>(config, [] {
                  ClofParams params;
                  params.keep_local_threshold = 2;
                  return std::make_shared<TktTkt>(two_level, 0, params);
                }).result;
       },
       0xd197029f68642ce1ull},
      {"mcs, 2 threads", [] { return CheckFresh<locks::McsLock<M>>(2, 1); },
       0xcdfe0896340d22eeull},
      {"clh, 3 threads", [] { return CheckFresh<locks::ClhLock<M>>(3, 1); },
       0x5aae314bb5404bd2ull},
      {"hemlock-ctr, 3 threads", [] { return CheckFresh<locks::Hemlock<M, true>>(3, 1); },
       0x4e925929a0c07093ull},
      {"fixed-step program", ExploreFixedStepProgram, 0x1ca2bd4e02db7fd6ull},
      {"peterson two-address park",
       [] { return CheckFresh<test_locks::PetersonLock>(2, 1, {0, 1}); },
       0x796aa6a19a961b78ull},
      {"schedule point",
       [] {
         Explorer explorer;
         return explorer.Explore([] {
           auto v = std::make_shared<AtomicU32>(0u);
           std::vector<Explorer::ThreadSpec> specs;
           for (int t = 0; t < 3; ++t) {
             specs.push_back({t, [v] {
                                v->FetchAdd(1);
                                Explorer::Current().SchedulePoint();
                                (void)v->Load();
                              }});
           }
           return specs;
         });
       },
       0x78293631ca7214d0ull},
      {"lost-ticket mutant", [] { return CheckFresh<test_locks::MutexViolatingLock>(2, 2); },
       0xc88adad480bb2894ull},
      {"deadlock mutant", [] { return CheckFresh<test_locks::DeadlockingLock>(2, 2); },
       0x35f604caf388b85aull},
      {"step bound",
       [] {
         Explorer::Options options;
         options.max_steps = 40;
         Explorer explorer(options);
         return explorer.Explore([] {
           auto v = std::make_shared<AtomicU32>(0u);
           std::vector<Explorer::ThreadSpec> specs;
           for (int t = 0; t < 2; ++t) {
             specs.push_back({t, [v] {
                                for (;;) {
                                  v->FetchAdd(1);
                                }
                              }});
           }
           return specs;
         });
       },
       0x373a6c678f5f6e12ull},
      {"execution budget",
       [] {
         Explorer::Options options;
         options.max_executions = 20;
         Explorer explorer(options);
         return explorer.Explore([] {
           auto v = std::make_shared<AtomicU32>(0u);
           std::vector<Explorer::ThreadSpec> specs;
           for (int t = 0; t < 3; ++t) {
             specs.push_back({t, [v] {
                                v->FetchAdd(1);
                                (void)v->Load();
                              }});
           }
           return specs;
         });
       },
       0xe3507b64b41f4cf1ull},
  };
  for (const Case& c : cases) {
    const Explorer::Result result = c.explore();
    EXPECT_EQ(Fingerprint(result), c.fingerprint)
        << c.name << ": " << result.executions << " executions, " << result.total_steps
        << " steps, violation \"" << result.violation << "\", fingerprint 0x" << std::hex
        << Fingerprint(result);
  }
  const Explorer::Result fixed = ExploreFixedStepProgram();
  EXPECT_EQ(fixed.total_steps, fixed.executions * kFixedProgramSteps);
}

}  // namespace
}  // namespace clof::mck

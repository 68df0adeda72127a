// The exhaustive lock registry: N^M enumeration, naming, factories, and a pinned run of
// every generated lock at depths 1-4 on both paper platforms.
#include "src/clof/registry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/mem/sim_memory.h"
#include "src/sim/engine.h"
#include "tests/sim_test_util.h"

namespace clof {
namespace {

TEST(RegistryTest, EnumerationCounts) {
  const Registry& reg = SimRegistry(true);
  // 4 + 16 + 64 + 256 generated CLoF locks...
  EXPECT_EQ(reg.Names({.levels = 1}).size(), 4u);
  EXPECT_EQ(reg.Names({.levels = 2}).size(), 16u);
  EXPECT_EQ(reg.Names({.levels = 3}).size(), 64u);
  EXPECT_EQ(reg.Names({.levels = 4}).size(), 256u + 2u);  // + two 4-level fast-path variants
  // ... plus the baselines (hmcs, cna, shfl, c-bo-mcs, c-tkt-tkt, ttas, bo) and the
  // three fast-path variants (fp-*, §6 extension).
  EXPECT_EQ(reg.size(), 340 + 7 + 3);
}

TEST(RegistryTest, PaperNotationNames) {
  const Registry& reg = SimRegistry(true);
  EXPECT_TRUE(reg.Contains("tkt"));
  EXPECT_TRUE(reg.Contains("hem-hem-mcs-clh"));   // x86 HC-best (Fig. 9a)
  EXPECT_TRUE(reg.Contains("tkt-tkt-mcs-mcs"));   // x86 LC-best
  EXPECT_TRUE(reg.Contains("tkt-clh-clh-clh"));   // Arm HC-best (Fig. 9b)
  EXPECT_TRUE(reg.Contains("tkt-clh-tkt"));       // Arm 3-level best (Fig. 9d)
  EXPECT_TRUE(reg.Contains("hmcs"));
  EXPECT_TRUE(reg.Contains("cna"));
  EXPECT_TRUE(reg.Contains("shfl"));
  EXPECT_FALSE(reg.Contains("nope"));
}

TEST(RegistryTest, MakeValidatesDepth) {
  const Registry& reg = SimRegistry(true);
  auto topology = topo::Topology::PaperArm();
  auto h3 = topo::Hierarchy::Select(topology, {"cache", "numa", "system"});
  EXPECT_THROW((void)reg.Make("tkt-clh-tkt-tkt", h3), std::invalid_argument);
  EXPECT_THROW((void)reg.Make("unknown-lock", h3), std::invalid_argument);
  auto lock = reg.Make("tkt-clh-tkt", h3);
  EXPECT_EQ(lock->name(), "tkt-clh-tkt");
  EXPECT_EQ(lock->levels(), 3);
  EXPECT_TRUE(lock->is_fair());
}

TEST(RegistryTest, DepthAdaptiveBaselines) {
  const Registry& reg = SimRegistry(false);
  auto topology = topo::Topology::PaperArm();
  for (auto names : {std::vector<std::string>{"numa", "system"},
                     std::vector<std::string>{"cache", "numa", "package", "system"}}) {
    auto h = topo::Hierarchy::Select(topology, names);
    auto hmcs = reg.Make("hmcs", h);
    EXPECT_EQ(hmcs->levels(), h.depth());
    EXPECT_NO_THROW((void)reg.Make("cna", h));
    EXPECT_NO_THROW((void)reg.Make("shfl", h));
    EXPECT_NO_THROW((void)reg.Make("c-bo-mcs", h));
  }
}

TEST(RegistryTest, CtrRegistriesDiffer) {
  // Same names in both registries; only the Hemlock flavour differs (a behavioural
  // check lives in bench/ablation_ctr; here we check the structural invariant).
  const Registry& x86 = SimRegistry(true);
  const Registry& arm = SimRegistry(false);
  EXPECT_EQ(x86.Names({.levels = 4}), arm.Names({.levels = 4}));
}

// FNV-1a over the bytes of one 64-bit word, folded into `hash`.
void Fold(uint64_t* hash, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    *hash ^= (word >> (8 * i)) & 0xff;
    *hash *= 1099511628211ull;
  }
}

// Runs every generated composition of `reg` at its own depth, `levels[depth - 1]`
// naming that hierarchy, with one thread on each of `cpus`, and checks its surface
// (depth, fair, not abortable) and mutual exclusion. Returns FNV-1a over each run's simulated access and line-transfer totals
// and its per-level counters, so a change in how a composition is built that moves
// any simulated access shows up as a different value.
uint64_t RunEveryGeneratedLock(const Registry& reg, const sim::Machine& machine,
                               const std::vector<std::vector<std::string>>& levels,
                               const std::vector<int>& cpus) {
  uint64_t hash = 14695981039346656037ull;
  for (int depth = 1; depth <= 4; ++depth) {
    auto h = topo::Hierarchy::Select(machine.topology, levels[depth - 1]);
    const auto names = reg.Names({.levels = depth, .generated_only = true});
    EXPECT_EQ(names.size(), size_t{1} << (2 * depth));
    for (const auto& name : names) {
      SCOPED_TRACE(name);
      auto lock = reg.Make(name, h);
      EXPECT_EQ(lock->levels(), depth);
      EXPECT_TRUE(lock->is_fair());
      EXPECT_FALSE(lock->abortable());
      sim::Engine engine(machine.topology, machine.platform);
      int in_cs = 0;
      bool violation = false;
      long total = 0;
      for (int cpu : cpus) {
        engine.Spawn(cpu, [&] {
          auto ctx = lock->MakeContext();
          for (int i = 0; i < 10; ++i) {
            Lock::Guard guard(*lock, *ctx);
            violation = violation || ++in_cs != 1;
            sim::Engine::Current().Work(5.0);
            --in_cs;
            ++total;
          }
        });
      }
      engine.Run();
      EXPECT_FALSE(violation);
      EXPECT_EQ(total, 10 * static_cast<long>(cpus.size()));
      Fold(&hash, engine.total_accesses());
      Fold(&hash, engine.total_line_transfers());
      for (const LevelStats& level : lock->Stats()) {
        for (uint64_t counter : {level.acquisitions, level.inherited, level.local_passes,
                                 level.climbs, level.threshold_climbs, level.unwinds}) {
          Fold(&hash, counter);
        }
      }
    }
  }
  return hash;
}

// Every one of the 340 generated names per registry, captured at commit 6b87be2, where
// each name was its own static composition type: building them another way must not
// move one simulated access. Each thread shares its core, cache group, NUMA node or
// package with some threads and not with others, so handovers both stay local and
// climb.
constexpr uint64_t kEveryGeneratedLockX86Golden = 0xf80d4e90f27c26a5ull;
constexpr uint64_t kEveryGeneratedLockArmGolden = 0x3ae48d2b8d7e215bull;

TEST(RegistryTest, EveryGeneratedLockRunsAndIsMutuallyExclusive) {
  const auto x86 = sim::Machine::PaperX86();
  const uint64_t x86_hash = RunEveryGeneratedLock(
      SimRegistry(true), x86,
      {{"system"}, {"numa", "system"}, {"cache", "numa", "system"},
       {"core", "cache", "numa", "system"}},
      {0, 48, 1, 4, 24, 72, 30, 95});
  EXPECT_EQ(x86_hash, kEveryGeneratedLockX86Golden) << "actual 0x" << std::hex << x86_hash;

  const auto arm = sim::Machine::PaperArm();
  const uint64_t arm_hash = RunEveryGeneratedLock(
      SimRegistry(false), arm,
      {{"system"}, {"numa", "system"}, {"cache", "numa", "system"},
       {"cache", "numa", "package", "system"}},
      {0, 1, 2, 5, 33, 40, 64, 100});
  EXPECT_EQ(arm_hash, kEveryGeneratedLockArmGolden) << "actual 0x" << std::hex << arm_hash;
}

TEST(RegistryTest, NativeRegistryHasFeaturedLocks) {
  const Registry& reg = NativeRegistry(true);
  EXPECT_EQ(reg.Names({.levels = 3}).size(), 64u);
  EXPECT_TRUE(reg.Contains("hem-hem-mcs-clh"));
  EXPECT_TRUE(reg.Contains("tkt-clh-tkt-tkt"));
  EXPECT_TRUE(reg.Contains("hmcs"));
}

}  // namespace
}  // namespace clof

#include "src/topo/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/rng.h"

namespace clof::topo {
namespace {

TEST(TopologyTest, PaperX86Shape) {
  Topology t = Topology::PaperX86();
  EXPECT_EQ(t.num_cpus(), 96);
  ASSERT_EQ(t.num_levels(), 5);
  EXPECT_EQ(t.level(0).name, "core");
  EXPECT_EQ(t.level(0).num_cohorts, 48);
  EXPECT_EQ(t.level(1).name, "cache");
  EXPECT_EQ(t.level(1).num_cohorts, 16);
  EXPECT_EQ(t.level(2).name, "numa");
  EXPECT_EQ(t.level(2).num_cohorts, 2);
  EXPECT_EQ(t.level(3).name, "package");
  EXPECT_EQ(t.level(3).num_cohorts, 2);
  EXPECT_EQ(t.level(4).name, "system");
  EXPECT_EQ(t.level(4).num_cohorts, 1);
}

TEST(TopologyTest, PaperX86HyperthreadNumbering) {
  // The paper's heatmap numbering: CPU c and c+48 are SMT siblings of the same core.
  Topology t = Topology::PaperX86();
  int core_level = t.LevelIndexByName("core");
  for (int c = 0; c < 48; ++c) {
    EXPECT_EQ(t.CohortOf(c, core_level), t.CohortOf(c + 48, core_level));
  }
  // Cache groups are 3 consecutive cores: CPUs {0,1,2,48,49,50} share L3.
  int cache_level = t.LevelIndexByName("cache");
  EXPECT_EQ(t.CohortOf(0, cache_level), t.CohortOf(2, cache_level));
  EXPECT_EQ(t.CohortOf(0, cache_level), t.CohortOf(50, cache_level));
  EXPECT_NE(t.CohortOf(0, cache_level), t.CohortOf(3, cache_level));
  // Package boundary between core 23 and 24.
  int numa_level = t.LevelIndexByName("numa");
  EXPECT_NE(t.CohortOf(23, numa_level), t.CohortOf(24, numa_level));
  EXPECT_EQ(t.CohortOf(23, numa_level), t.CohortOf(71, numa_level));
}

TEST(TopologyTest, PaperArmShape) {
  Topology t = Topology::PaperArm();
  EXPECT_EQ(t.num_cpus(), 128);
  ASSERT_EQ(t.num_levels(), 4);
  EXPECT_EQ(t.level(0).name, "cache");
  EXPECT_EQ(t.level(0).num_cohorts, 32);
  EXPECT_EQ(t.level(1).name, "numa");
  EXPECT_EQ(t.level(1).num_cohorts, 4);
  EXPECT_EQ(t.level(2).name, "package");
  EXPECT_EQ(t.level(2).num_cohorts, 2);
  EXPECT_EQ(t.level(3).num_cohorts, 1);
}

TEST(TopologyTest, SharingLevel) {
  Topology t = Topology::PaperArm();
  EXPECT_EQ(t.SharingLevel(5, 5), Topology::kSameCpu);
  EXPECT_EQ(t.SharingLevel(0, 1), 0);    // same cache group
  EXPECT_EQ(t.SharingLevel(0, 4), 1);    // same NUMA node
  EXPECT_EQ(t.SharingLevel(0, 33), 2);   // same package
  EXPECT_EQ(t.SharingLevel(0, 64), 3);   // system only
  EXPECT_EQ(t.SharingLevel(64, 0), 3);   // symmetric
}

TEST(TopologyTest, CohortCpus) {
  Topology t = Topology::PaperArm();
  auto cpus = t.CohortCpus(0, 1);  // second cache group
  EXPECT_EQ(cpus, (std::vector<int>{4, 5, 6, 7}));
}

TEST(TopologyTest, FlatTopology) {
  Topology t = Topology::Flat(8);
  EXPECT_EQ(t.num_levels(), 1);
  EXPECT_EQ(t.SharingLevel(0, 7), 0);
}

TEST(TopologyTest, FromSpecRoundTrip) {
  Topology t = Topology::FromSpec("arm128:128;cache=4;numa=32;package=64");
  EXPECT_EQ(t.num_cpus(), 128);
  ASSERT_EQ(t.num_levels(), 4);  // system added automatically
  EXPECT_EQ(t.level(3).name, "system");
  EXPECT_EQ(t.ToSpec(), "arm128:128;cache=4;numa=32;package=64;system=128");
  // The divisor-based spec reproduces PaperArm's structure exactly.
  Topology arm = Topology::PaperArm();
  for (int cpu = 0; cpu < 128; ++cpu) {
    for (int level = 0; level < 4; ++level) {
      EXPECT_EQ(t.CohortOf(cpu, level), arm.CohortOf(cpu, level));
    }
  }
}

TEST(TopologyTest, FromSpecErrors) {
  EXPECT_THROW(Topology::FromSpec("no-colon"), std::invalid_argument);
  EXPECT_THROW(Topology::FromSpec("x:16;a=8;b=4"), std::invalid_argument);  // not increasing
  EXPECT_THROW(Topology::FromSpec("x:16;a"), std::invalid_argument);
}

TEST(TopologyTest, FromSpecParsesWholeTokens) {
  // A number that only starts like one is an error, not its numeric prefix.
  for (const char* spec : {"t:0", "t:-4", "t:8x", "t:8;cache=2y", "t:8;numa=4.9", "t: 8",
                           "t:+8", "t:8;a=", "t:", "t:99999999999", "t:8;a=0", "t:1025"}) {
    SCOPED_TRACE(spec);
    EXPECT_THROW(Topology::FromSpec(spec), std::invalid_argument);
  }
  try {
    Topology::FromSpec("t:8;cache=2y");
    ADD_FAILURE() << "accepted cache=2y";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("'2y'"), std::string::npos) << error.what();
  }
  // A CPU count past the simulator's limit is refused before any per-CPU table is
  // built (t:100000 would ask for a 10^10-byte sharing matrix); the limit itself parses.
  try {
    Topology::FromSpec("t:100000");
    ADD_FAILURE() << "accepted t:100000";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(std::to_string(kMaxCpus)), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(Topology::FromSpec("t:" + std::to_string(kMaxCpus)).num_cpus(), kMaxCpus);
}

// The test's own reading of a divisor spec: true when every number in `spec` is a whole
// decimal token and `topology` has exactly the levels those numbers describe.
bool MatchesWholeTokens(const std::string& spec, const Topology& topology) {
  auto whole = [](const std::string& token, int* value) {
    if (token.empty() || token.size() > 9 ||
        !std::all_of(token.begin(), token.end(), [](char c) { return c >= '0' && c <= '9'; })) {
      return false;
    }
    *value = std::stoi(token);
    return true;
  };
  const size_t colon = spec.find(':');
  if (colon == std::string::npos || spec.substr(0, colon) != topology.name()) {
    return false;
  }
  std::vector<std::string> tokens;
  for (size_t begin = colon + 1;;) {
    const size_t semicolon = spec.find(';', begin);
    tokens.push_back(spec.substr(begin, semicolon - begin));
    if (semicolon == std::string::npos) {
      break;
    }
    begin = semicolon + 1;
  }
  if (tokens.size() > 1 && tokens.back().empty()) {
    tokens.pop_back();  // a trailing ';' ends the spec
  }
  int cpus = 0;
  if (!whole(tokens[0], &cpus) || cpus != topology.num_cpus()) {
    return false;
  }
  int level = 0;
  for (size_t i = 1; i < tokens.size(); ++i, ++level) {
    const size_t eq = tokens[i].find('=');
    int divisor = 0;
    if (eq == std::string::npos || !whole(tokens[i].substr(eq + 1), &divisor) ||
        level >= topology.num_levels() || topology.level(level).name != tokens[i].substr(0, eq) ||
        topology.level(level).num_cohorts != (cpus + divisor - 1) / divisor) {
      return false;
    }
  }
  // FromSpec appends a system level when the last divisor leaves several cohorts.
  return level == topology.num_levels() ||
         (level + 1 == topology.num_levels() && topology.level(level).name == "system" &&
          topology.level(level).num_cohorts == 1);
}

TEST(TopologyTest, FromSpecSurvivesCutsAndByteFlips) {
  // A spec shaped like the one docs/TUTORIAL.md discovers, cut at every byte and put
  // through a fixed set of seeded single-byte flips.
  const std::string spec = "mybox:64;l0=4;l1=16;l2=32";
  std::vector<std::string> inputs;
  for (size_t cut = 0; cut <= spec.size(); ++cut) {
    inputs.push_back(spec.substr(0, cut));
  }
  const std::string separators = ":;=-+.x 0123456789";
  runtime::Xoshiro256 rng(20211026);
  for (int i = 0; i < 4096; ++i) {
    std::string flipped = spec;
    const uint64_t draw = rng.Next();
    flipped[draw % spec.size()] =
        (draw >> 32) & 1 ? static_cast<char>(rng.Next() & 0xff)
                         : separators[rng.Next() % separators.size()];
    inputs.push_back(flipped);
  }
  int accepted = 0;
  for (const std::string& input : inputs) {
    try {
      const Topology topology = Topology::FromSpec(input);
      ++accepted;
      EXPECT_TRUE(MatchesWholeTokens(input, topology)) << "accepted: " << input;
    } catch (const std::invalid_argument&) {
      // A structured rejection is a valid outcome.
    } catch (const std::exception& error) {
      ADD_FAILURE() << "spec " << input << " threw " << error.what();
    }
  }
  EXPECT_GT(accepted, 1);  // the uncut spec and its digit-for-digit flips at least
}

TEST(TopologyTest, RejectsNonNestingLevels) {
  // Level A groups {0,1}{2,3}; level B groups {1,2}{3,0}: not nested.
  Level a{.name = "a", .cpu_to_cohort = {0, 0, 1, 1}, .num_cohorts = 2};
  Level b{.name = "b", .cpu_to_cohort = {1, 0, 0, 1}, .num_cohorts = 2};
  Level sys{.name = "system", .cpu_to_cohort = {0, 0, 0, 0}, .num_cohorts = 1};
  EXPECT_THROW(Topology("bad", 4, {a, b, sys}), std::invalid_argument);
}

TEST(TopologyTest, RejectsMultiCohortTop) {
  Level a{.name = "a", .cpu_to_cohort = {0, 0, 1, 1}, .num_cohorts = 2};
  EXPECT_THROW(Topology("bad", 4, {a}), std::invalid_argument);
}

TEST(TopologyTest, CxlPod1024Shape) {
  Topology t = Topology::CxlPod1024();
  EXPECT_EQ(t.name(), "cxl-pod-1024");
  EXPECT_EQ(t.num_cpus(), 1024);
  ASSERT_EQ(t.num_levels(), 5);
  EXPECT_EQ(t.level(0).name, "cache");
  EXPECT_EQ(t.level(0).num_cohorts, 256);
  EXPECT_EQ(t.level(1).name, "numa");
  EXPECT_EQ(t.level(1).num_cohorts, 32);
  EXPECT_EQ(t.level(2).name, "package");
  EXPECT_EQ(t.level(2).num_cohorts, 8);
  EXPECT_EQ(t.level(3).name, "pod");
  EXPECT_EQ(t.level(3).num_cohorts, 2);
  EXPECT_EQ(t.level(4).name, "system");
  EXPECT_EQ(t.level(4).num_cohorts, 1);
}

TEST(TopologyTest, Dc4LevelShape) {
  Topology t = Topology::Dc4Level();
  EXPECT_EQ(t.name(), "dc-4level");
  EXPECT_EQ(t.num_cpus(), 1024);
  ASSERT_EQ(t.num_levels(), 4);
  EXPECT_EQ(t.level(0).name, "cache");
  EXPECT_EQ(t.level(0).num_cohorts, 128);
  EXPECT_EQ(t.level(1).name, "numa");
  EXPECT_EQ(t.level(1).num_cohorts, 16);
  EXPECT_EQ(t.level(2).name, "pod");
  EXPECT_EQ(t.level(2).num_cohorts, 4);
  EXPECT_EQ(t.level(3).name, "system");
  EXPECT_EQ(t.level(3).num_cohorts, 1);
}

// Every level's cohorts partition the CPU set, and successive levels nest: two CPUs
// sharing a cohort at level i must also share one at every level above i. These are
// the laws the engine's per-level cohort views and the CLoF tree construction rely on.
void ExpectPartitionLaws(const Topology& t) {
  for (int level = 0; level < t.num_levels(); ++level) {
    std::vector<int> seen(static_cast<size_t>(t.num_cpus()), 0);
    for (int cohort = 0; cohort < t.level(level).num_cohorts; ++cohort) {
      std::vector<int> members = t.CohortCpus(level, cohort);
      EXPECT_FALSE(members.empty()) << t.name() << " level " << level << " cohort "
                                    << cohort << " is empty";
      for (int cpu : members) {
        ASSERT_GE(cpu, 0);
        ASSERT_LT(cpu, t.num_cpus());
        ++seen[static_cast<size_t>(cpu)];
        EXPECT_EQ(t.CohortOf(cpu, level), cohort);
      }
    }
    for (int cpu = 0; cpu < t.num_cpus(); ++cpu) {
      EXPECT_EQ(seen[static_cast<size_t>(cpu)], 1)
          << t.name() << " cpu " << cpu << " appears in " << seen[static_cast<size_t>(cpu)]
          << " cohorts of level " << level;
    }
  }
  for (int level = 0; level + 1 < t.num_levels(); ++level) {
    for (int cohort = 0; cohort < t.level(level).num_cohorts; ++cohort) {
      std::vector<int> members = t.CohortCpus(level, cohort);
      int parent = t.CohortOf(members.front(), level + 1);
      for (int cpu : members) {
        EXPECT_EQ(t.CohortOf(cpu, level + 1), parent)
            << t.name() << " level-" << level << " cohort " << cohort
            << " straddles level-" << (level + 1) << " cohorts";
      }
    }
  }
}

TEST(TopologyTest, DataCenterPresetsSatisfyPartitionLaws) {
  ExpectPartitionLaws(Topology::CxlPod1024());
  ExpectPartitionLaws(Topology::Dc4Level());
}

// SharingLevel is an ultrametric over the hierarchy: symmetric, kSameCpu exactly on
// the diagonal, equal to the first level whose cohorts agree, and satisfying the
// strong triangle inequality d(a,c) <= max(d(a,b), d(b,c)). The full 1024^2 pair scan
// also pins the packed-signature fast path to the matrix it replaces.
void ExpectSharingLevelLaws(const Topology& t) {
  for (int a = 0; a < t.num_cpus(); ++a) {
    for (int b = 0; b < t.num_cpus(); ++b) {
      const int level = t.SharingLevel(a, b);
      ASSERT_EQ(level, t.SharingLevelFromMatrix(a, b))
          << t.name() << ": signature path diverges from matrix at (" << a << "," << b
          << ")";
      ASSERT_EQ(level, t.SharingLevel(b, a)) << t.name() << " (" << a << "," << b << ")";
      if (a == b) {
        ASSERT_EQ(level, Topology::kSameCpu);
        continue;
      }
      ASSERT_GE(level, 0);
      ASSERT_LT(level, t.num_levels());
      // Lowest shared level: cohorts agree at `level` and disagree everywhere below.
      ASSERT_EQ(t.CohortOf(a, level), t.CohortOf(b, level));
      if (level > 0) {
        ASSERT_NE(t.CohortOf(a, level - 1), t.CohortOf(b, level - 1));
      }
    }
  }
  // Triangle over a strided sample (the full cube is 2^30 triples). The stride is
  // coprime to every cohort size so samples cross cohort boundaries at all levels.
  constexpr int kStride = 37;
  auto dist = [&t](int a, int b) { return t.SharingLevel(a, b); };
  for (int a = 0; a < t.num_cpus(); a += kStride) {
    for (int b = 0; b < t.num_cpus(); b += kStride) {
      for (int c = 0; c < t.num_cpus(); c += kStride) {
        ASSERT_LE(dist(a, c), std::max(dist(a, b), dist(b, c)))
            << t.name() << " triangle (" << a << "," << b << "," << c << ")";
      }
    }
  }
}

TEST(TopologyTest, CxlPod1024SharingLevelLaws) {
  ExpectSharingLevelLaws(Topology::CxlPod1024());
}

TEST(TopologyTest, Dc4LevelSharingLevelLaws) { ExpectSharingLevelLaws(Topology::Dc4Level()); }

TEST(TopologyTest, SignaturePathHandlesNonPowerOfTwoFields) {
  // 96 CPUs with 3/12/48-wide groups: cohort counts 32/8/2 make every packed field a
  // non-power-of-two range, so the signature's bit_width(n-1) packing is exercised off
  // the easy power-of-two diagonal the 1024-CPU presets sit on.
  Topology t = Topology::FromSpec("odd96:96;cache=3;numa=12;package=48");
  ASSERT_EQ(t.num_levels(), 4);  // FromSpec appends the implicit system level
  EXPECT_EQ(t.level(0).num_cohorts, 32);
  EXPECT_EQ(t.level(1).num_cohorts, 8);
  EXPECT_EQ(t.level(2).num_cohorts, 2);
  ExpectPartitionLaws(t);
  ExpectSharingLevelLaws(t);
}

TEST(TopologyTest, SignatureOverflowFallsBackToMatrix) {
  // 2048 CPUs and ten levels need 11 + (10 + 9 + ... + 1) = 66 signature bits — past
  // the 64-bit budget, so this topology must serve SharingLevel from the matrix. The
  // laws have to hold identically; only the lookup path differs. FromSpec refuses more
  // than kMaxCpus CPUs, so the levels are built here as FromSpec would build
  // "deep2048:2048;l1=2;l2=4;...;l10=1024": divisors 2..1024, then the system level.
  std::vector<Level> levels;
  for (int divisor = 2; divisor <= 2048; divisor *= 2) {
    Level level{.name = divisor == 2048 ? "system" : "l" + std::to_string(levels.size() + 1),
                .cpu_to_cohort = {},
                .num_cohorts = 2048 / divisor};
    for (int cpu = 0; cpu < 2048; ++cpu) {
      level.cpu_to_cohort.push_back(cpu / divisor);
    }
    levels.push_back(std::move(level));
  }
  Topology t("deep2048", 2048, std::move(levels));
  ASSERT_EQ(t.num_cpus(), 2048);
  ASSERT_EQ(t.num_levels(), 11);
  ExpectPartitionLaws(t);
  for (int a = 0; a < t.num_cpus(); a += 13) {
    for (int b = 0; b < t.num_cpus(); b += 13) {
      const int level = t.SharingLevel(a, b);
      ASSERT_EQ(level, t.SharingLevel(b, a));
      if (a == b) {
        ASSERT_EQ(level, Topology::kSameCpu);
      } else {
        ASSERT_EQ(t.CohortOf(a, level), t.CohortOf(b, level));
        if (level > 0) {
          ASSERT_NE(t.CohortOf(a, level - 1), t.CohortOf(b, level - 1));
        }
      }
    }
  }
}

TEST(HierarchyTest, SelectByName) {
  Topology t = Topology::PaperX86();
  Hierarchy h = Hierarchy::Select(t, {"core", "cache", "numa", "system"});
  EXPECT_EQ(h.depth(), 4);
  EXPECT_EQ(h.NumCohorts(0), 48);
  EXPECT_EQ(h.NumCohorts(3), 1);
  EXPECT_EQ(h.Describe(), "core-cache-numa-system");
  EXPECT_EQ(h.CohortOf(50, 1), t.CohortOf(50, 1));
}

TEST(HierarchyTest, SkippingLevelsIsAllowed) {
  Topology t = Topology::PaperArm();
  Hierarchy h = Hierarchy::Select(t, {"cache", "numa", "system"});  // package skipped
  EXPECT_EQ(h.depth(), 3);
  EXPECT_EQ(h.Describe(), "cache-numa-system");
}

TEST(HierarchyTest, Validation) {
  Topology t = Topology::PaperArm();
  EXPECT_THROW(Hierarchy::Select(t, {"numa", "cache", "system"}), std::invalid_argument);
  EXPECT_THROW(Hierarchy::Select(t, {"cache", "numa"}), std::invalid_argument);  // no root
  EXPECT_THROW(Hierarchy::Select(t, {"l3", "system"}), std::invalid_argument);   // unknown
}

}  // namespace
}  // namespace clof::topo

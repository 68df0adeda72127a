#include "src/topo/topology.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace clof::topo {
namespace {

Level DivisorLevel(const std::string& name, int num_cpus, int divisor) {
  Level level;
  level.name = name;
  level.cpu_to_cohort.resize(num_cpus);
  for (int cpu = 0; cpu < num_cpus; ++cpu) {
    level.cpu_to_cohort[cpu] = cpu / divisor;
  }
  level.num_cohorts = (num_cpus + divisor - 1) / divisor;
  return level;
}

// A FromSpec number: a CPU count or a level divisor, parsed whole as a positive decimal.
int SpecNumber(const std::string& token, const std::string& spec) {
  const bool digits = !token.empty() && token.size() <= 9 &&
                      std::all_of(token.begin(), token.end(),
                                  [](char c) { return c >= '0' && c <= '9'; });
  const int value = digits ? std::stoi(token) : 0;
  if (value <= 0) {
    throw std::invalid_argument("topology spec token '" + token +
                                "' is not a positive whole number: " + spec);
  }
  return value;
}

}  // namespace

Topology::Topology(std::string name, int num_cpus, std::vector<Level> levels)
    : name_(std::move(name)), num_cpus_(num_cpus), levels_(std::move(levels)) {
  if (num_cpus_ <= 0) {
    throw std::invalid_argument("topology needs at least one CPU");
  }
  if (levels_.empty()) {
    throw std::invalid_argument("topology needs at least the system level");
  }
  for (auto& level : levels_) {
    if (static_cast<int>(level.cpu_to_cohort.size()) != num_cpus_) {
      throw std::invalid_argument("level '" + level.name + "' does not map every CPU");
    }
    int max_cohort = *std::max_element(level.cpu_to_cohort.begin(), level.cpu_to_cohort.end());
    int min_cohort = *std::min_element(level.cpu_to_cohort.begin(), level.cpu_to_cohort.end());
    if (min_cohort < 0) {
      throw std::invalid_argument("level '" + level.name + "' has a negative cohort");
    }
    if (level.num_cohorts == 0) {
      level.num_cohorts = max_cohort + 1;
    } else if (level.num_cohorts <= max_cohort) {
      throw std::invalid_argument("level '" + level.name + "' num_cohorts too small");
    }
  }
  const Level& top = levels_.back();
  if (top.num_cohorts != 1) {
    throw std::invalid_argument("highest level must be a single system-wide cohort");
  }
  // Levels must nest: two CPUs sharing a cohort at level i must share one at level i+1.
  for (size_t i = 0; i + 1 < levels_.size(); ++i) {
    std::map<int, int> low_to_high;
    for (int cpu = 0; cpu < num_cpus_; ++cpu) {
      int low = levels_[i].cpu_to_cohort[cpu];
      int high = levels_[i + 1].cpu_to_cohort[cpu];
      auto [it, inserted] = low_to_high.emplace(low, high);
      if (!inserted && it->second != high) {
        throw std::invalid_argument("levels '" + levels_[i].name + "' and '" +
                                    levels_[i + 1].name + "' do not nest");
      }
    }
  }
  // Memoize cohort membership per level (counting sort into a CSR index: one pass to
  // size the cohorts, one to deal the CPUs — id order within a cohort falls out of the
  // ascending scan).
  cohort_index_.resize(levels_.size());
  for (size_t i = 0; i < levels_.size(); ++i) {
    const Level& level = levels_[i];
    CohortIndex& index = cohort_index_[i];
    index.offsets.assign(static_cast<size_t>(level.num_cohorts) + 1, 0);
    for (int cohort : level.cpu_to_cohort) {
      ++index.offsets[static_cast<size_t>(cohort) + 1];
    }
    for (size_t c = 1; c < index.offsets.size(); ++c) {
      index.offsets[c] += index.offsets[c - 1];
    }
    index.members.resize(static_cast<size_t>(num_cpus_));
    std::vector<int> next(index.offsets.begin(), index.offsets.end() - 1);
    for (int cpu = 0; cpu < num_cpus_; ++cpu) {
      index.members[static_cast<size_t>(next[level.cpu_to_cohort[cpu]]++)] = cpu;
    }
  }
  // Precompute the pairwise sharing-level matrix (see SharingLevel in the header), level
  // by level from the top: every pair starts at the system level, and each lower level
  // overwrites the pairs inside each of its cohorts, so a pair ends at the lowest level
  // whose cohort holds both CPUs. Filling rows from the cohort index replaces a level
  // scan per pair: a tight loop whose speed on the 1024-CPU presets depended on where
  // the linker happened to place it.
  sharing_level_.assign(static_cast<size_t>(num_cpus_) * num_cpus_,
                        static_cast<int8_t>(num_levels() - 1));
  for (int i = num_levels() - 2; i >= 0; --i) {
    for (int cohort = 0; cohort < levels_[i].num_cohorts; ++cohort) {
      const CpuSpan members = CohortMembers(i, cohort);
      for (int a : members) {
        int8_t* row = &sharing_level_[static_cast<size_t>(a) * num_cpus_];
        for (int b : members) {
          row[b] = static_cast<int8_t>(i);
        }
      }
    }
  }
  for (int a = 0; a < num_cpus_; ++a) {
    sharing_level_[static_cast<size_t>(a) * num_cpus_ + a] = static_cast<int8_t>(kSameCpu);
  }
  // Pack the per-CPU path signatures for the SharingLevel fast path (header comment).
  // Field widths: bit_width(num_cohorts - 1) per level (0 bits for the single-cohort
  // system level — equal everywhere, so it needs no representation), bit_width(cpus-1)
  // for the bottom CPU-id field. Skipped if the total overflows 64 bits (the matrix
  // then serves lookups directly).
  {
    auto width_for = [](int distinct) {
      return distinct <= 1 ? 0 : 64 - __builtin_clzll(static_cast<uint64_t>(distinct) - 1);
    };
    int total_bits = width_for(num_cpus_);
    for (const Level& level : levels_) {
      total_bits += width_for(level.num_cohorts);
    }
    if (total_bits <= 64) {
      path_sig_.assign(static_cast<size_t>(num_cpus_), 0);
      int shift = 0;
      const int cpu_bits = width_for(num_cpus_);
      for (int bit = 0; bit < cpu_bits; ++bit) {
        sig_bit_level_[shift + bit] = 0;  // differ only in CPU id: same bottom cohort
      }
      for (int cpu = 0; cpu < num_cpus_; ++cpu) {
        path_sig_[cpu] = static_cast<uint64_t>(cpu);
      }
      shift = cpu_bits;
      for (int i = 0; i < num_levels(); ++i) {
        const int bits = width_for(levels_[i].num_cohorts);
        for (int bit = 0; bit < bits; ++bit) {
          // First difference in level i's field: cohorts diverge at i, join at i + 1.
          sig_bit_level_[shift + bit] = static_cast<int8_t>(i + 1);
        }
        for (int cpu = 0; cpu < num_cpus_; ++cpu) {
          path_sig_[cpu] |= static_cast<uint64_t>(levels_[i].cpu_to_cohort[cpu]) << shift;
        }
        shift += bits;
      }
    }
  }
}

int Topology::LevelIndexByName(const std::string& level_name) const {
  for (int i = 0; i < num_levels(); ++i) {
    if (levels_[i].name == level_name) {
      return i;
    }
  }
  return -1;
}

std::vector<int> Topology::CohortCpus(int level_index, int cohort) const {
  CpuSpan span = CohortMembers(level_index, cohort);
  return std::vector<int>(span.begin(), span.end());
}

Topology Topology::PaperX86() {
  // 96 CPUs: CPU c belongs to core (c % 48); cores 0..23 are package 0, 24..47 package 1;
  // each group of 3 consecutive cores shares an L3 partition (cache group).
  constexpr int kCpus = 96;
  constexpr int kCores = 48;
  auto core_of = [](int cpu) { return cpu % kCores; };

  Level core{.name = "core", .cpu_to_cohort = {}, .num_cohorts = kCores};
  Level cache{.name = "cache", .cpu_to_cohort = {}, .num_cohorts = kCores / 3};
  Level numa{.name = "numa", .cpu_to_cohort = {}, .num_cohorts = 2};
  Level package{.name = "package", .cpu_to_cohort = {}, .num_cohorts = 2};
  Level system{.name = "system", .cpu_to_cohort = {}, .num_cohorts = 1};
  for (int cpu = 0; cpu < kCpus; ++cpu) {
    int c = core_of(cpu);
    core.cpu_to_cohort.push_back(c);
    cache.cpu_to_cohort.push_back(c / 3);
    numa.cpu_to_cohort.push_back(c / 24);
    package.cpu_to_cohort.push_back(c / 24);  // 1 NUMA node per package on this machine
    system.cpu_to_cohort.push_back(0);
  }
  return Topology("paper-x86", kCpus, {core, cache, numa, package, system});
}

Topology Topology::PaperArm() {
  // 128 CPUs, no SMT: 4 consecutive CPUs share a cache group, 32 a NUMA node,
  // 64 a package.
  constexpr int kCpus = 128;
  std::vector<Level> levels;
  levels.push_back(DivisorLevel("cache", kCpus, 4));
  levels.push_back(DivisorLevel("numa", kCpus, 32));
  levels.push_back(DivisorLevel("package", kCpus, 64));
  levels.push_back(DivisorLevel("system", kCpus, kCpus));
  return Topology("paper-arm", kCpus, std::move(levels));
}

Topology Topology::CxlPod1024() {
  // 1024 CPUs: 4 consecutive CPUs share an L3 slice, 32 a NUMA node, 128 a socket,
  // 512 a CXL pod (four sockets behind one switch), two pods per system.
  constexpr int kCpus = 1024;
  std::vector<Level> levels;
  levels.push_back(DivisorLevel("cache", kCpus, 4));
  levels.push_back(DivisorLevel("numa", kCpus, 32));
  levels.push_back(DivisorLevel("package", kCpus, 128));
  levels.push_back(DivisorLevel("pod", kCpus, 512));
  levels.push_back(DivisorLevel("system", kCpus, kCpus));
  return Topology("cxl-pod-1024", kCpus, std::move(levels));
}

Topology Topology::Dc4Level() {
  // 1024 CPUs in the flattest data-center shape a depth-4 CLoF composition covers
  // fully: 8 per cache group, 64 per NUMA node, 256 per pod, one system.
  constexpr int kCpus = 1024;
  std::vector<Level> levels;
  levels.push_back(DivisorLevel("cache", kCpus, 8));
  levels.push_back(DivisorLevel("numa", kCpus, 64));
  levels.push_back(DivisorLevel("pod", kCpus, 256));
  levels.push_back(DivisorLevel("system", kCpus, kCpus));
  return Topology("dc-4level", kCpus, std::move(levels));
}

Topology Topology::Flat(int num_cpus, const std::string& name) {
  return Topology(name, num_cpus, {DivisorLevel("system", num_cpus, num_cpus)});
}

Topology Topology::FromSpec(const std::string& spec) {
  auto colon = spec.find(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument("topology spec missing ':' after name: " + spec);
  }
  std::string name = spec.substr(0, colon);
  std::stringstream rest(spec.substr(colon + 1));
  std::string token;
  if (!std::getline(rest, token, ';')) {
    throw std::invalid_argument("topology spec missing CPU count: " + spec);
  }
  const int num_cpus = SpecNumber(token, spec);
  if (num_cpus > kMaxCpus) {
    throw std::invalid_argument("topology spec CPU count " + token +
                                " exceeds the simulator limit of " +
                                std::to_string(kMaxCpus) + ": " + spec);
  }
  std::vector<Level> levels;
  int prev_div = 0;
  while (std::getline(rest, token, ';')) {
    auto eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("bad level token '" + token + "' in spec: " + spec);
    }
    std::string level_name = token.substr(0, eq);
    const int divisor = SpecNumber(token.substr(eq + 1), spec);
    if (divisor <= prev_div) {
      throw std::invalid_argument("level divisors must strictly increase: " + spec);
    }
    prev_div = divisor;
    levels.push_back(DivisorLevel(level_name, num_cpus, divisor));
  }
  if (levels.empty() || levels.back().num_cohorts != 1) {
    levels.push_back(DivisorLevel("system", num_cpus, num_cpus));
  }
  return Topology(std::move(name), num_cpus, std::move(levels));
}

std::string Topology::ToSpec() const {
  std::ostringstream out;
  out << name_ << ':' << num_cpus_;
  for (const auto& level : levels_) {
    // Recover the divisor from cohort sizes; only exact divisor levels round-trip.
    int divisor = num_cpus_ / level.num_cohorts;
    out << ';' << level.name << '=' << divisor;
  }
  return out.str();
}

Hierarchy::Hierarchy(const Topology* topology, std::vector<int> level_indices)
    : topology_(topology), level_indices_(std::move(level_indices)) {
  if (level_indices_.empty()) {
    throw std::invalid_argument("hierarchy needs at least one level");
  }
  for (size_t i = 0; i + 1 < level_indices_.size(); ++i) {
    if (level_indices_[i] >= level_indices_[i + 1]) {
      throw std::invalid_argument("hierarchy levels must be ordered low to high");
    }
  }
  for (int idx : level_indices_) {
    if (idx < 0 || idx >= topology_->num_levels()) {
      throw std::invalid_argument("hierarchy level index out of range");
    }
  }
  if (topology_->level(level_indices_.back()).num_cohorts != 1) {
    throw std::invalid_argument("hierarchy must be rooted at the system level");
  }
}

Hierarchy Hierarchy::Select(const Topology& topology,
                            std::initializer_list<const char*> names) {
  std::vector<std::string> name_vec;
  for (const char* n : names) {
    name_vec.emplace_back(n);
  }
  return Select(topology, name_vec);
}

Hierarchy Hierarchy::Select(const Topology& topology, const std::vector<std::string>& names) {
  std::vector<int> indices;
  for (const auto& n : names) {
    int idx = topology.LevelIndexByName(n);
    if (idx < 0) {
      throw std::invalid_argument("topology '" + topology.name() + "' has no level '" + n +
                                  "'");
    }
    indices.push_back(idx);
  }
  return Hierarchy(&topology, std::move(indices));
}

std::string Hierarchy::Describe() const {
  std::string out;
  for (int i = 0; i < depth(); ++i) {
    if (i > 0) {
      out += '-';
    }
    out += LevelName(i);
  }
  return out;
}

}  // namespace clof::topo

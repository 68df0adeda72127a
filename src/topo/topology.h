// Multi-level NUMA topology model (paper §3.1).
//
// A Topology names the memory-hierarchy levels of a machine, ordered from the lowest
// (closest to a CPU, e.g. "core" = SMT siblings) to the highest ("system"), and maps
// every CPU to its cohort at every level. A cohort is a group of CPUs sharing that level
// (one NUMA node, one L3 cache group, ...).
//
// Two builtin topologies replicate the paper's evaluation machines:
//  * PaperX86(): 2 packages x 1 NUMA node x 8 cache groups x 3 cores x 2 hyperthreads
//    (96 CPUs; GIGABYTE R182-Z91 with two EPYC 7352). CPU numbering follows the paper's
//    heatmap: CPUs 0..47 are the first hyperthread of each core, 48..95 the siblings.
//  * PaperArm(): 2 packages x 2 NUMA nodes x 8 cache groups x 4 cores, 1 CPU per core
//    (128 CPUs; Huawei TaiShan 200 with two Kunpeng 920-6426).
//
// A Hierarchy is the subset of topology levels chosen for a lock tree (the paper's
// "hierarchy configuration" tuning point), e.g. x86 4-level = core/cache/numa/system.
#ifndef CLOF_SRC_TOPO_TOPOLOGY_H_
#define CLOF_SRC_TOPO_TOPOLOGY_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace clof::topo {

// The most CPUs a simulated machine may have (sim::Engine::kMaxCpus), sized for the
// data-center presets below.
inline constexpr int kMaxCpus = 1024;

struct Level {
  std::string name;
  std::vector<int> cpu_to_cohort;  // indexed by CPU id
  int num_cohorts = 0;
};

class Topology {
 public:
  // `levels` must be ordered low to high; the highest level must have a single cohort
  // covering all CPUs (the "system" level). Throws std::invalid_argument on violations
  // (non-nesting levels, bad cohort ids).
  Topology(std::string name, int num_cpus, std::vector<Level> levels);

  const std::string& name() const { return name_; }
  int num_cpus() const { return num_cpus_; }
  int num_levels() const { return static_cast<int>(levels_.size()); }
  const Level& level(int index) const { return levels_[index]; }

  int CohortOf(int cpu, int level_index) const {
    return levels_[level_index].cpu_to_cohort[cpu];
  }

  // Index of the named level, or -1 if absent.
  int LevelIndexByName(const std::string& level_name) const;

  // The lowest level at which `a` and `b` share a cohort. Returns kSameCpu (-1) when
  // a == b. Always succeeds otherwise because the top level spans all CPUs.
  //
  // This sits on the simulator's access hot path (several lookups per simulated atomic
  // access: miss sourcing, invalidation rounds, wakeup attribution). The primary
  // representation is one packed path signature per CPU — the cohort id at every level
  // concatenated into a uint64, lowest level in the lowest bits, with the CPU id itself
  // as a virtual bottom field. Because levels nest, the highest bit at which two
  // signatures differ falls in the field of the highest level whose cohorts differ, so
  // the sharing level is one 64-entry table lookup away. Two 8-byte loads from an
  // 8KB-per-1024-CPUs table stay L1-resident where the naive per-pair matrix (1MB at
  // 1024 CPUs) thrashes the cache; the int8 matrix is still built as the validation
  // reference and as the fallback for degenerate topologies whose packed fields
  // overflow 64 bits.
  int SharingLevel(int a, int b) const {
    if (!path_sig_.empty()) {
      const uint64_t diff = path_sig_[a] ^ path_sig_[b];
      return diff == 0 ? kSameCpu : sig_bit_level_[63 - __builtin_clzll(diff)];
    }
    return sharing_level_[static_cast<size_t>(a) * static_cast<size_t>(num_cpus_) + b];
  }
  // The matrix representation directly (tests assert the signature path agrees).
  int SharingLevelFromMatrix(int a, int b) const {
    return sharing_level_[static_cast<size_t>(a) * static_cast<size_t>(num_cpus_) + b];
  }
  static constexpr int kSameCpu = -1;

  // CPUs belonging to cohort `cohort` of level `level_index`, in id order.
  // Served from the memoized cohort view (one copy, no per-call rescan).
  std::vector<int> CohortCpus(int level_index, int cohort) const;

  // Zero-copy view of the same membership: a contiguous id-ordered span into the
  // per-level CSR index built once at construction. Callers that used to scan all
  // of cpu_to_cohort per query (contention placement, per-cohort setup on 1024-CPU
  // topologies) iterate just the members instead.
  struct CpuSpan {
    const int* data = nullptr;
    size_t size = 0;
    const int* begin() const { return data; }
    const int* end() const { return data + size; }
    bool empty() const { return size == 0; }
    int operator[](size_t i) const { return data[i]; }
  };
  CpuSpan CohortMembers(int level_index, int cohort) const {
    const CohortIndex& index = cohort_index_[level_index];
    const int begin = index.offsets[cohort];
    const int end = index.offsets[cohort + 1];
    return {index.members.data() + begin, static_cast<size_t>(end - begin)};
  }

  // Builtin machines (see header comment).
  static Topology PaperX86();
  static Topology PaperArm();
  // Data-center-scale presets (1024 CPUs; docs/SIM_ENGINE.md "engine scale"):
  //  * CxlPod1024(): 6 levels — cache(4) / numa(32) / package(128) / pod(512) /
  //    system, modeling two CXL pods of four 128-CPU sockets each.
  //  * Dc4Level(): 4 levels — cache(8) / numa(64) / pod(256) / system, the flattest
  //    shape whose full hierarchy a depth-4 generated CLoF composition can cover.
  static Topology CxlPod1024();
  static Topology Dc4Level();
  // Trivial machine: `num_cpus` CPUs and only the system level. Useful in tests.
  static Topology Flat(int num_cpus, const std::string& name = "flat");

  // Parses "name:ncpus;level=div;level=div;..." where cohort(cpu) = cpu / div and
  // divisors strictly increase. Every number must be a whole positive decimal token
  // (std::invalid_argument names the first that is not), and ncpus at most kMaxCpus
  // (a larger count would first build a quadratic sharing matrix). A final "system"
  // level is added automatically if the last divisor does not already span all CPUs.
  // Example:
  //   "arm128:128;cache=4;numa=32;package=64"
  static Topology FromSpec(const std::string& spec);
  std::string ToSpec() const;  // best-effort inverse of FromSpec (divisor levels only)

 private:
  std::string name_;
  int num_cpus_;
  std::vector<Level> levels_;
  // sharing_level_[a * num_cpus_ + b]: lowest shared level, kSameCpu on the diagonal.
  // int8 keeps the whole matrix compact (16KB for 128 CPUs, 1MB at 1024 — still far
  // cheaper than the per-level scan it replaces); topologies are bounded well below
  // 127 levels.
  std::vector<int8_t> sharing_level_;
  // Packed per-CPU path signatures for the SharingLevel fast path (see accessor
  // comment). Empty when the packed fields would overflow 64 bits. sig_bit_level_
  // maps each signature bit position to the sharing level implied by two signatures
  // first differing there: bits of the CPU-id field map to level 0 (distinct CPUs in
  // the same bottom cohort), bits of level L's field to L + 1.
  std::vector<uint64_t> path_sig_;
  std::array<int8_t, 64> sig_bit_level_{};
  // Memoized cohort membership, one CSR index per level: members holds every CPU
  // sorted by (cohort, id), offsets[c]..offsets[c+1] delimit cohort c. Built once in
  // the constructor so CohortCpus/CohortMembers never rescan cpu_to_cohort.
  struct CohortIndex {
    std::vector<int> members;
    std::vector<int> offsets;  // num_cohorts + 1 entries
  };
  std::vector<CohortIndex> cohort_index_;
};

// A lock hierarchy: an ordered (low to high) subset of a topology's levels. The highest
// selected level must be the single-cohort system level so that one lock roots the tree.
class Hierarchy {
 public:
  // An empty placeholder (e.g. an unset config field); valid() is false and every other
  // accessor is unusable until a real Hierarchy is assigned.
  Hierarchy() = default;

  Hierarchy(const Topology* topology, std::vector<int> level_indices);

  bool valid() const { return topology_ != nullptr; }

  // Convenience: select levels by name, e.g. Select(topo, {"core", "cache", "system"}).
  static Hierarchy Select(const Topology& topology,
                          std::initializer_list<const char*> names);
  static Hierarchy Select(const Topology& topology, const std::vector<std::string>& names);

  const Topology& topology() const { return *topology_; }
  int depth() const { return static_cast<int>(level_indices_.size()); }
  int num_cpus() const { return topology_->num_cpus(); }

  int NumCohorts(int depth_index) const {
    return topology_->level(level_indices_[depth_index]).num_cohorts;
  }
  int CohortOf(int cpu, int depth_index) const {
    return topology_->CohortOf(cpu, level_indices_[depth_index]);
  }
  const std::string& LevelName(int depth_index) const {
    return topology_->level(level_indices_[depth_index]).name;
  }
  // Topology level index backing hierarchy depth `depth_index` (for correlating lock
  // levels with the simulator's per-topology-level metrics).
  int TopologyLevel(int depth_index) const { return level_indices_[depth_index]; }

  // Dash-joined level names low to high, e.g. "core-cache-numa-system".
  std::string Describe() const;

 private:
  const Topology* topology_ = nullptr;
  std::vector<int> level_indices_;
};

}  // namespace clof::topo

#endif  // CLOF_SRC_TOPO_TOPOLOGY_H_

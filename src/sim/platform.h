// Platform cost models for the discrete-event NUMA simulator (see DESIGN.md §2).
//
// A PlatformModel gives the virtual-time cost of cache-line events on a simulated
// machine: how long it takes to move a line between two CPUs separated by a given
// hierarchy level, what an L1 hit costs, how expensive invalidating sharers is, and the
// architecture-specific penalty models (x86 MESIF upgrade vs Armv8 LL/SC reservation
// stealing, the mechanism behind the paper's Hemlock-CTR results in Figure 3).
//
// The per-level latencies of the builtin models are calibrated so the two-thread
// ping-pong microbenchmark (bench/table2_speedups) reproduces the speedup ratios of the
// paper's Table 2 (x86: 1 / 1.54 / 1.54 / 9.07 / 12.18; Arm: 1 / 1.76 / 2.98 / 7.04).
#ifndef CLOF_SRC_SIM_PLATFORM_H_
#define CLOF_SRC_SIM_PLATFORM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/topo/topology.h"

namespace clof::sim {

// Virtual time in picoseconds. Picosecond granularity keeps fractional-nanosecond
// latencies exact, so every run is bit-deterministic.
using Time = uint64_t;

constexpr Time PsFromNs(double ns) { return static_cast<Time>(ns * 1000.0 + 0.5); }
constexpr double NsFromPs(Time ps) { return static_cast<double>(ps) * 1e-3; }

enum class Arch { kX86, kArm };

// Simulated private-cache residency bound: how many CPUs can hold a valid copy of one
// cache line at once (most-recently-touching wins; see Engine::LineCold). This models
// finite private-cache capacity — a line not re-touched recently is evicted — so
// read-mostly data does not end up permanently "cached everywhere" and data-locality
// effects survive. It deliberately does NOT scale with machine size: on the 1024-CPU
// presets a popular line still lives in at most 4 private caches, which is exactly why
// keep-local handover (ClofParams::keep_local_threshold) matters more there — a
// cross-pod handover evicts the line from the whole local cohort's caches. Part of the
// cost-model semantics: changing it invalidates golden transcripts and cached sweep
// cells (bump exec::kCellSchemaVersion).
inline constexpr int kLineMaxHolders = 4;

struct PlatformModel {
  std::string name;
  Arch arch = Arch::kX86;

  // One-way line transfer cost between CPUs whose lowest shared topology level is i
  // (indexed like topo::Topology levels, low to high).
  std::vector<double> level_latency_ns;

  double l1_hit_ns = 1.0;          // load/store hit on an owned/shared line
  double local_rmw_ns = 2.5;       // atomic RMW on an exclusively-held line
  double cold_miss_ns = 60.0;      // first-ever access to a line (fetch from local DRAM)
  double sharer_invalidation_ns = 4.0;  // per remote sharer invalidated by a write
  // Fraction of a transfer's latency during which the line cannot service another miss.
  // This serializes refetch storms after a write to a globally-spun-on location, which
  // is what makes Ticketlock collapse under cross-cohort contention.
  double port_occupancy = 0.6;
  // Per-spinner drag on a write to a spun-on line: real spinners poll continuously, so
  // the releaser's request-for-ownership competes with W in-flight poll requests and
  // regains the line only after ~W * this fraction of a transfer. Together with the
  // port this is the global-spinning collapse (Figure 3: tkt at half of clh on a NUMA
  // cohort); local-spinning locks have at most one spinner per line and barely notice.
  double spinner_interference = 1.5;
  // Extra cost of a *contended* atomic RMW (fetch_add/exchange/cmpxchg on a line the
  // CPU does not hold exclusively) over a plain store: bus-locked/LL-SC semantics,
  // store-buffer drains, failed-reservation retries. This is why simple locks that
  // hand over with a plain store (Ticketlock, CLH) beat RMW-heavy ones on some levels
  // (paper §3.2's "simpler algorithms tend to be faster").
  double contended_rmw_extra_ns = 0.0;
  // Armv8 only: extra cost per concurrently RMW-spinning waiter for a cmpxchg, modeling
  // the load-exclusive/store-exclusive reservation being stolen repeatedly (paper §3.2).
  double sc_retry_penalty_ns = 0.0;

  // Builtin models matching the paper's two evaluation servers. The topology argument
  // must be PaperX86()/PaperArm() respectively (latencies are indexed by its levels).
  static PlatformModel X86();
  static PlatformModel Arm();
  // Data-center-scale models for the 1024-CPU topology presets (topo::Topology::
  // CxlPod1024()/Dc4Level()). Latencies are extrapolated, not calibrated against a
  // physical machine: intra-socket levels follow the x86 model, the pod level adds a
  // CXL-switch hop (~3x a NUMA hop), and the cross-pod system level another ~2x —
  // the regime where multi-level compositions should pay off hardest.
  static PlatformModel CxlPod();
  static PlatformModel Dc();

  double LatencyNs(int sharing_level) const { return level_latency_ns[sharing_level]; }
};

// Convenience bundle: a machine is a topology plus the cost model for it.
struct Machine {
  topo::Topology topology;
  PlatformModel platform;

  static Machine PaperX86() { return {topo::Topology::PaperX86(), PlatformModel::X86()}; }
  static Machine PaperArm() { return {topo::Topology::PaperArm(), PlatformModel::Arm()}; }
  static Machine CxlPod1024() {
    return {topo::Topology::CxlPod1024(), PlatformModel::CxlPod()};
  }
  static Machine Dc4Level() { return {topo::Topology::Dc4Level(), PlatformModel::Dc()}; }
};

}  // namespace clof::sim

#endif  // CLOF_SRC_SIM_PLATFORM_H_

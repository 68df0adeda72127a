// Lock registry: name -> factory for every generated CLoF lock plus the baselines.
//
// Names follow the paper's notation (§5.2.1): a dash-separated list of basic-lock
// abbreviations from the lowest hierarchy level to the system level, e.g.
// "hem-hem-mcs-clh" = Hemlock at core and cache levels, MCS at NUMA, CLH at system.
// "hem" denotes Hemlock with the platform-appropriate CTR setting (on for the x86
// registry, off for Arm — §3.2). Baseline names: "hmcs" (same hierarchy as the CLoF
// locks), "cna", "shfl", "c-bo-mcs", "c-tkt-tkt" (2-level cohort locks).
#ifndef CLOF_SRC_CLOF_REGISTRY_H_
#define CLOF_SRC_CLOF_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/clof/lock.h"
#include "src/topo/topology.h"

namespace clof {

class Registry {
 public:
  // The registry passes the registered name back to the factory, so one stateless
  // function can serve many names: the simulated registries build all 340 generated
  // compositions with one factory that reads the lock kinds from the name, and the
  // native enumeration registers one function per static composition type. Function
  // pointers convert implicitly, but the type is std::function so wrappers like
  // adaptive::WithAdaptive can register capturing factories — e.g. a facade that
  // closes over a base registry and a preselected LC/HC lock pair.
  using Factory = std::function<std::unique_ptr<Lock>(const std::string& name,
                                                      const topo::Hierarchy& hierarchy,
                                                      const ClofParams& params)>;

  // `levels`: hierarchy depth this lock requires, or kAnyDepth for depth-adaptive locks
  // (HMCS, CNA, ...). `fair`: starvation freedom of the algorithm. `kind`: generated
  // CLoF compositions vs baselines/extensions — the scripted sweep (Figure 9) runs over
  // generated locks only.
  static constexpr int kAnyDepth = -1;
  enum class Kind { kGenerated, kBaseline };
  void Register(const std::string& name, int levels, bool fair, Factory factory,
                Kind kind = Kind::kGenerated);

  bool Contains(const std::string& name) const { return entries_.count(name) > 0; }
  std::unique_ptr<Lock> Make(const std::string& name, const topo::Hierarchy& hierarchy,
                             const ClofParams& params = {}) const;

  // Registration metadata of one lock, as passed to Register(). Callers that need a
  // lock's depth, fairness or provenance should use Info() instead of parsing the
  // dash-separated name.
  struct LockInfo {
    int levels = kAnyDepth;
    bool fair = false;
    Kind kind = Kind::kGenerated;
  };
  // Throws std::invalid_argument for unknown names (same contract as Make()).
  LockInfo Info(const std::string& name) const;

  // Name-listing filter: every field narrows the result, defaults select everything.
  struct NameFilter {
    int levels = kAnyDepth;       // exact hierarchy depth, or kAnyDepth
    bool generated_only = false;  // only the CLoF-generated compositions
    bool fair_only = false;       // only starvation-free algorithms
  };
  // All registered names matching `filter`, sorted.
  std::vector<std::string> Names(const NameFilter& filter) const;
  std::vector<std::string> Names() const { return Names(NameFilter()); }
  int size() const { return static_cast<int>(entries_.size()); }

  // Stable identity for content-addressed caching (src/exec/fingerprint.h): two
  // registries with different descriptions never share cache entries. The builtin
  // registries set this ("sim-ctr", "sim-noctr", ...); custom registries should pick a
  // unique string, or keep the default and forgo cross-registry cache safety.
  const std::string& description() const { return description_; }
  void set_description(std::string description) { description_ = std::move(description); }

 private:
  struct Entry {
    int levels;
    bool fair;
    Factory factory;
    Kind kind;
  };
  std::map<std::string, Entry> entries_;
  std::string description_ = "custom";
};

// SimRegistry: all CLoF combinations of the paper's basic-lock set {tkt, mcs, clh, hem}
// for depths 1..4, each the same ClofTree over the run-time basic-lock slot, plus all
// baselines. NativeRegistry: every combination of depth 1..3 and the six featured
// depth-4 locks as static compositions, plus all baselines. `ctr_hem` selects the
// Hemlock CTR optimization (true for x86 platforms, false for Arm). Built once on
// first use; safe to call concurrently from multiple host threads (C++ magic-static
// initialization — the parallel sweep executor's workers rely on this, and
// scripts/check_tsan.sh keeps it honest). The returned registry is immutable.
const Registry& SimRegistry(bool ctr_hem);
const Registry& NativeRegistry(bool ctr_hem);

}  // namespace clof

#endif  // CLOF_SRC_CLOF_REGISTRY_H_

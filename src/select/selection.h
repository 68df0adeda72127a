// Lock selection policies (paper §4.3).
//
// The scripted benchmark produces one throughput-vs-contention curve per generated
// lock; ranking uses a weighted average of the curve: weights proportional to the
// thread count favour high-contention performance (HC-best), weights proportional to
// its inverse favour low contention (LC-best). The worst lock under the HC ranking is
// also reported (the paper plots it for contrast).
#ifndef CLOF_SRC_SELECT_SELECTION_H_
#define CLOF_SRC_SELECT_SELECTION_H_

#include <string>
#include <vector>

namespace clof::select {

struct LockCurve {
  std::string name;
  std::vector<double> throughput;  // one entry per thread-count sweep point

  // Observability sidecars (same indexing as throughput; empty when not collected):
  // why a composition scores the way it does, not just how fast it went. See
  // docs/OBSERVABILITY.md and BenchResult in src/harness/lock_bench.h.
  std::vector<double> local_handover_rate;  // handovers within the lowest hierarchy level
  std::vector<double> transfers_per_op;     // simulated line transfers per completed op
  std::vector<double> acquire_p99_ns;       // exact nearest-rank p99 acquire latency
  std::vector<double> acquire_p999_ns;      // exact nearest-rank p999 acquire latency
};

enum class Policy {
  kHighContention,  // weights ~ thread count
  kLowContention,   // weights ~ 1 / thread count
};

// Weighted-average score of one curve; higher is better. `thread_counts` must be the
// sweep points the curve was measured at.
double Score(const LockCurve& curve, const std::vector<int>& thread_counts, Policy policy);

struct SelectionResult {
  std::string hc_best;
  std::string lc_best;
  std::string worst;  // last under the HC ranking
  double hc_best_score = 0.0;
  double lc_best_score = 0.0;
  double worst_score = 0.0;
};

SelectionResult SelectBest(const std::vector<LockCurve>& curves,
                           const std::vector<int>& thread_counts);

// All curves ranked best-first under `policy` (name, score).
std::vector<std::pair<std::string, double>> Rank(const std::vector<LockCurve>& curves,
                                                 const std::vector<int>& thread_counts,
                                                 Policy policy);

}  // namespace clof::select

#endif  // CLOF_SRC_SELECT_SELECTION_H_

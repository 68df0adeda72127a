// §4.2.3: model-checking scalability. Checking a complete N-level lock needs N+1
// threads and explodes super-exponentially (the paper: 2-level ~1s, 3-level ~3min,
// 4-level times out after 12h with GenMC). CLoF's induction argument needs only the
// 2-level step with abstract locks. This bench measures our explorer the same way:
// executions/steps/time for complete 1-, 2- and 3-level Ticketlock compositions, vs the
// constant-size induction step.
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/clof/clof_tree.h"
#include "src/locks/ticket.h"
#include "src/mck/check_lock.h"
#include "src/mck/mck_memory.h"
#include "src/topo/topology.h"

namespace {

using namespace clof;
using M = mck::MckMemory;

struct RunStats {
  uint64_t executions;
  uint64_t steps;
  double seconds;
  bool ok;
  bool exhausted;
};

template <class Tree>
RunStats CheckTree(const topo::Hierarchy& hierarchy, int threads, uint64_t budget) {
  mck::CheckConfig config;
  config.threads = threads;
  config.acquisitions = 1;
  // Spread threads so at least two share the lowest cohort and one is remote.
  for (int t = 0; t < threads; ++t) {
    config.cpus.push_back(t == 0 ? 0 : (t == 1 ? 1 : 2 * t));
  }
  config.options.max_executions = budget;
  auto start = std::chrono::steady_clock::now();
  auto stats = mck::CheckLock<Tree>(config, [&hierarchy] {
    ClofParams params;
    params.keep_local_threshold = 2;
    return std::make_shared<Tree>(hierarchy, 0, params);
  });
  auto end = std::chrono::steady_clock::now();
  return {stats.result.executions, stats.result.total_steps,
          std::chrono::duration<double>(end - start).count(),
          !stats.result.violation_found, stats.result.exhausted};
}

void Print(const char* label, const RunStats& stats) {
  std::printf("%-34s%12llu%14llu%10.2fs   %s%s\n", label,
              static_cast<unsigned long long>(stats.executions),
              static_cast<unsigned long long>(stats.steps), stats.seconds,
              stats.ok ? "ok" : "VIOLATION", stats.exhausted ? "" : " (budget hit)");
}

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv, {"budget", "quick"});
  const uint64_t budget =
      flags.GetPositiveCount("budget", flags.GetBool("quick") ? 300'000 : 3'000'000);

  static topo::Topology tiny8 = topo::Topology::FromSpec("tiny8:8;a=2;b=4");
  auto h1 = topo::Hierarchy::Select(tiny8, {"system"});
  auto h2 = topo::Hierarchy::Select(tiny8, {"b", "system"});
  auto h3 = topo::Hierarchy::Select(tiny8, {"a", "b", "system"});

  using T1 = Compose<M, locks::TicketLock<M>>;
  using T2 = Compose<M, locks::TicketLock<M>, locks::TicketLock<M>>;
  using T3 = Compose<M, locks::TicketLock<M>, locks::TicketLock<M>, locks::TicketLock<M>>;

  std::printf("\n== Model-checking cost vs composition depth (budget %llu executions) ==\n",
              static_cast<unsigned long long>(budget));
  std::printf("%-34s%12s%14s%11s\n", "configuration", "executions", "steps", "time");
  Print("1-level tkt, 2 threads", CheckTree<T1>(h1, 2, budget));
  Print("1-level tkt, 3 threads", CheckTree<T1>(h1, 3, budget));
  Print("2-level tkt-tkt, 3 threads", CheckTree<T2>(h2, 3, budget));
  Print("3-level tkt-tkt-tkt, 3 threads", CheckTree<T3>(h3, 3, budget));
  if (!flags.GetBool("quick")) {
    Print("3-level tkt-tkt-tkt, 4 threads", CheckTree<T3>(h3, 4, budget));
  }
  std::printf("\nThe induction step (2-level with abstract locks, 3 threads) stays small\n"
              "regardless of the real hierarchy depth — that is CLoF's §4.2 argument.\n");
  return 0;
}

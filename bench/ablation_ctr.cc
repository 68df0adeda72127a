// Ablation: Hemlock's Coherence-Traffic-Reduction optimization (§2.1, §3.2) —
// contended handover throughput with CTR on vs off, on both platform models. Also runs
// a native (std::atomic, google-benchmark) microbenchmark of the uncontended
// acquire/release fast paths as a host-hardware reference.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "src/harness/lock_bench.h"
#include "src/locks/hemlock.h"
#include "src/locks/mcs.h"
#include "src/locks/ticket.h"
#include "src/mem/native.h"

namespace {

using namespace clof;

void SimPart(double duration) {
  struct Cell {
    const char* machine_label;
    sim::Machine machine;
  };
  std::vector<Cell> machines{{"x86", sim::Machine::PaperX86()},
                             {"Armv8", sim::Machine::PaperArm()}};
  std::printf("\n== Ablation: Hemlock CTR on/off, 8 threads across cohorts (iter/us) ==\n");
  std::printf("%-10s%12s%12s%12s\n", "machine", "hem", "hem-ctr", "ratio");
  for (auto& cell : machines) {
    auto h1 = topo::Hierarchy::Select(cell.machine.topology, {"system"});
    double results[2];
    for (int ctr = 0; ctr < 2; ++ctr) {
      harness::BenchConfig config;
      config.spec.machine = &cell.machine;
      config.spec.hierarchy = h1;
      config.lock_name = "hem";
      config.spec.registry = &SimRegistry(ctr == 1);
      config.spec.profile = workload::Profile::LevelDbReadRandom();
      config.num_threads = 8;
      std::vector<int> cpus;
      for (int t = 0; t < 8; ++t) {
        cpus.push_back(t * (cell.machine.topology.num_cpus() / 8));
      }
      config.cpu_assignment = cpus;
      config.duration_ms = duration;
      results[ctr] = harness::RunLockBench(config).throughput_per_us;
    }
    std::printf("%-10s%12.3f%12.3f%12.2f\n", cell.machine_label, results[0], results[1],
                results[1] / results[0]);
  }
  std::printf("Expected: ratio >= ~1 on x86 (CTR helps or is neutral); ratio near 0 on\n"
              "Armv8 (LL/SC reservation stealing livelocks the handover, Figure 3).\n\n");
}

// Native microbenchmarks: uncontended lock/unlock cost on the host.
template <class L>
void BM_UncontendedAcquireRelease(benchmark::State& state) {
  L lock;
  typename L::Context ctx;
  for (auto _ : state) {
    lock.Acquire(ctx);
    benchmark::DoNotOptimize(&lock);
    lock.Release(ctx);
  }
}
BENCHMARK_TEMPLATE(BM_UncontendedAcquireRelease, locks::TicketLock<mem::NativeMemory>);
BENCHMARK_TEMPLATE(BM_UncontendedAcquireRelease, locks::McsLock<mem::NativeMemory>);
BENCHMARK_TEMPLATE(BM_UncontendedAcquireRelease, locks::Hemlock<mem::NativeMemory, false>);
BENCHMARK_TEMPLATE(BM_UncontendedAcquireRelease, locks::Hemlock<mem::NativeMemory, true>);

}  // namespace

int main(int argc, char** argv) {
  clof::bench::Flags flags(argc, argv, {"duration_ms", "quick"});
  SimPart(flags.GetPositive("duration_ms", flags.GetBool("quick") ? 0.3 : 1.0));
  // Hand google-benchmark an argv without our custom flags.
  int bench_argc = 1;
  benchmark::Initialize(&bench_argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

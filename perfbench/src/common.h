// Shared plumbing for the repository benchmark: options, the metric report, host-time
// statistics, and the engine run hook that counts simulated accesses and feeds the
// traced run's counting sink.
#ifndef CLOF_PERFBENCH_SRC_COMMON_H_
#define CLOF_PERFBENCH_SRC_COMMON_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/topo/topology.h"
#include "src/trace/trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path tmp_dir;  // per-run scratch; every cache and journal goes here
  int jobs = 1;                   // host CPUs: contending threads, parallel sweep jobs
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Median of a sample set (mean of the middle two for even sizes); 0 when empty.
double Median(std::vector<double> values);

// The highest of p90/p99/p999 that has at least ten samples beyond it, as
// {label, value}; label is empty when the set is too small for any of them.
struct Tail {
  std::string label;
  double value = 0.0;
};
Tail TailOf(std::vector<double> values);

// One workload run's results: named metrics (value + unit), the output-check tally,
// and human-readable report lines printed before the final JSON object.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // Median of `samples` as the metric, with its tail and sample count in the report.
  void Timing(const std::string& name, const std::vector<double>& samples,
              const std::string& unit, const std::string& what);
  // The same report line without a metric: figures only one workload has.
  void Describe(const std::string& name, const std::vector<double>& samples,
                const std::string& unit, const std::string& what);
  // Counts `units` checked units; `failed` of them failed. A failure also records
  // `message` so the report says which check broke.
  void Check(uint64_t units, uint64_t failed, const std::string& message);
  void Note(const std::string& line) { notes_.push_back(line); }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::map<std::string, std::pair<double, std::string>>& metrics() const {
    return metrics_;
  }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// --- Engine run hook (run_hook.cc) ---
//
// The benchmark links libclof with `-Wl,--wrap` on sim::Engine::Run, so every engine
// the library runs — inside RunScriptedBenchmark cells, RunLockBench and
// RunServiceBench alike — passes through this hook. It adds the engine's
// total_accesses() to a process-wide counter (how sim_ops is measured from outside the
// library) and, while a traced phase is active on the calling host thread, installs the
// counting sink on engines that have none.

// Simulated accesses and engine runs completed so far, across all host threads.
uint64_t EngineAccesses();
uint64_t EngineRuns();

// Counts engine events by kind and line transfers by the hierarchy level that serviced
// them. Level buckets are mapped onto canonical level names so topologies with
// different level sets (x86, Arm, CXL) share one ledger. Allocation-free: the service
// workload's results depend on heap placement, so a sink that allocated would perturb
// the run it observes.
class CountingSink final : public clof::trace::EventSink {
 public:
  static constexpr int kKinds = 6;  // trace::EventKind values
  static constexpr std::array<const char*, 8> kLevelClasses = {
      "core", "cache", "numa", "package", "pod", "system", "same_cpu", "cold"};

  void Bind(const clof::topo::Topology& topology);  // before each engine run
  void OnEvent(const clof::trace::Event& event) override;

  const std::array<uint64_t, kKinds>& events() const { return events_; }
  const std::array<uint64_t, kLevelClasses.size()>& transfers() const { return transfers_; }
  uint64_t total_events() const;

 private:
  std::array<uint64_t, kKinds> events_{};
  std::array<uint64_t, kLevelClasses.size()> transfers_{};
  std::array<uint8_t, 64> bucket_class_{};  // trace bucket index -> kLevelClasses index
};

// While alive, engines run on the constructing host thread without a sink of their own
// get `sink` installed by the run hook.
class ScopedTrace {
 public:
  explicit ScopedTrace(CountingSink* sink);
  ~ScopedTrace();
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
};

// Exact, printable rendering of doubles (hex float) for byte-identity comparisons.
std::string Hex(double value);

// Workloads (workloads.cc). Each runs its measured phase for opts.seconds (untraced) or
// its traced pass (opts.trace), checks its outputs, and fills `report`.
void RunSweep(const Options& opts, Report& report);
void RunScale1024(const Options& opts, Report& report);
void RunService(const Options& opts, Report& report);
void RunNative(const Options& opts, Report& report);
void RunMck(const Options& opts, Report& report);

// Layer probes (probes.cc): the workload-independent part of the traced ledger.
void RunLayerProbes(const Options& opts, Report& report);

// Probes that reuse a workload's configuration (workloads.cc): one native round
// (clof.native_*), the mck explorations' exact counts (mck.*), and host microseconds
// per offered request of the mid-load service point.
void NativeLayerProbe(const Options& opts, Report& report);
void MckLayerProbe(Report& report);
double ServiceHostUsPerRequest(uint64_t seed);

}  // namespace perfbench

#endif  // CLOF_PERFBENCH_SRC_COMMON_H_

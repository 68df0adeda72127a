// clof_perfbench: the repository benchmark (see perfbench/README.md).
//
//   clof_perfbench --workload sweep|scale1024|service|native|mck --seed N --seconds S
//                  --trace 0|1 --tmp DIR
//
// Untraced runs (--trace 0) time the workload's measured phase for S seconds and print
// the end-to-end metrics; traced runs (--trace 1) run the workload once under the
// counting sink plus the layer probes and print the per-layer ledger. Either way the
// outputs are checked, and the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench/src/common.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  Tail tail;
  const std::pair<const char*, double> candidates[] = {
      {"p999", 0.999}, {"p99", 0.99}, {"p90", 0.9}};
  for (const auto& [label, p] : candidates) {
    if (n * (1.0 - p) >= 10.0) {
      // Nearest rank: the smallest value with at least p of the samples at or below it.
      const auto rank = static_cast<size_t>(std::ceil(p * n));
      tail.label = label;
      tail.value = values[rank == 0 ? 0 : rank - 1];
      return tail;
    }
  }
  return tail;
}

void Report::Metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Timing(const std::string& name, const std::vector<double>& samples,
                    const std::string& unit, const std::string& what) {
  Metric(name, Median(samples), unit);
  Describe(name, samples, unit, what);
}

void Report::Describe(const std::string& name, const std::vector<double>& samples,
                      const std::string& unit, const std::string& what) {
  const double median = Median(samples);
  const Tail tail = TailOf(samples);
  char line[256];
  if (tail.label.empty()) {
    std::snprintf(line, sizeof(line), "%s: median %.6g %s over n=%zu %s (no percentile "
                  "has 10 samples beyond it)", name.c_str(), median, unit.c_str(),
                  samples.size(), what.c_str());
  } else {
    std::snprintf(line, sizeof(line), "%s: median %.6g %s, %s %.6g over n=%zu %s",
                  name.c_str(), median, unit.c_str(), tail.label.c_str(), tail.value,
                  samples.size(), what.c_str());
  }
  notes_.push_back(line);
}

void Report::Check(uint64_t units, uint64_t failed, const std::string& message) {
  attempted_ += units;
  failed_ += failed;
  if (failed != 0) {
    notes_.push_back("CHECK FAILED: " + message);
  }
}

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

// The process's resident-set high-water mark (VmHWM). getrusage's ru_maxrss would
// also count the parent's peak from before exec.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: clof_perfbench --workload sweep|scale1024|service|"
               "native|mck --seed N --seconds S --trace 0|1 --tmp DIR\n",
               message);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Keep freed heap memory mapped: with glibc's default trimming, whether a repeated
  // set-up re-faults its pages depends on where the heap top happens to lie.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opts.trace = value == "1";
    } else if (key == "--tmp") {
      opts.tmp_dir = value;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 == 0) {
    return Usage("flags take one value each");
  }
  if (opts.tmp_dir.empty() || !(opts.seconds > 0.0)) {
    return Usage("--tmp and a positive --seconds are required");
  }
  opts.jobs = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  Report report;
  try {
    if (opts.workload == "sweep") {
      RunSweep(opts, report);
    } else if (opts.workload == "scale1024") {
      RunScale1024(opts, report);
    } else if (opts.workload == "service") {
      RunService(opts, report);
    } else if (opts.workload == "native") {
      RunNative(opts, report);
    } else if (opts.workload == "mck") {
      RunMck(opts, report);
    } else {
      return Usage(("unknown workload '" + opts.workload + "'").c_str());
    }
    if (opts.trace) {
      RunLayerProbes(opts, report);
    } else {
      report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }

  for (const std::string& line : report.notes()) {
    std::printf("%s\n", line.c_str());
  }
#ifdef __clang__
  const char* compiler = "clang " __VERSION__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
#ifdef NDEBUG
  const char* assertions = "off";
#else
  const char* assertions = "on";
#endif
  std::printf("{\"host\": {\"nproc\": %u, \"cpu_model\": \"%s\", \"compiler\": \"%s\", "
              "\"build\": \"%s, assertions %s\", "
              "\"sweep_jobs\": {\"timed\": 1, \"traced_parallel\": %d}, \"seed\": %llu, "
              "\"workload\": \"%s\", \"seconds\": %g, \"trace\": %d}}\n",
              std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
              JsonEscape(compiler).c_str(), CLOF_PERFBENCH_BUILD, assertions, opts.jobs,
              static_cast<unsigned long long>(opts.seed), opts.workload.c_str(),
              opts.seconds, opts.trace ? 1 : 0);

  std::string metrics;
  for (const auto& [name, entry] : report.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", entry.first);
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + name +
               "\": {\"value\": " + value + ", \"unit\": \"" + entry.second + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()), metrics.c_str());
  return report.failed() == 0 ? 0 : 1;
}

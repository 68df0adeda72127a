// The command-line layer every bench/ and tools/ binary shares: a flag parser over the
// binary's declared vocabulary with strict typed getters, the machine and hierarchy
// flags, and the figure-table printer. Every binary runs with sensible defaults (so
// `for b in build/bench/*; do $b; done` regenerates everything). A flag outside the
// vocabulary, or a value its getter cannot parse whole, is a usage error: the binary
// exits 2 with the flag named on stderr, followed by its usage text.
#ifndef CLOF_BENCH_BENCH_UTIL_H_
#define CLOF_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/platform.h"
#include "src/topo/topology.h"

namespace clof::bench {

// Splits on every comma, so "a,,b" and "a," keep their empty tokens for a strict
// caller to reject. The empty string has no tokens.
inline std::vector<std::string> SplitCsv(const std::string& text) {
  std::vector<std::string> out;
  for (size_t begin = 0; !text.empty();) {
    const size_t comma = text.find(',', begin);
    out.push_back(text.substr(begin, comma - begin));
    if (comma == std::string::npos) {
      break;
    }
    begin = comma + 1;
  }
  return out;
}

class Flags {
 public:
  // `vocabulary` names every flag the binary reads. `usage` is its one usage text,
  // printed after every usage error; empty generates "usage: <binary> [--flag]...".
  Flags(int argc, char** argv, const std::vector<std::string>& vocabulary,
        std::string usage = "")
      : usage_(std::move(usage)) {
    if (usage_.empty()) {
      const std::string binary = argv[0];
      usage_ = "usage: " + binary.substr(binary.rfind('/') + 1);
      for (const auto& name : vocabulary) {
        usage_ += " [--" + name + "]";
      }
      usage_ += "\n";
    }
    std::string unknown;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        Fail("unexpected argument: " + arg);
      }
      const auto eq = arg.find('=');
      const std::string name = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
      if (std::find(vocabulary.begin(), vocabulary.end(), name) == vocabulary.end()) {
        unknown += " --" + name;
      }
      values_[name] = eq == std::string::npos ? "true" : arg.substr(eq + 1);
    }
    if (!unknown.empty()) {
      Fail("unknown flag(s):" + unknown);
    }
  }

  bool Has(const std::string& name) const { return values_.count(name) != 0; }

  // --name or --name=true, false when absent or --name=false.
  bool GetBool(const std::string& name) const {
    const std::string value = GetString(name, "false");
    if (value != "true" && value != "false") {
      Fail(Expected(name, "no value, true or false"));
    }
    return value == "true";
  }

  std::string GetString(const std::string& name, const std::string& fallback) const {
    return Has(name) ? values_.at(name) : fallback;
  }

  int GetInt(const std::string& name, int fallback) const {
    return Has(name) ? Number<int>(name, values_.at(name), "an integer") : fallback;
  }

  double GetDouble(const std::string& name, double fallback) const {
    return Has(name) ? Number<double>(name, values_.at(name), "a number") : fallback;
  }

  // A positive number, such as a duration or a deadline.
  double GetPositive(const std::string& name, double fallback) const {
    return Has(name) ? Number<double>(name, values_.at(name), "a positive number", true)
                     : fallback;
  }

  // A whole positive count, such as an exploration budget.
  uint64_t GetPositiveCount(const std::string& name, uint64_t fallback) const {
    return Has(name) ? Number<uint64_t>(name, values_.at(name), "a positive count", true)
                     : fallback;
  }

  // --name[=K], an optional positive count: 0 when absent, -1 when given bare.
  int GetCount(const std::string& name) const {
    if (GetString(name, "true") == "true") {
      return Has(name) ? -1 : 0;
    }
    return Number<int>(name, values_.at(name), "a positive count or no value", true);
  }

  // A comma-separated list of numbers; `fallback` (a csv) when the flag is absent.
  template <typename T>
  std::vector<T> GetList(const std::string& name, const std::string& fallback = "") const {
    const char* what = std::is_integral_v<T> ? "a list of integers" : "a list of numbers";
    const std::vector<std::string> tokens = SplitCsv(GetString(name, fallback));
    if (Has(name) && tokens.empty()) {
      Fail(Expected(name, what));
    }
    std::vector<T> out;
    for (const auto& token : tokens) {
      out.push_back(Number<T>(name, token, what));
    }
    return out;
  }

  // The flag's value through `parse`, e.g. a spec parser; an std::invalid_argument it
  // throws becomes a usage error naming the flag.
  template <typename Parse>
  auto ParseWith(const std::string& name, Parse parse) const {
    const std::string value = GetString(name, "");
    try {
      return parse(value);
    } catch (const std::invalid_argument& error) {
      Fail("--" + name + "=" + value + ": " + error.what());
    }
  }

  [[noreturn]] void Fail(const std::string& message) const {
    std::fprintf(stderr, "error: %s\n%s", message.c_str(), usage_.c_str());
    std::exit(2);
  }

 private:
  std::string Expected(const std::string& name, const char* what) const {
    return "--" + name + " expects " + what + ", got --" + name + "=" + GetString(name, "");
  }

  // `token` (the flag's value, or one csv element of it) parsed whole.
  template <typename T>
  T Number(const std::string& name, const std::string& token, const char* what,
           bool positive = false) const {
    T value{};
    const char* end = token.data() + token.size();
    const auto [stop, error] = std::from_chars(token.data(), end, value);
    if (error != std::errc() || stop != end || !std::isfinite(static_cast<double>(value)) ||
        (positive && !(value > 0))) {
      Fail(Expected(name, what));
    }
    return value;
  }

  std::map<std::string, std::string> values_;
  std::string usage_;
};

// --machine: x86, arm (the default), cxl-pod-1024 or dc-4level. --topology=<spec>, for
// binaries that declare it, swaps in a custom topology (topo::Topology::FromSpec) on
// the preset's cost model with one latency per level, scaled linearly.
inline sim::Machine ParseMachine(const Flags& flags) {
  static const std::pair<const char*, sim::Machine (*)()> kPresets[] = {
      {"x86", sim::Machine::PaperX86},
      {"arm", sim::Machine::PaperArm},
      {"cxl-pod-1024", sim::Machine::CxlPod1024},
      {"dc-4level", sim::Machine::Dc4Level}};
  const std::string name = flags.GetString("machine", "arm");
  const auto preset = std::find_if(std::begin(kPresets), std::end(kPresets),
                                   [&](const auto& entry) { return name == entry.first; });
  if (preset == std::end(kPresets)) {
    flags.Fail("--machine expects x86, arm, cxl-pod-1024 or dc-4level, got --machine=" +
               name);
  }
  sim::Machine machine = preset->second();
  if (flags.Has("topology")) {
    machine.topology = flags.ParseWith("topology", topo::Topology::FromSpec);
    const int levels = machine.topology.num_levels();
    machine.platform.level_latency_ns.assign(levels, 0.0);
    for (int i = 0; i < levels; ++i) {
      machine.platform.level_latency_ns[i] = 10.0 + 110.0 * i / std::max(1, levels - 1);
    }
  }
  return machine;
}

// --levels=<names,comma>, else `fallback` (a csv), else every non-degenerate level of
// `topology`: a level whose cohorts match the one below it is skipped.
inline topo::Hierarchy ParseHierarchy(const Flags& flags, const topo::Topology& topology,
                                      const std::string& fallback = "") {
  if (flags.Has("levels")) {
    return flags.ParseWith("levels", [&](const std::string& levels) {
      return topo::Hierarchy::Select(topology, SplitCsv(levels));
    });
  }
  if (!fallback.empty()) {
    return topo::Hierarchy::Select(topology, SplitCsv(fallback));
  }
  std::vector<std::string> names;
  int previous_cohorts = -1;
  for (int i = 0; i < topology.num_levels(); ++i) {
    if (topology.level(i).num_cohorts != previous_cohorts) {
      names.push_back(topology.level(i).name);
      previous_cohorts = topology.level(i).num_cohorts;
    }
  }
  return topo::Hierarchy::Select(topology, names);
}

// Prints a "series" table like the paper's figures: one row per lock, one column per
// thread count.
inline void PrintCurveTable(const std::string& title, const std::vector<int>& thread_counts,
                            const std::vector<std::pair<std::string, std::vector<double>>>& rows,
                            const char* unit = "iter/us") {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-22s", ("lock \\ threads (" + std::string(unit) + ")").c_str());
  for (int t : thread_counts) {
    std::printf("%9d", t);
  }
  std::printf("\n");
  for (const auto& [name, values] : rows) {
    std::printf("%-22s", name.c_str());
    for (double v : values) {
      std::printf("%9.3f", v);
    }
    std::printf("\n");
  }
}

}  // namespace clof::bench

#endif  // CLOF_BENCH_BENCH_UTIL_H_

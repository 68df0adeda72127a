// The engine run hook and the counting sink (see common.h).
//
// CMakeLists.txt links with -Wl,--wrap=<mangled clof::sim::Engine::Run()>, so every
// call the library makes to Engine::Run lands in __wrap_...; __real_... is the
// original. The Itanium ABI passes `this` as the first argument, which is what the
// extern "C" signatures below spell out.
#include <algorithm>
#include <atomic>
#include <cstdio>

#include "perfbench/src/common.h"
#include "src/sim/engine.h"

namespace perfbench {
namespace {

std::atomic<uint64_t> g_accesses{0};
std::atomic<uint64_t> g_runs{0};
thread_local CountingSink* tls_sink = nullptr;

}  // namespace

uint64_t EngineAccesses() { return g_accesses.load(std::memory_order_relaxed); }
uint64_t EngineRuns() { return g_runs.load(std::memory_order_relaxed); }

ScopedTrace::ScopedTrace(CountingSink* sink) { tls_sink = sink; }
ScopedTrace::~ScopedTrace() { tls_sink = nullptr; }

void CountingSink::Bind(const clof::topo::Topology& topology) {
  constexpr uint8_t kSystem = 5;
  constexpr uint8_t kSameCpu = 6;
  constexpr uint8_t kCold = 7;
  const int levels = std::min(topology.num_levels(),
                              static_cast<int>(bucket_class_.size()) - 2);
  for (int level = 0; level < levels; ++level) {
    uint8_t index = 0;
    while (index < kSameCpu && topology.level(level).name != kLevelClasses[index]) {
      ++index;
    }
    // Levels outside the canonical set (custom topologies) fold into "system".
    bucket_class_[level] = index < kSameCpu ? index : kSystem;
  }
  bucket_class_[clof::trace::SameCpuBucket(levels)] = kSameCpu;
  bucket_class_[clof::trace::ColdBucket(levels)] = kCold;
}

void CountingSink::OnEvent(const clof::trace::Event& event) {
  ++events_[static_cast<int>(event.kind)];
  if (event.transferred && event.bucket >= 0) {
    ++transfers_[bucket_class_[event.bucket]];
  }
}

uint64_t CountingSink::total_events() const {
  uint64_t total = 0;
  for (uint64_t n : events_) {
    total += n;
  }
  return total;
}

std::string Hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

}  // namespace perfbench

extern "C" void __real__ZN4clof3sim6Engine3RunEv(clof::sim::Engine* engine);

extern "C" void __wrap__ZN4clof3sim6Engine3RunEv(clof::sim::Engine* engine) {
  perfbench::CountingSink* sink = perfbench::tls_sink;
  if (sink != nullptr) {
    sink->Bind(engine->topology());  // also when the caller installed it (trace_sink)
    if (engine->event_sink() == nullptr) {
      engine->SetEventSink(sink);
    }
  }
  __real__ZN4clof3sim6Engine3RunEv(engine);
  perfbench::g_accesses.fetch_add(engine->total_accesses(), std::memory_order_relaxed);
  perfbench::g_runs.fetch_add(1, std::memory_order_relaxed);
}

// Observability layer for the simulator and harness (docs/OBSERVABILITY.md).
//
// The discrete-event engine already computes, for every atomic access, which hierarchy
// level separated the requester from the CPU that serviced it, how many sharers a write
// invalidated, and how long the access queued behind the line's transfer port. This
// header gives that metadata a home:
//
//  * LevelMetrics — per-level counters the engine maintains unconditionally (a handful
//    of host-side integer adds per access; virtual time is never touched);
//  * Event / EventSink — an optional per-access event stream. The engine only builds
//    and forwards events when a sink is installed, so tracing is zero-cost when off;
//  * TraceBuffer — a bounded ring-buffer sink (oldest events drop first) that
//    chrome_export.h turns into Chrome trace_event JSON for Perfetto;
//  * LatencySummary — count, total and maximum of virtual-time durations, used by the
//    harness for lock-acquisition latency.
//
// Determinism is a hard requirement: observers consume metadata the engine computed
// anyway and must never issue simulated accesses, so a run with tracing enabled is
// virtual-time-identical (bit for bit) to the same run without it.
#ifndef CLOF_SRC_TRACE_TRACE_H_
#define CLOF_SRC_TRACE_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/platform.h"
#include "src/topo/topology.h"

namespace clof::trace {

// Per-level attribution uses one bucket per topology level plus two synthetic buckets:
//   [0 .. num_levels-1]  the lowest topology level shared by requester and provider
//   [num_levels]         same-CPU (another thread on the requesting CPU, or an
//                        ownership upgrade that moved no data)
//   [num_levels+1]       cold/uncached (no valid copy anywhere: first touch or all
//                        copies evicted)
constexpr int NumLevelBuckets(int num_levels) { return num_levels + 2; }
constexpr int SameCpuBucket(int num_levels) { return num_levels; }
constexpr int ColdBucket(int num_levels) { return num_levels + 1; }

// Maps a topo::Topology::SharingLevel result (or kSameCpu, or >= num_levels for
// cold/uncached) to its bucket index.
constexpr int LevelBucket(int sharing_level, int num_levels) {
  if (sharing_level == topo::Topology::kSameCpu) {
    return SameCpuBucket(num_levels);
  }
  return sharing_level >= num_levels ? ColdBucket(num_levels) : sharing_level;
}

// Human-readable bucket label: the topology level's name, "same-cpu", or "cold".
std::string BucketName(int bucket, const topo::Topology& topology);

// Counters the engine keeps per bucket. All maintained host-side at the linearization
// point; reading them mid-run is exact (the simulation is single-host-threaded).
struct LevelMetrics {
  uint64_t line_transfers = 0;  // misses serviced by a copy at this distance
  uint64_t invalidations = 0;   // sharer copies a write invalidated at this distance
  uint64_t spin_wakeups = 0;    // parked spinners woken by a writer at this distance
  sim::Time port_queue_ps = 0;  // virtual time spent queued behind busy transfer ports
};

enum class EventKind : uint8_t {
  kLoad = 0,
  kStore,
  kRmw,
  kCmpXchg,
  kRmwSpinLoad,
  kSpinWakeup,  // a parked spinner was woken (instant event; completion == start)
};

const char* EventKindName(EventKind kind);

// One engine event. For accesses, [start, completion] is the access's virtual-time
// span after port queueing; `queue_ps` is the queueing that preceded `start`.
struct Event {
  sim::Time start = 0;
  sim::Time completion = 0;
  uintptr_t line = 0;        // simulated line id (object address >> 6)
  int32_t cpu = -1;          // requesting CPU (for kSpinWakeup: the woken CPU)
  int32_t bucket = -1;       // LevelBucket index; -1 = private-cache hit, no coherence
  EventKind kind = EventKind::kLoad;
  bool transferred = false;  // counted in Engine::total_line_transfers()
  uint16_t invalidated = 0;  // sharers invalidated by this write
  sim::Time queue_ps = 0;    // port queueing delay absorbed before `start`
};

// A named point-in-virtual-time annotation produced by a component under test rather
// than by the engine — e.g. the adaptive facade's lock switches (docs/ADAPTIVE.md).
// Markers ride next to the engine's Event stream in the Chrome export as instant
// events, so a Perfetto timeline shows "the lock switched here" against the coherence
// traffic that triggered it. Producers follow the same determinism rule as sinks:
// markers are recorded host-side and never issue simulated accesses.
struct Marker {
  sim::Time time = 0;   // virtual time of the annotated instant
  int32_t cpu = -1;     // CPU whose thread produced it (its track in the export)
  std::string name;     // short event name, e.g. "adaptive-switch"
  std::string detail;   // free-form context, e.g. "tkt-tkt-tkt -> hmcs (ewma 812ns)"
};

// Installed on a sim::Engine. Called synchronously at each linearization point, in
// deterministic virtual-time order. Implementations must not perform simulated memory
// accesses (that would perturb the run they observe).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void OnEvent(const Event& event) = 0;
};

// Ring-buffer sink: keeps the most recent `capacity` events, counting (not storing)
// older ones. Memory use is bounded no matter how long the run is.
class TraceBuffer : public EventSink {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 20;

  explicit TraceBuffer(size_t capacity = kDefaultCapacity);

  void OnEvent(const Event& event) override;

  // Stored events in chronological (recording) order.
  std::vector<Event> Events() const;

  uint64_t recorded() const { return recorded_; }
  uint64_t dropped() const { return recorded_ <= ring_.capacity() ? 0 : recorded_ - ring_.capacity(); }
  size_t capacity() const { return capacity_; }
  void Clear();

 private:
  size_t capacity_;
  std::vector<Event> ring_;
  size_t next_ = 0;          // ring insertion cursor once full
  uint64_t recorded_ = 0;
};

// Count, total and maximum of virtual-time durations. Percentiles are not kept here:
// the harness computes exact ones from the raw samples (BenchResult::acquire_p99_ns).
class LatencySummary {
 public:
  void Record(sim::Time duration_ps);

  uint64_t count() const { return count_; }
  sim::Time total_ps() const { return total_ps_; }
  sim::Time max_ps() const { return max_ps_; }
  double MeanNs() const;

 private:
  uint64_t count_ = 0;
  sim::Time total_ps_ = 0;
  sim::Time max_ps_ = 0;
};

}  // namespace clof::trace

#endif  // CLOF_SRC_TRACE_TRACE_H_

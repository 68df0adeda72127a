// Discrete-event simulator for multi-level NUMA machines.
//
// Simulated threads are fibers pinned to virtual CPUs and scheduled in virtual-time
// order (earliest local clock runs next; FIFO tie-break). Every atomic memory access is
// an event: it linearizes when the thread executes, and its virtual-time cost is derived
// from a MESI-flavoured cache-line model (src/sim/platform.h):
//
//  * a load hits (L1 cost) if the CPU has a valid copy, otherwise it fetches the line
//    from the closest holder, paying the latency of the hierarchy level that separates
//    them and becoming a sharer;
//  * a store/RMW needs exclusivity: it pays the transfer (if the CPU lacks a copy) plus
//    a per-sharer invalidation cost, then becomes the owner;
//  * each line has a transfer port: misses serialize, so a write to a line that many
//    CPUs spin on triggers a refetch storm whose queueing delay grows with the number of
//    spinners — the mechanism that makes global-spinning locks collapse (paper §2.1);
//  * on the Arm platform model, a cmpxchg against RMW-mode spinners pays an LL/SC
//    reservation-stealing penalty per spinner (the paper's Hemlock-CTR collapse, §3.2).
//
// Spin-waiting is first-class: SimAtomic::SpinUntil parks the fiber on the line and the
// engine wakes all parked spinners when a write changes the line's value; each then
// re-fetches through the port. Parking uses line versions so no wakeup can be lost.
//
// Everything is deterministic: same program + same seed => identical virtual-time
// results, regardless of host machine.
//
// The hot path is flat and allocation-free in steady state (docs/SIM_ENGINE.md):
// lines live in a chunked arena indexed by an open-addressing table (stable references,
// first-touch index order), the ready queue is an indexed binary min-heap embedded in
// the thread records, waiter lists are intrusive, and Access() takes its apply callable
// as a template parameter — never a std::function (tests/engine_alloc_test.cc pins the
// zero-allocation guarantee; tests/golden_determinism_test.cc pins result identity).
#ifndef CLOF_SRC_SIM_ENGINE_H_
#define CLOF_SRC_SIM_ENGINE_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/runtime/fiber.h"
#include "src/sim/platform.h"
#include "src/sim/watchdog.h"
#include "src/topo/topology.h"
#include "src/trace/trace.h"

namespace clof::sim {

// Thrown by Run() when every remaining thread is parked on a line that can never
// change. Carries the same per-thread diagnostic as a watchdog trip (who is blocked on
// which line, that line's owner CPU) so the failure says where the handover was lost.
class SimDeadlockError : public std::runtime_error {
 public:
  explicit SimDeadlockError(const std::string& summary)
      : std::runtime_error(summary), summary_(summary) {}
  SimDeadlockError(const std::string& summary, EngineDiagnostic diagnostic)
      : std::runtime_error(summary + "\n" + diagnostic.Format()),
        summary_(summary),
        diagnostic_(std::move(diagnostic)) {}

  // First line of what(): the unfinished-thread count, without the per-thread dump.
  const std::string& summary() const { return summary_; }
  const EngineDiagnostic& diagnostic() const { return diagnostic_; }

 private:
  std::string summary_;
  EngineDiagnostic diagnostic_;
};

enum class OpKind {
  kLoad,         // plain atomic load
  kStore,        // plain atomic store
  kRmw,          // fetch_add / exchange / ...
  kCmpXchg,      // compare-exchange (LL/SC pair on the Arm model)
  kRmwSpinLoad,  // read implemented as fetch_add(x, 0): takes the line exclusive (CTR)
};

// Perturbation hook (implemented by fault::Injector, src/fault/injector.h), consulted
// on the simulated-thread hot paths when installed. Same zero-cost-when-off discipline
// as the event sink: with no hook installed each call site is a single branch.
// Implementations must be deterministic functions of their own seeded state and must
// not issue simulated accesses.
class FaultHook {
 public:
  virtual ~FaultHook() = default;
  // Multiplies the cost of Work(ns) on `cpu` (heterogeneous core speeds). Must be a
  // fixed per-CPU value for the whole run.
  virtual double WorkScale(int cpu) = 0;
  // Extra stall (ps) charged to thread `thread_id` immediately before its next access
  // linearizes — the clock jump lands wherever the thread happens to be, including
  // while it holds a lock (lock-holder preemption). `now` is the thread's local clock.
  virtual Time PreAccessStall(uint64_t thread_id, int cpu, Time now) = 0;
};

class Engine {
 public:
  // Hard cap on simulated CPUs (topo::kMaxCpus, which FromSpec enforces too). Per-CPU
  // engine state is allocated from topology.num_cpus(), not this bound, so small
  // machines pay nothing for it.
  static constexpr int kMaxCpus = topo::kMaxCpus;

  Engine(const topo::Topology& topology, PlatformModel platform);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Registers a simulated thread pinned to virtual CPU `cpu` (0 <= cpu < num_cpus).
  // Must be called before Run(). Multiple threads may share a CPU.
  void Spawn(int cpu, std::function<void()> fn);

  // Runs all spawned threads to completion in virtual-time order.
  void Run();

  // --- Interface for code running inside a simulated thread ---
  //
  // These are on the hot path of every simulated atomic access, so they are inline
  // over an inline thread_local engine pointer (no cross-TU call, no TLS wrapper on
  // the fast path beyond the initial-exec access).

  static Engine& Current() {  // aborts if not inside Run()
    if (current_engine_ == nullptr) {
      AbortNoEngine();
    }
    return *current_engine_;
  }
  static bool InSimulation() {
    // True only while a simulated thread is running: lock construction/destruction may
    // also happen around (or between) Run() phases and must use plain accesses.
    return current_engine_ != nullptr && current_engine_->current_ != nullptr;
  }

  int Cpu() const { return current_->cpu; }    // virtual CPU of the running thread
  Time Now() const { return current_->time; }  // running thread's local clock (ps)
  double NowNs() const { return NsFromPs(Now()); }

  // Advances the running thread's clock by `ns` of purely local computation.
  void Work(double ns) {
    SimThread* self = current_;
    if (fault_hook_ != nullptr) {
      ns *= fault_hook_->WorkScale(self->cpu);  // heterogeneous core speed (src/fault/)
    }
    self->time += PsFromNs(ns);
    if (watchdog_ != nullptr && self->time >= watchdog_->work_limit) {
      WatchdogWorkCheck(self);  // virtual budget also covers access-free spin loops
    }
    YieldRunnable(self);
  }

  // Marks one unit of application-level forward progress (e.g. a completed critical
  // section): restarts the watchdog's no-progress access count. A no-op without a
  // watchdog installed; never issues simulated accesses or affects virtual time.
  void ReportProgress() {
    if (watchdog_ != nullptr) {
      watchdog_->progress_mark = total_accesses_;
    }
  }

  // A short architectural pause inside a retry loop (cpu_relax equivalent).
  void Pause() { Work(platform_.l1_hit_ns); }

  struct AccessResult {
    Time completion = 0;
    uint64_t version = 0;  // line version at the linearization point (post-op)
  };

  // Performs one atomic access to the line containing `line_addr`. `apply` is any
  // callable invoked exactly once at the linearization point (the whole simulation
  // quiescent, the access's cost already charged, wakeups not yet delivered); it
  // returns true if it changed the stored value, and value-changing writes wake
  // spinners parked on the line. The callable is a template parameter rather than a
  // std::function so the hot path never type-erases or allocates and the apply inlines
  // into the access (tests/engine_alloc_test.cc).
  template <typename Apply>
  AccessResult Access(uintptr_t line_addr, OpKind kind, Apply&& apply) {
    const PreparedAccess prepared = PrepareAccess(line_addr, kind);
    const bool changed = apply();
    return FinishAccess(prepared, changed);
  }

  // Parks the running thread until a value-changing write moves the line's version past
  // `seen_version`. Returns immediately if it already moved (no lost wakeups).
  // `rmw_spinner` marks CTR-style spinning, which feeds the Arm LL/SC penalty model.
  void ParkOnLine(uintptr_t line_addr, uint64_t seen_version, bool rmw_spinner) {
    Park(line_addr, seen_version, rmw_spinner);
    if (aborting_) {
      ThrowAbort();  // woken by AbortParkedThreads: unwind without another access
    }
  }

  // --- Introspection / statistics ---
  const topo::Topology& topology() const { return *topology_; }
  const PlatformModel& platform() const { return platform_; }
  uint64_t total_accesses() const { return total_accesses_; }
  uint64_t total_line_transfers() const { return total_line_transfers_; }

  // Distinct simulated lines ever touched. Arena indices 0..num_lines()-1 are assigned
  // in first-touch order, so any future reporting that walks the line table is
  // deterministic by construction — unlike the unordered_map this table replaced,
  // whose iteration order was unspecified (audited before the swap: nothing ever
  // iterated it, so no report could have depended on the old order).
  uint32_t num_lines() const { return num_lines_; }

  // Per-level coherence counters, indexed by the trace::LevelBucket layout (one bucket
  // per topology level plus same-cpu and cold). Maintained unconditionally: a few
  // host-side adds per access, never any virtual-time cost. The buckets' line_transfers
  // always sum to total_line_transfers().
  const std::vector<trace::LevelMetrics>& level_metrics() const { return level_metrics_; }

  // Installs (or clears, with nullptr) an event sink that receives one trace::Event per
  // atomic access and per spinner wakeup, in deterministic virtual-time order. The sink
  // observes metadata the engine computed anyway; with no sink installed the trace path
  // is a single branch. Sinks must not issue simulated accesses.
  void SetEventSink(trace::EventSink* sink) { sink_ = sink; }
  trace::EventSink* event_sink() const { return sink_; }

  // Installs (or clears, with nullptr) a fault-injection hook (src/fault/). With no
  // hook the perturbation paths cost one branch each; a hook whose callbacks return
  // the identity (scale 1.0, stall 0) leaves every virtual-time result bit-identical
  // to an uninstrumented run (tests/fault_test.cc asserts this).
  void SetFaultHook(FaultHook* hook) { fault_hook_ = hook; }
  FaultHook* fault_hook() const { return fault_hook_; }

  // Arms (or, with a config where !Enabled(), removes) the runaway watchdog
  // (src/sim/watchdog.h). Call before Run(); the wall-clock budget starts here. A trip
  // unwinds every simulated thread and Run() throws SimWatchdogError carrying the
  // captured diagnostic. Observation-only while not tripping: results are
  // bit-identical to an unwatched run (tests/watchdog_test.cc).
  void SetWatchdog(const WatchdogConfig& config);

 private:
  [[noreturn]] static void AbortNoEngine();  // cold path of Current()

  struct SimThread {
    std::unique_ptr<runtime::Fiber> fiber;
    int cpu = 0;
    Time time = 0;
    bool parked = false;
    bool rmw_spinner = false;
    bool done = false;
    uint64_t id = 0;
    // Intrusive scheduler state (docs/SIM_ENGINE.md): a thread is parked on at most
    // one line's waiter list XOR queued in the ready queue XOR running, so one link
    // suffices — parking and waking never allocate. The queue key (time, FIFO stamp)
    // and the thread's identity live entirely in the ReadyEntry; nothing here needs
    // updating while the thread sits in the queue.
    SimThread* next_waiter = nullptr;  // next in the parked line's FIFO waiter list
    uintptr_t parked_line = 0;         // line the thread last parked on (diagnostics)
  };

  // One simulated cache line, split structure-of-arrays style into the fields the
  // scheduler/wakeup machinery hammers (LineHot: port availability, version, parked
  // waiter list) and the coherence bookkeeping only the access cost model reads
  // (LineCold: holder set, owner). The two live in parallel chunked arenas sharing one
  // index, so the wakeup path — version checks, park/wake list splices, next_free
  // updates — walks densely packed 40-byte records instead of dragging the holder
  // array through the cache with every touch. Both arenas keep the stable-reference
  // contract: chunks never move, so a LineHot& taken before a first-touch insertion
  // (e.g. across an apply callback or a park) stays valid.
  struct LineHot {
    Time next_free = 0;    // transfer port availability
    uint64_t version = 0;  // bumped on every value-changing write
    // Intrusive FIFO of parked spinners (threaded through SimThread::next_waiter;
    // append at tail so wake order matches park order exactly).
    SimThread* waiter_head = nullptr;
    SimThread* waiter_tail = nullptr;
    int32_t num_waiters = 0;
    int32_t rmw_waiters = 0;
  };
  struct LineCold {
    // CPUs holding a valid copy, most recent first (owner included). Bounded by
    // kLineMaxHolders (documented with the cost model in platform.h) to model finite
    // private-cache residency: a line not re-touched recently is evicted, so
    // read-mostly data does not end up permanently "cached everywhere" — without
    // this, data-locality effects (the whole point of NUMA-aware locks) wash out.
    std::array<int16_t, kLineMaxHolders> holders;  // -1 = empty slot
    int16_t owner = -1;  // last writer, -1 if never written
    bool touched = false;

    LineCold() { holders.fill(-1); }
    // The holder array is MRU-packed: TouchBy/ResetTo keep every -1 in the tail, so
    // scans stop at the first empty slot.
    bool Holds(int16_t cpu) const {
      for (int16_t h : holders) {
        if (h == cpu) {
          return true;
        }
        if (h < 0) {
          break;
        }
      }
      return false;
    }
    void TouchBy(int16_t cpu) {  // move-to-front insert, all in the storage type
      int16_t previous = cpu;
      for (int16_t& h : holders) {
        const int16_t evicted = h;
        h = previous;
        if (evicted == cpu || evicted < 0) {
          return;
        }
        previous = evicted;
      }
    }
    void ResetTo(int16_t cpu) {
      holders.fill(-1);
      holders[0] = cpu;
    }
  };

  // --- Line table: open-addressing index over two parallel chunked arenas ---
  //
  // The index maps line address -> arena slot and only ever moves its own 16-byte
  // entries when it grows; LineHot/LineCold records live in fixed-size chunks (one hot
  // chunk + one cold chunk per 64 lines) and never move, so a reference taken before
  // an insertion (e.g. across an apply callback) stays valid — the property the old
  // unordered_map provided, without its per-node allocation or pointer-chasing
  // lookups. Retired chunks are recycled through a host-thread-local pool
  // (engine.cc), so the per-cell engines a ParallelSweep churns through reuse each
  // other's arenas instead of re-faulting fresh pages every cell.
  static constexpr uint32_t kNoLine = 0xffffffffu;
  static constexpr uint32_t kLinesPerChunk = 64;
  struct LineSlot {
    uintptr_t addr = 0;
    uint32_t index = kNoLine;
  };

  // Fibonacci multiplicative hash: line addresses are cache-line indices
  // (pointer >> 6), so low bits carry all the entropy; the multiply spreads them
  // across the table.
  static size_t HashLineAddr(uintptr_t line_addr) {
    return static_cast<size_t>(line_addr * 0x9e3779b97f4a7c15ull);
  }
  LineHot& HotAt(uint32_t index) {
    return hot_chunks_[index / kLinesPerChunk][index % kLinesPerChunk];
  }
  LineCold& ColdAt(uint32_t index) {
    return cold_chunks_[index / kLinesPerChunk][index % kLinesPerChunk];
  }
  uint32_t LineIndexFor(uintptr_t line_addr);  // find-or-create (first touch claims)
  uint32_t AddLine(uintptr_t line_addr, size_t slot);  // cold: first-touch claim
  void GrowLineIndex();

  // --- Ready queue ---
  //
  // A binary min-heap over ReadyEntry that pops runnable threads in the exact (time,
  // FIFO-stamp) total order, which is all the simulation's results depend on.
  //
  // Keys are stored IN the queue entries (structure-of-arrays style), not read through
  // the thread pointer: at 1024 runnable threads a sift compares two entries per level
  // of a 10-deep heap, and chasing two scattered SimThread allocations per compare was
  // the dominant scheduler cost — with the key inline, compares touch only the
  // contiguous entry array. A queued thread's key cannot change while queued (it is
  // running XOR queued XOR parked), so the copies cannot go stale. Each entry is 16
  // bytes: the FIFO stamp and the owning thread's index share one word (stamp in the
  // high bits, so comparing `key` IS comparing the stamp — stamps are unique), which
  // keeps sift moves to two 8-byte copies and no stores outside the entry array.
  struct ReadyEntry {
    Time time = 0;
    uint64_t key = 0;  // (FIFO stamp << kThreadIdBits) | thread index
  };
  static constexpr int kThreadIdBits = 16;  // Spawn() enforces the matching thread cap
  static bool EntryBefore(const ReadyEntry& a, const ReadyEntry& b) {
    return a.time != b.time ? a.time < b.time : a.key < b.key;
  }
  uint64_t MakeKey(const SimThread* thread) {
    return (next_order_++ << kThreadIdBits) | thread->id;
  }
  SimThread* ThreadOf(const ReadyEntry& entry) const {
    return threads_[entry.key & ((uint64_t{1} << kThreadIdBits) - 1)].get();
  }

  // A thread is queued at most once, so one reserve() at Run() start makes the heap
  // allocation-free for the whole run. Same-time wakeup herds are appended in bulk and
  // rebuilt with one Floyd pass (HeapBulkAppend) instead of N individual sift-ups.
  void HeapSiftUp(size_t slot);
  void HeapSiftDown(size_t slot);
  SimThread* HeapPop();
  void HeapBulkAppend(size_t first_new);  // entries [first_new, end) already appended
  void MakeReady(SimThread* thread);

  // Host-thread-local recycling pools for the line arenas (the ParallelSweep chunk
  // pool): ~Engine parks its chunks there, the next engine on the same host thread
  // reclaims them in AddLine. Thread-local, so sweep workers never contend or share
  // chunks across host threads — reuse stays deterministic.
  static auto HotChunkPool() -> std::vector<std::unique_ptr<LineHot[]>>&;
  static auto ColdChunkPool() -> std::vector<std::unique_ptr<LineCold[]>>&;

  // A miss's cost plus where the servicing copy came from: a topology level index,
  // topo::Topology::kSameCpu, or num_levels() when no valid copy exists (cold).
  struct MissSource {
    double latency_ns = 0.0;
    int level = 0;
  };
  MissSource MissFrom(int cpu, const LineCold& cold) const;

  // The two non-template halves of Access(): PrepareAccess charges the cache-model
  // cost and updates coherence state, FinishAccess emits trace events, delivers
  // wakeups for value-changing writes, and advances the clock. The apply callable
  // runs between them, at the linearization point. Both are defined `inline` at the
  // bottom of this header, but the compiler does not inline them: at -O2 each is one
  // out-of-line weak function (PrepareAccess about 430 instructions with 240 call
  // sites in perfbench) that takes `kind` at run time, so no call site specializes
  // for its OpKind. Only the cold tails (waiter wakeup, reschedule) live in engine.cc.
  struct PreparedAccess {
    LineHot* hot = nullptr;  // arena-backed: stable across the apply callback
    uintptr_t line_addr = 0;
    uint32_t line_index = 0;  // the line's first-touch ordinal (watchdog ring)
    OpKind kind = OpKind::kLoad;
    int cpu = 0;
    Time start = 0;
    Time completion = 0;
    Time queue_ps = 0;
    int transfer_level = topo::Topology::kSameCpu;
    uint16_t invalidated = 0;
    bool transferred = false;
    bool is_write = false;
  };
  PreparedAccess PrepareAccess(uintptr_t line_addr, OpKind kind);
  AccessResult FinishAccess(const PreparedAccess& prepared, bool changed);

  // Yields with the running thread re-queued at its (updated) time. Fast path
  // (inline): keeps running without a context switch if it is still the earliest.
  // Slow path: direct fiber handoff to the earliest queued thread — the main fiber is
  // only resumed when a thread finishes or nothing is runnable, not on every
  // reschedule.
  void YieldRunnable(SimThread* self) {
    if (heap_.empty() || heap_.front().time > self->time) {
      return;
    }
    HandOff(self);
  }
  void HandOff(SimThread* self);
  void SwitchToScheduler(SimThread* self);
  void WakeWaiters(LineHot& hot, const PreparedAccess& prepared);
  void EmitAccessEvent(const PreparedAccess& prepared);  // cold: sink installed

  // --- Watchdog (src/sim/watchdog.h) ---
  //
  // All state lives behind one pointer so an unwatched run pays exactly one branch per
  // access (the same discipline as sink_/fault_hook_). A trip must not throw a user-
  // visible exception from inside a fiber — the context-switch frame has no unwind
  // info past it — so WatchdogTrip captures the diagnostic, force-wakes every parked
  // thread, and throws the internal AbortSimulation token; each fiber's Spawn wrapper
  // catches the token on its own stack and finishes normally, and Run() rethrows the
  // real SimWatchdogError from the scheduler context once every fiber has drained. A
  // deadlock drains the same way, from Run(), after its diagnostic is captured.
  //
  // An armed watchdog costs each access one 16-byte ring store and one compare, inline
  // in FinishAccess, and each Work() one compare. Every budget is folded into the two
  // precomputed thresholds below: `check_at` is the first access count at which the
  // no-progress budget or a check_interval poll can act, `work_limit` the first clock
  // a Work() must check, and both are 0 while a trip drains, so every access and Work()
  // then unwinds. Past a threshold WatchdogCheck/WatchdogWorkCheck (engine.cc) decide,
  // and re-arm `check_at` from the progress mark: ReportProgress only moves the mark.
  struct RingEntry {  // one access; CaptureDiagnostic expands it into an OpRecord
    Time completion = 0;
    uint32_t line = 0;    // first-touch ordinal (PreparedAccess::line_index)
    uint16_t thread = 0;  // SimThread::id (< 2^kThreadIdBits); its CPU is fixed
    uint8_t kind = 0;     // OpKind
  };
  static_assert(sizeof(RingEntry) == 16);
  struct WatchdogState {
    uint64_t check_at = 0;   // total_accesses_ that runs WatchdogCheck; 0 = draining
    Time work_limit = 0;     // Work() clock that runs WatchdogWorkCheck; 0 = draining
    uint64_t ring_mask = 0;  // ring.size() - 1
    // Access n (its total_accesses_ count) lands at n & ring_mask; the power-of-two
    // size is at least config.recent_ops, and a capture copies out only that many.
    std::vector<RingEntry> ring;
    WatchdogConfig config;
    uint64_t armed_at = 0;       // total_accesses_ when armed
    uint64_t progress_mark = 0;  // total_accesses_ at the last ReportProgress
    uint64_t next_poll = 0;      // access count of the next virtual/wall budget poll
    std::chrono::steady_clock::time_point wall_start;
    bool tripped = false;
    EngineDiagnostic diagnostic;  // captured at the trip point
  };
  struct AbortSimulation {};  // internal unwind token; never escapes Run()

  void WatchdogCheck();                     // an access reached check_at
  void WatchdogWorkCheck(SimThread* self);  // a Work() clock reached work_limit
  [[noreturn]] void WatchdogTrip(std::string reason);
  // Sets aborting_ and makes every parked thread ready; each then throws
  // AbortSimulation as soon as it returns from its park, without another access.
  void AbortParkedThreads();
  // ParkOnLine's body. Out of line and ending in a tail call to the fiber switch, so a
  // resumed thread returns straight into the inlined abort check in its spin loop.
  void Park(uintptr_t line_addr, uint64_t seen_version, bool rmw_spinner);
  [[noreturn]] static void ThrowAbort();
  void RunReady();  // the scheduler loop: runs fibers until nothing is ready
  EngineDiagnostic CaptureDiagnostic(const char* reason);
  // Arena index of a line without creating it (kNoLine if never touched). The index is
  // the line's first-touch ordinal, so diagnostics label lines with it: ordinals follow
  // deterministic simulation order, and dumps are byte-identical across identical
  // runs, unlike raw heap addresses. Accesses carry it in PreparedAccess instead.
  uint32_t PeekLineIndex(uintptr_t line_addr) const;

  // The engine running on this host thread, set for the duration of Run(). An inline
  // member so the hot-path accessors above compile to direct TLS loads.
  static inline thread_local Engine* current_engine_ = nullptr;

  const topo::Topology* topology_;
  PlatformModel platform_;
  std::vector<std::unique_ptr<SimThread>> threads_;
  std::vector<ReadyEntry> heap_;  // the ready queue: binary min-heap (EntryBefore)
  std::vector<LineSlot> line_index_;  // open addressing, power-of-two
  // Parallel arenas (SoA line table); chunk i of each covers the same 64 lines.
  std::vector<std::unique_ptr<LineHot[]>> hot_chunks_;
  std::vector<std::unique_ptr<LineCold[]>> cold_chunks_;
  uint32_t num_lines_ = 0;
  runtime::Fiber main_fiber_;
  SimThread* current_ = nullptr;
  uint64_t next_order_ = 0;
  uint64_t total_accesses_ = 0;
  uint64_t total_line_transfers_ = 0;
  std::vector<trace::LevelMetrics> level_metrics_;  // trace::LevelBucket layout
  trace::EventSink* sink_ = nullptr;
  FaultHook* fault_hook_ = nullptr;
  std::unique_ptr<WatchdogState> watchdog_;  // null = no watchdog (fast path)
  bool aborting_ = false;  // a watchdog trip or deadlock is unwinding the fibers
  int unfinished_ = 0;
  bool running_ = false;
};

// --- Inline hot-path definitions ---
//
// Everything below runs once (or more) per simulated atomic access. It is defined here
// rather than in engine.cc so the small helpers can inline into their callers; the two
// large halves, PrepareAccess and FinishAccess, stay one out-of-line copy each at -O2
// and read `kind` at run time (see their declarations). Making OpKind a template
// parameter, so each load and store site compiled its own path, was measured and not
// taken: on the 4-vCPU Xeon VM with gcc 12.2 it ran perfbench's sweep slower in 4 of 4
// pairs (median 1.285 s against 1.247 s). Cold tails — first-touch line claims, index
// growth, trace emission, waiter wakeup, the watchdog's budget checks, the actual fiber
// switch — are out-of-line in engine.cc.

inline uint32_t Engine::LineIndexFor(uintptr_t line_addr) {
  const size_t mask = line_index_.size() - 1;
  size_t slot = HashLineAddr(line_addr) & mask;
  while (true) {
    const LineSlot& entry = line_index_[slot];
    if (entry.index == kNoLine) {
      return AddLine(line_addr, slot);  // first touch: claim an arena slot (cold)
    }
    if (entry.addr == line_addr) {
      return entry.index;
    }
    slot = (slot + 1) & mask;
  }
}

inline Engine::MissSource Engine::MissFrom(int cpu, const LineCold& cold) const {
  const int num_levels = topology_->num_levels();
  if (!cold.touched) {
    return {platform_.cold_miss_ns, num_levels};
  }
  // Fetch from the closest CPU holding a valid copy (the owner is always a holder after
  // a write; a read-only line has holders but no owner).
  int best_level = num_levels;  // worse than any real level
  for (int16_t other : cold.holders) {
    if (other < 0) {
      break;  // holders are MRU-packed; nothing past the first empty slot
    }
    if (other == cpu) {
      continue;
    }
    int level = topology_->SharingLevel(cpu, other);
    if (level < best_level) {
      best_level = level;
    }
  }
  if (best_level >= num_levels) {
    return {platform_.cold_miss_ns, num_levels};  // every copy evicted or invalidated
  }
  if (best_level == topo::Topology::kSameCpu) {
    return {platform_.l1_hit_ns, best_level};  // another thread on the same CPU holds it
  }
  return {platform_.LatencyNs(best_level), best_level};
}

inline Engine::PreparedAccess Engine::PrepareAccess(uintptr_t line_addr, OpKind kind) {
  SimThread* self = current_;
  if (fault_hook_ != nullptr) {
    // Preemption stall: the jump precedes the access's linearization, so a preempted
    // lock holder delays every waiter queued behind its next handover store.
    self->time += fault_hook_->PreAccessStall(self->id, self->cpu, self->time);
  }
  const uint32_t line_index = LineIndexFor(line_addr);
  LineHot& hot = HotAt(line_index);
  LineCold& cold = ColdAt(line_index);
  ++total_accesses_;

  const int cpu = self->cpu;
  const int16_t cpu16 = static_cast<int16_t>(cpu);  // cpu < kMaxCpus fits by contract
  const int num_levels = topology_->num_levels();
  const bool have_copy = cold.Holds(cpu16);
  const bool is_write = kind != OpKind::kLoad;
  const bool exclusive = cold.owner == cpu16 && have_copy && cold.holders[1] < 0;

  double cost_ns = 0.0;
  bool transferred = false;
  // Where the coherence traffic went: the sharing level that serviced the miss, or (for
  // an upgrade that moved no data) the farthest invalidated sharer. kSameCpu when the
  // line never left the CPU's private cache.
  int transfer_level = topo::Topology::kSameCpu;
  int invalidated_sharers = 0;
  if (!is_write) {
    if (have_copy) {
      cost_ns = platform_.l1_hit_ns;
    } else {
      MissSource miss = MissFrom(cpu, cold);
      cost_ns = miss.latency_ns;
      transfer_level = miss.level;
      transferred = true;
    }
    cold.TouchBy(cpu16);
  } else {
    if (exclusive) {
      cost_ns = kind == OpKind::kStore ? platform_.l1_hit_ns : platform_.local_rmw_ns;
    } else {
      // Read-for-ownership: the data transfer (if we lack a copy) and the invalidation
      // round (if others share the line) overlap — the directory issues them together —
      // so the base cost is the farther of the two round trips, plus a small serialized
      // ack cost per additional sharer. Making the invalidation a full round trip is
      // what gives Hemlock's CTR its x86 benefit: RMW-mode spinning keeps the sharer
      // set empty, so the handover store skips the upgrade round (§2.1).
      // One pass over the (MRU-packed) holder list computes both the closest copy to
      // source the data from (what MissFrom computes on the read path) and the farthest
      // sharer to invalidate — each holder's SharingLevel is looked up exactly once.
      int best_level = num_levels;  // worse than any real level
      double farthest_inv_ns = 0.0;
      int farthest_inv_level = topo::Topology::kSameCpu;
      for (int16_t other : cold.holders) {
        if (other < 0) {
          break;
        }
        if (other == cpu) {
          continue;
        }
        ++invalidated_sharers;
        int level = topology_->SharingLevel(cpu, other);
        ++level_metrics_[trace::LevelBucket(level, num_levels)].invalidations;
        double lat = level == topo::Topology::kSameCpu ? platform_.l1_hit_ns
                                                       : platform_.LatencyNs(level);
        if (lat > farthest_inv_ns) {
          farthest_inv_ns = lat;
          farthest_inv_level = level;
        }
        if (level < best_level) {
          best_level = level;
        }
      }
      double transfer_ns = 0.0;
      if (have_copy) {
        transfer_level = farthest_inv_level;  // pure upgrade: attribute to the inv round
      } else if (best_level >= num_levels) {
        transfer_ns = platform_.cold_miss_ns;  // no valid copy anywhere (or never touched)
        transfer_level = num_levels;
      } else {
        transfer_ns = platform_.LatencyNs(best_level);
        transfer_level = best_level;
      }
      double extra_acks = invalidated_sharers > 1
                              ? (invalidated_sharers - 1) * platform_.sharer_invalidation_ns
                              : 0.0;
      cost_ns = std::max(transfer_ns, farthest_inv_ns) + extra_acks;
      cost_ns = std::max(cost_ns, platform_.local_rmw_ns);
      if (kind != OpKind::kStore) {
        cost_ns += platform_.contended_rmw_extra_ns;
      }
      if (hot.num_waiters > 0) {
        // The write fights the spinners' continuous polling for line ownership.
        double poll_lat = std::max(farthest_inv_ns, transfer_ns);
        cost_ns += static_cast<double>(hot.num_waiters) *
                   platform_.spinner_interference * poll_lat;
      }
      transferred = true;
    }
    if (platform_.arch == Arch::kArm && kind == OpKind::kCmpXchg && hot.rmw_waiters > 0) {
      // LL/SC reservation stealing: every RMW-mode spinner on this line keeps breaking
      // the releaser's exclusive reservation (Hemlock-CTR pathology, paper §3.2).
      cost_ns += static_cast<double>(hot.rmw_waiters) * platform_.sc_retry_penalty_ns;
    }
    cold.owner = cpu16;
    cold.ResetTo(cpu16);
  }
  cold.touched = true;

  const Time start = std::max(self->time, transferred ? hot.next_free : Time{0});
  const Time completion = start + PsFromNs(cost_ns);
  Time queue_ps = 0;
  if (transferred) {
    const int bucket = trace::LevelBucket(transfer_level, num_levels);
    ++total_line_transfers_;
    ++level_metrics_[bucket].line_transfers;
    queue_ps = start - self->time;  // time spent queued behind the busy transfer port
    level_metrics_[bucket].port_queue_ps += queue_ps;
    // The transfer port stays busy for a fraction of the latency, serializing storms.
    hot.next_free = start + PsFromNs(cost_ns * platform_.port_occupancy);
  }

  PreparedAccess prepared;
  prepared.hot = &hot;
  prepared.line_addr = line_addr;
  prepared.line_index = line_index;
  prepared.kind = kind;
  prepared.cpu = cpu;
  prepared.start = start;
  prepared.completion = completion;
  prepared.queue_ps = queue_ps;
  prepared.transfer_level = transfer_level;
  prepared.invalidated = static_cast<uint16_t>(invalidated_sharers);
  prepared.transferred = transferred;
  prepared.is_write = is_write;
  return prepared;
}

inline Engine::AccessResult Engine::FinishAccess(const PreparedAccess& prepared,
                                                 bool changed) {
  SimThread* self = current_;
  LineHot& hot = *prepared.hot;  // arena-backed: stable across the apply callback
  const Time completion = prepared.completion;
  if (sink_ != nullptr) {
    EmitAccessEvent(prepared);
  }
  if (watchdog_ != nullptr) {
    WatchdogState& w = *watchdog_;
    w.ring[total_accesses_ & w.ring_mask] =
        RingEntry{completion, prepared.line_index, static_cast<uint16_t>(self->id),
                  static_cast<uint8_t>(prepared.kind)};
    if (total_accesses_ >= w.check_at) {
      WatchdogCheck();  // may unwind this fiber on a trip / during an abort
    }
  }
  if (prepared.is_write && changed) {
    ++hot.version;
    if (hot.waiter_head != nullptr) {
      WakeWaiters(hot, prepared);
    }
  }
  AccessResult result{completion, hot.version};
  self->time = completion;
  YieldRunnable(self);
  return result;
}

}  // namespace clof::sim

#endif  // CLOF_SRC_SIM_ENGINE_H_

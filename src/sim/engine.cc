#include "src/sim/engine.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace clof::sim {
namespace {

// Access events reuse the OpKind encoding (trace::EventKind appends kSpinWakeup).
static_assert(static_cast<int>(trace::EventKind::kLoad) == static_cast<int>(OpKind::kLoad) &&
              static_cast<int>(trace::EventKind::kStore) == static_cast<int>(OpKind::kStore) &&
              static_cast<int>(trace::EventKind::kRmw) == static_cast<int>(OpKind::kRmw) &&
              static_cast<int>(trace::EventKind::kCmpXchg) == static_cast<int>(OpKind::kCmpXchg) &&
              static_cast<int>(trace::EventKind::kRmwSpinLoad) ==
                  static_cast<int>(OpKind::kRmwSpinLoad));

constexpr size_t kInitialLineIndexSlots = 1024;  // power of two

// A wakeup herd at least this large is queued with one bulk heap build instead of N
// individual sift-ups: N sift-ups cost O(N log n) while the Floyd rebuild is O(n), so
// small herds (the common case) keep the cheap path and storm wakeups — hundreds of
// spinners re-fetching after a write to a globally-spun-on line — amortize to O(1)
// heap work per woken thread.
constexpr int32_t kBulkWakeThreshold = 8;

// Retired arena chunks kept per host thread for reuse (64 lines each): 512 chunks =
// 32k distinct lines, far above any benchmark cell, while bounding idle memory held
// by sweep workers to a few megabytes.
constexpr size_t kChunkPoolCap = 512;

}  // namespace

Engine::Engine(const topo::Topology& topology, PlatformModel platform)
    : topology_(&topology),
      platform_(std::move(platform)),
      line_index_(kInitialLineIndexSlots),
      main_fiber_(runtime::Fiber::Main()),
      level_metrics_(trace::NumLevelBuckets(topology.num_levels())) {
  if (topology.num_cpus() > kMaxCpus) {
    throw std::invalid_argument("topology exceeds simulator CPU limit");
  }
  if (static_cast<int>(platform_.level_latency_ns.size()) != topology.num_levels()) {
    throw std::invalid_argument("platform latency table does not match topology levels");
  }
}

auto Engine::HotChunkPool() -> std::vector<std::unique_ptr<LineHot[]>>& {
  thread_local std::vector<std::unique_ptr<LineHot[]>> pool;
  return pool;
}

auto Engine::ColdChunkPool() -> std::vector<std::unique_ptr<LineCold[]>>& {
  thread_local std::vector<std::unique_ptr<LineCold[]>> pool;
  return pool;
}

Engine::~Engine() {
  // Park this engine's arena chunks for the next engine on this host thread (the
  // ParallelSweep per-cell pattern). AddLine resets each slot on first touch, so
  // recycled chunks need no scrubbing here.
  auto& hot_pool = HotChunkPool();
  for (auto& chunk : hot_chunks_) {
    if (hot_pool.size() >= kChunkPoolCap) {
      break;
    }
    hot_pool.push_back(std::move(chunk));
  }
  auto& cold_pool = ColdChunkPool();
  for (auto& chunk : cold_chunks_) {
    if (cold_pool.size() >= kChunkPoolCap) {
      break;
    }
    cold_pool.push_back(std::move(chunk));
  }
}

void Engine::Spawn(int cpu, std::function<void()> fn) {
  if (running_) {
    throw std::logic_error("Spawn() after Run() started");
  }
  if (cpu < 0 || cpu >= topology_->num_cpus()) {
    throw std::invalid_argument("Spawn: cpu out of range");
  }
  if (threads_.size() >= (uint64_t{1} << kThreadIdBits)) {
    // Thread ids share the ready-queue key word with the FIFO stamp (ReadyEntry).
    throw std::invalid_argument("Spawn: too many simulated threads");
  }
  auto thread = std::make_unique<SimThread>();
  thread->cpu = cpu;
  thread->id = threads_.size();
  SimThread* raw = thread.get();
  thread->fiber = std::make_unique<runtime::Fiber>(
      [fn = std::move(fn), raw]() {
        // The abort token must be caught here, on the fiber's own stack: the context-
        // switch frame below Fiber::Run has no unwind info, so nothing may propagate
        // past this lambda. Run() rethrows the real error once every fiber drained.
        try {
          fn();
        } catch (const AbortSimulation&) {
        }
        raw->done = true;
      },
      &main_fiber_);
  threads_.push_back(std::move(thread));
}

void Engine::Run() {
  running_ = true;
  Engine* previous = current_engine_;
  current_engine_ = this;
  unfinished_ = static_cast<int>(threads_.size());
  // Each thread occupies at most one heap slot (it is either running, parked on a
  // line, or queued), so this one reservation covers the whole run.
  heap_.reserve(threads_.size());
  for (auto& thread : threads_) {
    MakeReady(thread.get());
  }
  RunReady();
  // Deadlock: every remaining thread is parked on a line nothing will write again.
  // Record the diagnostic and the count first, then unwind the parked fibers the way a
  // watchdog trip does, so their stacks (lock contexts included) are released.
  const int deadlocked = unfinished_;
  EngineDiagnostic deadlock;
  if (deadlocked > 0) {
    deadlock = CaptureDiagnostic("deadlock");
    AbortParkedThreads();
    RunReady();
  }
  current_engine_ = previous;
  running_ = false;
  if (watchdog_ != nullptr && watchdog_->tripped) {
    watchdog_->tripped = false;
    EngineDiagnostic diagnostic = std::move(watchdog_->diagnostic);
    // Build the summary before std::move(diagnostic) can gut `reason` (argument
    // evaluation order is unspecified).
    std::string summary = "simulation watchdog tripped: " + diagnostic.reason;
    throw SimWatchdogError(summary, std::move(diagnostic));
  }
  if (deadlocked > 0) {
    throw SimDeadlockError("simulation deadlock: " + std::to_string(deadlocked) +
                               " thread(s) parked forever",
                           std::move(deadlock));
  }
}

void Engine::RunReady() {
  // Reschedules hand off fiber-to-fiber without bouncing through here (HandOff,
  // ParkOnLine); control returns to this loop only when the running thread finishes
  // (its fiber's parent is the main fiber) or parks with nothing left runnable. Either
  // way `current_` names the thread that gave control back.
  while (!heap_.empty()) {
    SimThread* thread = HeapPop();
    current_ = thread;
    runtime::Fiber::Switch(main_fiber_, *thread->fiber);
    SimThread* last = current_;
    current_ = nullptr;
    if (last->done && last->fiber->finished()) {
      --unfinished_;
    }
  }
}

void Engine::SetWatchdog(const WatchdogConfig& config) {
  if (running_) {
    throw std::logic_error("SetWatchdog() after Run() started");
  }
  if (!config.Enabled()) {
    watchdog_.reset();
    return;
  }
  watchdog_ = std::make_unique<WatchdogState>();
  watchdog_->config = config;
  watchdog_->config.check_interval = std::max(1u, config.check_interval);
  watchdog_->countdown = watchdog_->config.check_interval;
  watchdog_->ring.resize(config.recent_ops);
  watchdog_->wall_start = std::chrono::steady_clock::now();
}

void Engine::WatchdogObserve(const PreparedAccess& prepared) {
  if (aborting_) {
    throw AbortSimulation{};  // drain: first access after a trip unwinds the fiber
  }
  WatchdogState& w = *watchdog_;
  if (!w.ring.empty()) {
    OpRecord& record = w.ring[w.ring_next];
    record.thread_id = current_->id;
    record.cpu = prepared.cpu;
    record.kind = static_cast<int>(prepared.kind);
    record.line = PeekLineIndex(prepared.line_addr);
    record.completion = prepared.completion;
    w.ring_next = (w.ring_next + 1) % w.ring.size();
    ++w.ring_count;
  }
  ++w.accesses_since_progress;
  if (w.config.max_accesses_without_progress > 0 &&
      w.accesses_since_progress >= w.config.max_accesses_without_progress) {
    WatchdogTrip("no forward progress for " +
                 std::to_string(w.accesses_since_progress) +
                 " accesses (budget " +
                 std::to_string(w.config.max_accesses_without_progress) + ")");
  }
  if (--w.countdown == 0) {
    w.countdown = w.config.check_interval;
    if (w.config.max_virtual_time > 0 && current_->time > w.config.max_virtual_time) {
      WatchdogTrip("virtual-time budget exceeded (budget " +
                   std::to_string(w.config.max_virtual_time) + " ps)");
    }
    if (w.config.max_wall_seconds > 0.0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - w.wall_start;
      if (elapsed.count() > w.config.max_wall_seconds) {
        // Budget, not elapsed, in the message: wall trips are inherently host-
        // dependent, but their report text stays stable.
        WatchdogTrip("host wall-clock budget exceeded (budget " +
                     std::to_string(w.config.max_wall_seconds) + " s)");
      }
    }
  }
}

void Engine::WatchdogWorkCheck(SimThread* self) {
  if (aborting_) {
    throw AbortSimulation{};
  }
  const WatchdogConfig& config = watchdog_->config;
  if (config.max_virtual_time > 0 && self->time > config.max_virtual_time) {
    WatchdogTrip("virtual-time budget exceeded (budget " +
                 std::to_string(config.max_virtual_time) + " ps)");
  }
}

void Engine::WatchdogTrip(std::string reason) {
  WatchdogState& w = *watchdog_;
  w.tripped = true;
  w.diagnostic = CaptureDiagnostic(reason.c_str());
  AbortParkedThreads();
  throw AbortSimulation{};
}

void Engine::AbortParkedThreads() {
  aborting_ = true;
  // Force-wake every parked thread so each unwinds via AbortSimulation as soon as it
  // returns from its park, and clear the intrusive waiter lists so no stale links
  // survive.
  for (uint32_t i = 0; i < num_lines_; ++i) {
    LineHot& hot = HotAt(i);
    hot.waiter_head = nullptr;
    hot.waiter_tail = nullptr;
    hot.num_waiters = 0;
    hot.rmw_waiters = 0;
  }
  for (auto& thread : threads_) {
    SimThread* t = thread.get();
    if (t->parked) {
      t->parked = false;
      t->rmw_spinner = false;
      t->next_waiter = nullptr;
      MakeReady(t);
    }
  }
}

EngineDiagnostic Engine::CaptureDiagnostic(const char* reason) {
  EngineDiagnostic diagnostic;
  diagnostic.reason = reason;
  diagnostic.total_accesses = total_accesses_;
  diagnostic.accesses_since_progress =
      watchdog_ != nullptr ? watchdog_->accesses_since_progress : 0;
  diagnostic.threads.reserve(threads_.size());
  for (const auto& thread : threads_) {
    const SimThread* t = thread.get();
    ThreadDiagnostic info;
    info.id = t->id;
    info.cpu = t->cpu;
    info.time = t->time;
    info.state = t->done        ? ThreadState::kDone
                 : t->parked    ? ThreadState::kParked
                 : t == current_ ? ThreadState::kRunning
                                 : ThreadState::kRunnable;
    if (t->parked) {
      const uint32_t index = PeekLineIndex(t->parked_line);
      info.parked_line = index;
      if (index != kNoLine) {
        info.line_owner_cpu = ColdAt(index).owner;
        info.line_waiters = HotAt(index).num_waiters;
      }
    }
    diagnostic.now = std::max(diagnostic.now, t->time);
    diagnostic.threads.push_back(info);
  }
  if (watchdog_ != nullptr && watchdog_->ring_count > 0) {
    const WatchdogState& w = *watchdog_;
    const size_t depth = std::min<uint64_t>(w.ring_count, w.ring.size());
    diagnostic.recent_ops.reserve(depth);
    for (size_t i = 0; i < depth; ++i) {
      diagnostic.recent_ops.push_back(
          w.ring[(w.ring_next + w.ring.size() - depth + i) % w.ring.size()]);
    }
  }
  return diagnostic;
}

uint32_t Engine::PeekLineIndex(uintptr_t line_addr) const {
  const size_t mask = line_index_.size() - 1;
  size_t slot = HashLineAddr(line_addr) & mask;
  while (true) {
    const LineSlot& entry = line_index_[slot];
    if (entry.index == kNoLine || entry.addr == line_addr) {
      return entry.index;
    }
    slot = (slot + 1) & mask;
  }
}

void Engine::AbortNoEngine() {
  std::fprintf(stderr, "sim::Engine::Current() called outside a simulation\n");
  std::abort();
}

uint32_t Engine::AddLine(uintptr_t line_addr, size_t slot) {
  if ((num_lines_ + 1) * 4 > line_index_.size() * 3) {  // keep load factor <= 3/4
    GrowLineIndex();
    const size_t mask = line_index_.size() - 1;
    slot = HashLineAddr(line_addr) & mask;
    while (line_index_[slot].index != kNoLine) {
      slot = (slot + 1) & mask;
    }
  }
  if (num_lines_ % kLinesPerChunk == 0) {
    auto& hot_pool = HotChunkPool();
    if (!hot_pool.empty()) {
      hot_chunks_.push_back(std::move(hot_pool.back()));
      hot_pool.pop_back();
    } else {
      hot_chunks_.push_back(std::make_unique<LineHot[]>(kLinesPerChunk));
    }
    auto& cold_pool = ColdChunkPool();
    if (!cold_pool.empty()) {
      cold_chunks_.push_back(std::move(cold_pool.back()));
      cold_pool.pop_back();
    } else {
      cold_chunks_.push_back(std::make_unique<LineCold[]>(kLinesPerChunk));
    }
  }
  const uint32_t index = num_lines_++;
  // Recycled chunks still carry a previous engine's state; reset the claimed slot at
  // first touch instead of scrubbing whole chunks on hand-over.
  HotAt(index) = LineHot{};
  ColdAt(index) = LineCold{};
  line_index_[slot] = LineSlot{line_addr, index};
  return index;
}

void Engine::GrowLineIndex() {
  std::vector<LineSlot> old = std::move(line_index_);
  line_index_.assign(old.size() * 2, LineSlot{});
  const size_t mask = line_index_.size() - 1;
  for (const LineSlot& entry : old) {
    if (entry.index == kNoLine) {
      continue;
    }
    size_t slot = HashLineAddr(entry.addr) & mask;
    while (line_index_[slot].index != kNoLine) {
      slot = (slot + 1) & mask;
    }
    line_index_[slot] = entry;
  }
}

void Engine::EmitAccessEvent(const PreparedAccess& prepared) {
  const int num_levels = topology_->num_levels();
  trace::Event event;
  event.start = prepared.start;
  event.completion = prepared.completion;
  event.line = prepared.line_addr;
  event.cpu = prepared.cpu;
  event.bucket =
      prepared.transferred ? trace::LevelBucket(prepared.transfer_level, num_levels) : -1;
  event.kind = static_cast<trace::EventKind>(prepared.kind);
  event.transferred = prepared.transferred;
  event.invalidated = prepared.invalidated;
  event.queue_ps = prepared.queue_ps;
  sink_->OnEvent(event);
}

void Engine::WakeWaiters(LineHot& hot, const PreparedAccess& prepared) {
  const int num_levels = topology_->num_levels();
  const Time completion = prepared.completion;
  // Detach the whole FIFO first, then wake in park order: each waiter's FIFO stamp is
  // taken in sequence, matching the pre-intrusive-list wake order.
  SimThread* waiter = hot.waiter_head;
  hot.waiter_head = nullptr;
  hot.waiter_tail = nullptr;
  const int32_t count = hot.num_waiters;
  hot.num_waiters = 0;
  // Storm herds bypass MakeReady: append every woken thread to the heap tail (stamps
  // still taken in park order), then restore the heap property with one bulk build in
  // HeapBulkAppend. The pop sequence is a function of the (time, order) key multiset
  // alone, so results are byte-identical to the one-push-per-waiter path.
  const bool bulk = count >= kBulkWakeThreshold;
  const size_t first_new = heap_.size();
  while (waiter != nullptr) {
    SimThread* next = waiter->next_waiter;
    waiter->next_waiter = nullptr;
    waiter->parked = false;
    if (waiter->rmw_spinner) {
      --hot.rmw_waiters;
      waiter->rmw_spinner = false;
    }
    waiter->time = std::max(waiter->time, completion);
    if (bulk) {
      heap_.push_back(ReadyEntry{waiter->time, MakeKey(waiter)});
    } else {
      MakeReady(waiter);
    }
    const int wake_level = topology_->SharingLevel(prepared.cpu, waiter->cpu);
    ++level_metrics_[trace::LevelBucket(wake_level, num_levels)].spin_wakeups;
    if (sink_ != nullptr) {
      trace::Event wake;
      wake.start = waiter->time;
      wake.completion = waiter->time;
      wake.line = prepared.line_addr;
      wake.cpu = waiter->cpu;
      wake.bucket = trace::LevelBucket(wake_level, num_levels);
      wake.kind = trace::EventKind::kSpinWakeup;
      sink_->OnEvent(wake);
    }
    waiter = next;
  }
  if (bulk) {
    HeapBulkAppend(first_new);
  }
}

void Engine::Park(uintptr_t line_addr, uint64_t seen_version, bool rmw_spinner) {
  if (aborting_) {
    throw AbortSimulation{};  // never re-park while a watchdog trip is draining
  }
  SimThread* self = current_;
  LineHot& hot = HotAt(LineIndexFor(line_addr));
  if (hot.version != seen_version) {
    return;  // a value-changing write raced in between the load and the park
  }
  self->parked = true;
  self->parked_line = line_addr;
  self->rmw_spinner = rmw_spinner;
  if (rmw_spinner) {
    ++hot.rmw_waiters;
  }
  self->next_waiter = nullptr;
  if (hot.waiter_tail != nullptr) {
    hot.waiter_tail->next_waiter = self;
  } else {
    hot.waiter_head = self;
  }
  hot.waiter_tail = self;
  ++hot.num_waiters;
  if (heap_.empty()) {
    SwitchToScheduler(self);  // nothing runnable: let Run() detect end or deadlock
    return;
  }
  SimThread* next = HeapPop();
  current_ = next;
  runtime::Fiber::Switch(*self->fiber, *next->fiber);
}

void Engine::ThrowAbort() { throw AbortSimulation{}; }

void Engine::HeapSiftUp(size_t slot) {
  const ReadyEntry moving = heap_[slot];
  while (slot > 0) {
    const size_t parent = (slot - 1) / 2;
    if (!EntryBefore(moving, heap_[parent])) {
      break;
    }
    heap_[slot] = heap_[parent];
    slot = parent;
  }
  heap_[slot] = moving;
}

void Engine::HeapSiftDown(size_t slot) {
  const ReadyEntry moving = heap_[slot];
  const size_t size = heap_.size();
  while (true) {
    size_t child = slot * 2 + 1;
    if (child >= size) {
      break;
    }
    if (child + 1 < size && EntryBefore(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!EntryBefore(heap_[child], moving)) {
      break;
    }
    heap_[slot] = heap_[child];
    slot = child;
  }
  heap_[slot] = moving;
}

Engine::SimThread* Engine::HeapPop() {
  SimThread* top = ThreadOf(heap_.front());
  const ReadyEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    HeapSiftDown(0);
  }
  return top;
}

void Engine::HeapBulkAppend(size_t first_new) {
  const size_t added = heap_.size() - first_new;
  const size_t size = heap_.size();
  // Floyd pays O(n) regardless of herd size; per-entry sift-ups pay O(added * log n).
  // Rebuild only when the herd is a meaningful fraction of the heap, so medium herds
  // over a huge heap don't trigger a full O(n) pass for nothing.
  if (added * 4 >= size) {
    for (size_t i = size / 2; i-- > 0;) {
      HeapSiftDown(i);
    }
    return;
  }
  for (size_t i = first_new; i < size; ++i) {
    HeapSiftUp(i);
  }
}

void Engine::MakeReady(SimThread* thread) {
  // Callers only ever ready a thread that is not queued (it is running XOR queued XOR
  // parked), so this is a plain insert — no membership test or re-key path needed.
  heap_.push_back(ReadyEntry{thread->time, MakeKey(thread)});
  HeapSiftUp(heap_.size() - 1);
}

void Engine::HandOff(SimThread* self) {
  // Direct handoff: take the earliest thread and switch straight to it. The heap front
  // is guaranteed to order before `self` — it was at or before self's time, and self's
  // FIFO stamp below is strictly newer — so push-self-then-pop would pop the current
  // front anyway; replacing the root in place yields the same key multiset (and hence
  // the same future pop sequence) with one sift instead of two. Compared to bouncing
  // through the main scheduler fiber this also halves the context-switch cost.
  SimThread* next = ThreadOf(heap_.front());
  heap_[0] = ReadyEntry{self->time, MakeKey(self)};
  HeapSiftDown(0);
  current_ = next;
  runtime::Fiber::Switch(*self->fiber, *next->fiber);
}

void Engine::SwitchToScheduler(SimThread* self) {
  runtime::Fiber::Switch(*self->fiber, main_fiber_);
  // Resumed by the scheduler: current_ has been set back to us.
}

}  // namespace clof::sim

#include "src/mck/explorer.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace clof::mck {
namespace {

thread_local Explorer* g_current_explorer = nullptr;

// Internal exception used to unwind fibers of an abandoned execution so that all
// destructors (e.g. CLH context nodes) run.
struct CancelExecution {};

uint64_t Bit(int tid) { return uint64_t{1} << tid; }

// Open-addressed map from an address to its ordinal in the current execution: the
// first address an execution touches gets ordinal 0, the next 1, and so on, so the
// explorer keeps its per-address records densely in plain vectors indexed by ordinal,
// reused from one execution to the next. Clear() wipes exactly the slots the last
// execution filled, so the table holds only the current execution's addresses. The
// harness builds fresh shared state every execution, and the allocator (ASan's
// quarantine especially) may hand it new addresses each time; with no stale entries to
// collect, the table is never rebuilt except to grow past the most addresses one
// execution has touched, and growth is the only time it allocates (mck_alloc_test pins
// this).
class AddrIndex {
 public:
  size_t size() const { return filled_.size(); }

  void Clear() {
    for (uint32_t slot : filled_) {
      slots_[slot].addr = 0;
    }
    filled_.clear();
  }

  // Ordinal of `addr` in this execution, or -1 if the execution has not touched it.
  int Find(uintptr_t addr) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(addr) & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.addr == addr) {
        return static_cast<int>(slot.ordinal);
      }
      if (slot.addr == 0) {
        return -1;
      }
    }
  }

  // Ordinal of `addr`, assigning the next one (the size before the call) when absent.
  // `addr` must be nonzero: 0 marks an empty slot.
  int Insert(uintptr_t addr) {
    if ((filled_.size() + 1) * 4 > slots_.size() * 3) {
      Grow();  // keep at least a quarter of the probes landing on empty slots
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash(addr) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.addr == addr) {
        return static_cast<int>(slot.ordinal);
      }
      if (slot.addr == 0) {
        slot.addr = addr;
        slot.ordinal = static_cast<uint32_t>(filled_.size());
        filled_.push_back(static_cast<uint32_t>(i));
        return static_cast<int>(slot.ordinal);
      }
    }
  }

 private:
  struct Slot {
    uintptr_t addr = 0;  // 0 = empty
    uint32_t ordinal = 0;
  };

  static size_t Hash(uintptr_t addr) {
    return static_cast<size_t>((static_cast<uint64_t>(addr) * 0x9E3779B97F4A7C15ull) >> 32);
  }

  void Grow() {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
    const size_t mask = slots_.size() - 1;
    for (uint32_t& slot_index : filled_) {
      size_t i = Hash(old[slot_index].addr) & mask;
      while (slots_[i].addr != 0) {
        i = (i + 1) & mask;
      }
      slots_[i] = old[slot_index];
      slot_index = static_cast<uint32_t>(i);
    }
  }

  std::vector<Slot> slots_ = std::vector<Slot>(64);
  std::vector<uint32_t> filled_;  // the slot of each ordinal
};

// Stateless apply for SchedulePoint's pending no-op (a FunctionRef target must
// outlive its calls; a namespace-scope object trivially does).
struct NoopApply {
  bool operator()() const { return false; }
};
constexpr NoopApply kNoopApply;

}  // namespace

struct Explorer::ThreadState {
  runtime::Fiber* fiber = nullptr;
  int tid = 0;
  int cpu = 0;
  bool finished = false;
  bool parked = false;
  // Addresses a parked thread is watching (its next probe targets); parked_addrs[0]
  // doubles as the woken thread's re-probe hint for the sleep-set dependence check.
  static constexpr int kMaxWatches = 4;
  std::array<uintptr_t, kMaxWatches> parked_addrs{};
  int parked_count = 0;
  // Announced-but-not-applied operation (the op that executes when scheduled next).
  bool has_pending = false;
  uintptr_t pending_addr = 0;
  MckOpKind pending_kind = MckOpKind::kLoad;
  runtime::FunctionRef<bool()> pending_apply;
  std::function<void()> arrival_probe;
  // The thread's program for the current execution. It lives here (not captured in the
  // fiber's std::function) so re-arming a recycled fiber only captures one ThreadState
  // pointer — small enough for std::function's inline storage, keeping the
  // per-execution reset allocation-free.
  std::function<void()> body;

  // Sleep-set independence check: can executing (addr, is_write) affect this thread's
  // next visible action? Unknown next actions (fresh threads) count as dependent.
  bool DependsOn(uintptr_t addr, bool is_write) const {
    if (has_pending) {
      bool pending_write = pending_kind != MckOpKind::kLoad;
      return pending_addr == addr && (is_write || pending_write);
    }
    if (parked_count > 0) {  // parked, or woken and about to re-probe its watches
      for (int i = 0; i < parked_count; ++i) {
        if (parked_addrs[i] == addr && is_write) {
          return true;
        }
      }
      return false;
    }
    return true;  // fresh thread: unknown, assume dependent
  }
};

struct Explorer::ExecutionContext {
  runtime::Fiber main_fiber = runtime::Fiber::Main();
  // Execution-scoped state lives in pools reset per execution, not in per-execution
  // allocations: fibers and ThreadStates are recycled, and the per-address records and
  // the vector clocks are reassigned in place.
  std::vector<std::unique_ptr<runtime::Fiber>> fiber_pool;
  std::vector<std::unique_ptr<ThreadState>> threads;
  // The running thread, null on the main fiber: each switch to a thread sets it first,
  // and the main fiber clears it whenever it regains control.
  ThreadState* current = nullptr;

  // Per-execution schedule record (node i = state before step i).
  std::vector<uint64_t> enabled_history;
  std::vector<uint64_t> sleep_history;
  std::vector<int> chosen_history;

  // Persistent DFS state, aligned with the common path prefix across executions:
  // prefix = choices to replay; explored[i] = choices whose subtrees are done at node i;
  // backtrack[i] = choices worth exploring at node i (DPOR: seeded with one thread,
  // grown by the conflicts later steps discover).
  std::vector<int> prefix;
  std::vector<uint64_t> explored;
  std::vector<uint64_t> backtrack;

  // Per-address records of the current execution, by the address's ordinal in it: the
  // version spin-waits park on, and the last accesses for DPOR conflict detection,
  // with the vector clocks realizing the happens-before relation (clock[q] = index of
  // q's latest step that happens-before; hb edges are exactly the dependent-access
  // pairs: write->read, read->write, write->write on one address). The clocks are n
  // ints wide, n being the execution's thread count.
  struct AddrRecord {
    uint64_t version = 0;  // value-changing writes so far; unwritten addresses read 0
    int last_write_step = -1;
    int last_write_tid = -1;
  };
  AddrIndex addrs;
  std::vector<AddrRecord> records;  // by ordinal
  // Per ordinal, three rows of n: last_read_step (per tid), write_clock (released by
  // the last write) and readers_clock (the join of the clocks released by the reads
  // since that write).
  std::vector<int> rows;
  std::vector<int> thread_clock;  // n x n: row q is thread q's clock

  // The ordinal of `addr`, its record reset when this execution first touches it.
  int Record(uintptr_t addr) {
    const size_t touched = addrs.size();
    const int ordinal = addrs.Insert(addr);
    if (static_cast<size_t>(ordinal) == touched) {
      if (records.size() == touched) {
        records.emplace_back();
      }
      records[ordinal] = AddrRecord{};
      const size_t width = 3 * threads.size();
      if (rows.size() < (touched + 1) * width) {
        rows.resize((touched + 1) * width);
      }
      std::fill_n(rows.begin() + static_cast<ptrdiff_t>(touched * width), width, -1);
    }
    return ordinal;
  }
  int* Rows(int ordinal) { return rows.data() + static_cast<size_t>(ordinal) * 3 * threads.size(); }

  // The decision loop's state between two decisions (see Explorer::Next()).
  int step = 0;
  uint64_t sleep = 0;
  // The last step's operation, whose sleep-set evolution the next decision owes once
  // its thread has announced, parked or finished.
  struct StepOp {
    int tid = -1;  // -1: nothing owed
    bool known = false;  // false: the thread was fresh or just woken and applied nothing
    bool write = false;
    uintptr_t addr = 0;
  };
  StepOp last_step;
  bool ended = false;  // every thread finished, or the search pruned this execution
  bool cancelling = false;
  bool violation = false;
  std::string violation_message;
};

Explorer::Explorer() : Explorer(Options{}) {}
Explorer::Explorer(Options options) : options_(options) {}
Explorer::~Explorer() = default;

Explorer& Explorer::Current() {
  if (g_current_explorer == nullptr) {
    std::fprintf(stderr, "mck::Explorer::Current() called outside an exploration\n");
    std::abort();
  }
  return *g_current_explorer;
}

bool Explorer::InExploration() {
  // True only while a *checked thread* is running: lock constructors/destructors also
  // execute between executions (fiber re-arming destroys captured state) and their
  // atomic accesses must degrade to plain ones.
  return g_current_explorer != nullptr && g_current_explorer->exec_ != nullptr &&
         g_current_explorer->exec_->current != nullptr;
}

int Explorer::CurrentTid() const { return exec_->current->tid; }
int Explorer::CurrentCpu() const { return exec_->current->cpu; }
int Explorer::NumThreads() const { return static_cast<int>(exec_->threads.size()); }

void Explorer::OnAccess(uintptr_t addr, MckOpKind kind, runtime::FunctionRef<bool()> apply) {
  ExecutionContext& ec = *exec_;
  ThreadState* self = ec.current;
  if (ec.cancelling) {
    throw CancelExecution{};
  }
  // Note: no "thread-local address" shortcut here. Skipping scheduling points for
  // addresses only one thread has touched *so far* is unsound — under a different
  // schedule another thread's access could have come first (a lost-update litmus
  // regression test guards this). Every access to a potentially shared location is a
  // scheduling point; the sound reductions are the sleep sets and the eager local
  // quanta in Next().
  //
  // Announce and yield; the scheduler resumes us when it is our turn, and we apply the
  // operation at that point (the linearization point).
  self->has_pending = true;
  self->pending_addr = addr;
  self->pending_kind = kind;
  self->pending_apply = apply;
  self->parked_count = 0;
  Suspend(self);
  self->has_pending = false;
  bool changed = apply();
  if (self->arrival_probe) {
    auto probe = std::move(self->arrival_probe);
    self->arrival_probe = nullptr;
    probe();
  }
  if (changed && kind != MckOpKind::kLoad) {
    ++ec.records[ec.Record(addr)].version;
    for (auto& thread : ec.threads) {
      if (!thread->parked) {
        continue;
      }
      for (int i = 0; i < thread->parked_count; ++i) {
        if (thread->parked_addrs[i] == addr) {
          thread->parked = false;  // keep the watch list: it is the next probe hint
          break;
        }
      }
    }
  }
}

void Explorer::ArmArrivalProbe(std::function<void()> probe) {
  exec_->current->arrival_probe = std::move(probe);
}

void Explorer::SchedulePoint() {
  ExecutionContext& ec = *exec_;
  ThreadState* self = ec.current;
  if (ec.cancelling) {
    throw CancelExecution{};
  }
  // A pending no-op on a per-thread sentinel address: a real suspension, but
  // independent of every other thread's next operation.
  self->has_pending = true;
  self->pending_addr = static_cast<uintptr_t>(self->tid) + 1;  // below any real address
  self->pending_kind = MckOpKind::kLoad;
  self->pending_apply = runtime::FunctionRef<bool()>(kNoopApply);
  self->parked_count = 0;
  Suspend(self);
  self->has_pending = false;
}

uint64_t Explorer::VersionOf(uintptr_t addr) {
  const int ordinal = exec_->addrs.Find(addr);
  return ordinal < 0 ? 0 : exec_->records[ordinal].version;
}

void Explorer::ParkOnAddr(uintptr_t addr, uint64_t seen_version) {
  ParkOnAddrs({AddrVersion{addr, seen_version}});
}

void Explorer::ParkOnAddrs(std::initializer_list<AddrVersion> watches) {
  ExecutionContext& ec = *exec_;
  ThreadState* self = ec.current;
  if (ec.cancelling) {
    throw CancelExecution{};
  }
  self->parked_count = 0;
  for (const AddrVersion& watch : watches) {
    if (VersionOf(watch.addr) != watch.seen_version) {
      return;  // raced with a write to one of the watches: re-probe
    }
    if (self->parked_count == ThreadState::kMaxWatches) {
      std::fprintf(stderr, "mck: too many park watches\n");
      std::abort();
    }
    self->parked_addrs[self->parked_count++] = watch.addr;
  }
  self->parked = true;
  Suspend(self);
}

void Explorer::Fail(const std::string& message) {
  ExecutionContext& ec = *exec_;
  if (!ec.violation) {
    ec.violation = true;
    ec.violation_message = message;
  }
  throw ViolationError(message);
}

void Explorer::Suspend(ThreadState* self) {
  ExecutionContext& ec = *exec_;
  ThreadState* next = Next();
  if (next != self) {
    ec.current = next;
    runtime::Fiber::Switch(*self->fiber, next != nullptr ? *next->fiber : ec.main_fiber);
  }
  if (ec.cancelling) {
    throw CancelExecution{};
  }
}

Explorer::ThreadState* Explorer::Next() {
  ExecutionContext& ec = *exec_;
  if (ec.ended || ec.violation) {
    return nullptr;
  }
  // Sleep-set evolution: the step that just ended wakes every slept thread dependent on
  // its op. It runs before the next quantum, which would change the threads' states.
  if (ec.last_step.tid >= 0) {
    const ExecutionContext::StepOp& op = ec.last_step;
    uint64_t next_sleep = 0;
    if (ec.sleep != 0) {
      for (auto& other : ec.threads) {
        if ((ec.sleep & Bit(other->tid)) == 0 || other->tid == op.tid || other->finished) {
          continue;
        }
        if (op.known && !other->DependsOn(op.addr, op.write)) {
          next_sleep |= Bit(other->tid);
        }
      }
    }
    ec.sleep = next_sleep;
    ec.last_step.tid = -1;
  }
  // Eagerly run every thread that has no announced operation (fresh threads and threads
  // just woken from a park), lowest index first: such a quantum performs no visible
  // operation — it only runs local code up to its next announcement — so it commutes
  // with every other thread and must not be a scheduling choice. Without this, each
  // spin wakeup would branch the search and defeat the sleep sets. A quantum cannot
  // make another thread eligible, so deciding again after each one runs the quanta in
  // index order.
  for (auto& thread : ec.threads) {
    if (!thread->finished && !thread->parked && !thread->has_pending) {
      return thread.get();
    }
  }
  uint64_t enabled = 0;
  bool all_finished = true;
  for (auto& thread : ec.threads) {
    if (!thread->finished) {
      all_finished = false;
      if (!thread->parked) {
        enabled |= Bit(thread->tid);
      }
    }
  }
  if (all_finished) {
    ec.ended = true;
    return nullptr;
  }
  if (enabled == 0) {
    ec.violation = true;
    ec.violation_message = "deadlock: all live threads are blocked";
    return nullptr;
  }
  const uint64_t sleep = ec.sleep;
  if (ec.step >= static_cast<int>(ec.explored.size())) {
    ec.explored.push_back(0);
    // DPOR: seed a fresh node with a single candidate; conflicts discovered by later
    // steps (possibly in later executions) grow this set in place.
    uint64_t seed = enabled & ~sleep;
    ec.backtrack.push_back(seed == 0 ? 0 : Bit(__builtin_ctzll(seed)));
  }
  int chosen;
  if (ec.step < static_cast<int>(ec.prefix.size())) {
    chosen = ec.prefix[ec.step];
    if ((enabled & Bit(chosen)) == 0) {
      std::fprintf(stderr, "mck: non-deterministic program under replay\n");
      std::abort();
    }
  } else {
    uint64_t avail = ec.backtrack[ec.step] & enabled & ~sleep & ~ec.explored[ec.step];
    if (avail == 0) {
      ec.ended = true;  // every successor here is covered by an explored/slept branch
      return nullptr;
    }
    chosen = __builtin_ctzll(avail);
  }
  ec.enabled_history.push_back(enabled);
  ec.sleep_history.push_back(sleep);
  ec.chosen_history.push_back(chosen);
  ++ec.step;
  if (ec.step > options_.max_steps) {
    ec.violation = true;
    ec.violation_message = "step bound exceeded (possible livelock)";
    return nullptr;
  }
  ThreadState* thread = ec.threads[chosen].get();
  // Capture the op this step will apply (announced before suspension); a fresh or
  // just-woken thread applies nothing and only announces, which is independent of
  // everything.
  const bool op_known = thread->has_pending;
  const uintptr_t op_addr = thread->pending_addr;
  const bool op_write = op_known && thread->pending_kind != MckOpKind::kLoad;
  const int this_step = ec.step - 1;
  if (op_known) {
    // DPOR backtrack-point discovery (Flanagan-Godefroid): this op may need to run
    // *before* the most recent conflicting access of another thread, unless that
    // access already happens-before us (then the two cannot be reordered and no
    // alternative exists). Record the alternative at the node preceding the access.
    const size_t n = ec.threads.size();
    const int ordinal = ec.Record(op_addr);
    ExecutionContext::AddrRecord& access = ec.records[ordinal];
    int* last_read_step = ec.Rows(ordinal);
    int* write_clock = last_read_step + n;
    int* readers_clock = write_clock + n;
    int* my_clock = ec.thread_clock.data() + static_cast<size_t>(chosen) * n;
    auto consider = [&](int step, int tid) {
      if (step < 0 || tid == chosen || step <= my_clock[tid]) {
        return;  // absent, own, or already ordered before us
      }
      uint64_t enabled_there = ec.enabled_history[step];
      ec.backtrack[step] |= (enabled_there & Bit(chosen)) != 0 ? Bit(chosen) : enabled_there;
    };
    consider(access.last_write_step, access.last_write_tid);
    if (op_write) {
      for (size_t u = 0; u < n; ++u) {
        consider(last_read_step[u], static_cast<int>(u));
      }
    }
    // Happens-before update: join the clocks this dependent access synchronizes with,
    // stamp our own progress, release our clock to the address.
    for (size_t u = 0; u < n; ++u) {
      my_clock[u] = std::max(my_clock[u], write_clock[u]);
      if (op_write) {
        my_clock[u] = std::max(my_clock[u], readers_clock[u]);
      }
    }
    my_clock[chosen] = this_step;
    if (op_write) {
      std::copy_n(my_clock, n, write_clock);
      std::fill_n(readers_clock, n, -1);  // absorbed into the write clock
      access.last_write_step = this_step;
      access.last_write_tid = chosen;
      std::fill_n(last_read_step, n, -1);
    } else {
      for (size_t u = 0; u < n; ++u) {
        readers_clock[u] = std::max(readers_clock[u], my_clock[u]);
      }
      last_read_step[chosen] = this_step;
    }
  }
  ec.last_step = {chosen, op_known, op_write, op_addr};
  return thread;
}

Explorer::Result Explorer::Explore(const std::function<std::vector<ThreadSpec>()>& make_threads) {
  Result result;
  ExecutionContext ec;
  exec_ = &ec;
  Explorer* previous = g_current_explorer;
  g_current_explorer = this;

  // Depth-first search over schedules with full replay and sleep sets: after a choice's
  // subtree is explored, reordering it with an *independent* (different address, or
  // both-read) op of another thread cannot produce a new behaviour, so the slept thread
  // stays excluded until a dependent op wakes it. This prunes the exploration to
  // (roughly) one execution per Mazurkiewicz trace while preserving all safety
  // violations and deadlocks.
  for (;;) {
    ++result.executions;
    ec.addrs.Clear();
    ec.enabled_history.clear();
    ec.sleep_history.clear();
    ec.chosen_history.clear();
    ec.step = 0;
    ec.sleep = 0;
    ec.last_step = {};
    ec.ended = false;
    ec.cancelling = false;
    ec.violation = false;
    ec.violation_message.clear();

    auto specs = make_threads();
    const size_t num_threads = specs.size();
    if (num_threads > 64) {
      std::fprintf(stderr, "mck: at most 64 threads supported\n");
      std::abort();
    }
    ec.thread_clock.assign(num_threads * num_threads, -1);
    if (ec.threads.size() > num_threads) {
      ec.threads.resize(num_threads);
    }
    while (ec.threads.size() < num_threads) {
      ec.threads.push_back(std::make_unique<ThreadState>());
    }
    for (size_t i = 0; i < num_threads; ++i) {
      ThreadState* raw = ec.threads[i].get();
      raw->tid = static_cast<int>(i);
      raw->cpu = specs[i].cpu;
      raw->finished = false;
      raw->parked = false;
      raw->parked_count = 0;
      raw->has_pending = false;
      raw->arrival_probe = nullptr;
      raw->body = std::move(specs[i].body);
      if (i >= ec.fiber_pool.size()) {
        ec.fiber_pool.push_back(std::make_unique<runtime::Fiber>([] {}, &ec.main_fiber,
                                                                 options_.fiber_stack_bytes));
        runtime::Fiber::Switch(ec.main_fiber, *ec.fiber_pool.back());  // drain the stub
      }
      raw->fiber = ec.fiber_pool[i].get();
      // The re-arm closure captures a single pointer, which fits std::function's
      // inline storage: recycling a fiber costs no allocation.
      raw->fiber->Reset(
          [raw]() {
            try {
              raw->body();
            } catch (const CancelExecution&) {
            } catch (const ViolationError&) {
            }
            raw->finished = true;
          },
          &ec.main_fiber);
    }

    // --- run one execution ---
    // Each decision runs on the stack of the thread that has just announced or parked,
    // which resumes the next thread directly (Suspend()); the main fiber decides only
    // at the start and after a thread finishes, and regains control when the execution
    // ends.
    for (ThreadState* next = Next(); next != nullptr; next = Next()) {
      ec.current = next;
      runtime::Fiber::Switch(ec.main_fiber, *next->fiber);
      ec.current = nullptr;
    }
    result.total_steps += static_cast<uint64_t>(ec.step);

    // Unwind any live fibers so their stacks run destructors.
    bool any_live = false;
    for (auto& thread : ec.threads) {
      any_live = any_live || !thread->finished;
    }
    if (any_live) {
      ec.cancelling = true;
      for (auto& thread : ec.threads) {
        while (!thread->finished) {
          ec.current = thread.get();
          runtime::Fiber::Switch(ec.main_fiber, *thread->fiber);
          ec.current = nullptr;
        }
      }
      ec.cancelling = false;
    }

    if (ec.violation) {
      result.violation_found = true;
      result.violation = ec.violation_message;
      result.violating_schedule = ec.chosen_history;
      result.exhausted = false;
      break;
    }

    // --- backtrack: deepest node with an unexplored backtrack-set alternative ---
    int backtrack = -1;
    for (int i = static_cast<int>(ec.chosen_history.size()) - 1; i >= 0; --i) {
      ec.explored[i] |= Bit(ec.chosen_history[i]);
      uint64_t avail = ec.backtrack[i] & ec.enabled_history[i] & ~ec.sleep_history[i] &
                       ~ec.explored[i];
      if (avail != 0) {
        backtrack = i;
        ec.prefix.assign(ec.chosen_history.begin(), ec.chosen_history.begin() + i);
        ec.prefix.push_back(__builtin_ctzll(avail));
        ec.explored.resize(static_cast<size_t>(i) + 1);
        ec.backtrack.resize(static_cast<size_t>(i) + 1);
        break;
      }
    }
    if (backtrack < 0) {
      break;  // explored everything
    }
    if (options_.max_executions != 0 && result.executions >= options_.max_executions) {
      result.exhausted = false;
      break;
    }
  }

  g_current_explorer = previous;
  exec_ = nullptr;
  return result;
}

}  // namespace clof::mck

// Tests for the resumable sweep journal (the cell log of src/exec/result_cache.h on a
// file of the run's choosing) and the resilient sweep (quarantine + partial results):
// an interrupted-then-resumed sweep must be byte-identical to an uninterrupted one —
// failures included — for any executor width and with or without the result cache; a
// journal that does not match the sweep's configuration must be ignored, not trusted;
// and a cut or corrupted journal serves each cell its recorded outcome or nothing.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/clof/lock.h"
#include "src/clof/registry.h"
#include "src/exec/fingerprint.h"
#include "src/exec/result_cache.h"
#include "src/locks/mcs.h"
#include "src/locks/ticket.h"
#include "src/mem/sim_memory.h"
#include "src/runtime/rng.h"
#include "src/select/scripted_bench.h"
#include "src/sim/platform.h"
#include "src/sim/watchdog.h"
#include "src/torture/mutants.h"

namespace clof::select {
namespace {

// --- test registry: two manually-registered genuine locks + the torture mutants ---

template <class L>
std::unique_ptr<Lock> MakeManual(const std::string& name, const topo::Hierarchy&,
                                 const ClofParams&) {
  return std::make_unique<PlainLock<L>>(name, Registry::kAnyDepth, L::kIsFair);
}

const Registry& MixedRegistry() {
  static const Registry registry = [] {
    Registry r;
    r.set_description("journal-test-mixed");
    r.Register("manual-tkt", Registry::kAnyDepth, true,
               &MakeManual<locks::TicketLock<mem::SimMemory>>);
    r.Register("manual-mcs", Registry::kAnyDepth, true,
               &MakeManual<locks::McsLock<mem::SimMemory>>);
    torture::RegisterMutants(r);
    return r;
  }();
  return registry;
}

// A sweep mixing healthy cells with a deterministic deadlock (mut-skip-unlock) and a
// livelock only the watchdog can stop (mut-stuck-spin).
SweepConfig BaseConfig(const sim::Machine& machine, bool include_broken) {
  SweepConfig config;
  config.spec.machine = &machine;
  config.spec.hierarchy =
      topo::Hierarchy::Select(machine.topology, {"cache", "numa", "system"});
  config.spec.registry = &MixedRegistry();
  config.lock_names = {"manual-tkt", "manual-mcs"};
  if (include_broken) {
    config.lock_names.push_back("mut-skip-unlock");
    config.lock_names.push_back("mut-stuck-spin");
  }
  config.thread_counts = {2, 4};
  config.duration_ms = 0.05;
  config.jobs = 1;
  // Tighter budgets than the sweep default so the livelocked cell trips quickly; the
  // virtual budget is generous enough that no healthy cell ever approaches it.
  config.watchdog.max_virtual_time = sim::PsFromNs(config.duration_ms * 1e6 * 50.0);
  config.watchdog.max_accesses_without_progress = uint64_t{1} << 20;
  return config;
}

// Canonical byte-exact serialization of everything a sweep produces, sidecars and
// quarantine report included (hex-float codec: equal strings <=> equal doubles).
std::string Serialize(const SweepResult& result) {
  std::ostringstream out;
  for (int t : result.thread_counts) {
    out << t << ' ';
  }
  out << '\n';
  for (const auto& curve : result.curves) {
    out << curve.name << ':';
    for (const auto* series : {&curve.throughput, &curve.local_handover_rate,
                               &curve.transfers_per_op, &curve.acquire_p99_ns}) {
      for (double v : *series) {
        out << ' ' << exec::HexDouble(v);
      }
      out << " |";
    }
    out << '\n';
  }
  for (const auto& failure : result.failures) {
    out << "fail " << failure.lock_name << ' ' << failure.num_threads << ' '
        << failure.kind << ' ' << failure.message << '\n'
        << failure.diagnostic << '\n';
  }
  for (const auto& name : result.quarantined) {
    out << "quarantined " << name << '\n';
  }
  out << result.selection.hc_best << ' ' << exec::HexDouble(result.selection.hc_best_score)
      << ' ' << result.selection.lc_best << ' '
      << exec::HexDouble(result.selection.lc_best_score) << ' ' << result.selection.worst
      << ' ' << exec::HexDouble(result.selection.worst_score) << '\n';
  return out.str();
}

std::string TempPath(const std::string& name) {
  std::string path = std::string(::testing::TempDir()) + "/clof_journal_test_" + name;
  std::filesystem::remove_all(path);
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

// The offset of every record in a cell log: each starts with the header magic.
std::vector<size_t> RecordStarts(const std::string& log) {
  const std::string magic = "clof-cell-cache v" + std::to_string(exec::kCellSchemaVersion) + " ";
  std::vector<size_t> starts;
  for (size_t at = log.find(magic); at != std::string::npos; at = log.find(magic, at + 1)) {
    starts.push_back(at);
  }
  return starts;
}

// ---------------------------------------------------------------------------
// Resilient sweep: quarantine + partial results
// ---------------------------------------------------------------------------

TEST(ResilientSweepTest, BrokenLocksAreQuarantinedNotFatal) {
  auto machine = sim::Machine::PaperArm();
  SweepConfig config = BaseConfig(machine, /*include_broken=*/true);
  SweepResult result = RunScriptedBenchmark(config);

  // The sweep completed with every curve present; the broken locks' failed cells
  // read as zeros but the healthy data survived.
  ASSERT_EQ(result.curves.size(), 4u);
  EXPECT_FALSE(result.failures.empty());
  EXPECT_TRUE(result.Quarantined("mut-skip-unlock"));
  EXPECT_TRUE(result.Quarantined("mut-stuck-spin"));
  EXPECT_FALSE(result.Quarantined("manual-tkt"));
  EXPECT_FALSE(result.Quarantined("manual-mcs"));

  // Failure kinds: the lost-wakeup mutant deadlocks (every thread parks), the stuck
  // spinner livelocks (only the watchdog can see it). Both carry a diagnostic dump.
  bool saw_deadlock = false;
  bool saw_watchdog = false;
  for (const auto& failure : result.failures) {
    if (failure.lock_name == "mut-skip-unlock" && failure.kind == "deadlock") {
      saw_deadlock = true;
    }
    if (failure.lock_name == "mut-stuck-spin" && failure.kind == "watchdog") {
      saw_watchdog = true;
    }
    EXPECT_FALSE(failure.diagnostic.empty()) << failure.lock_name;
  }
  EXPECT_TRUE(saw_deadlock);
  EXPECT_TRUE(saw_watchdog);

  // Selection only ever considers the non-quarantined locks.
  EXPECT_TRUE(result.selection.hc_best == "manual-tkt" ||
              result.selection.hc_best == "manual-mcs");
  EXPECT_TRUE(result.selection.worst == "manual-tkt" ||
              result.selection.worst == "manual-mcs");

  // Every byte of the result, the failure dumps and their last-ops rings included.
  const std::string text = Serialize(result);
  EXPECT_EQ(exec::Fnv1a(text), 0x8229f6eb35802015ull)
      << "actual 0x" << std::hex << exec::Fnv1a(text) << "\n" << text;
}

TEST(ResilientSweepTest, EligibleCurvesExcludesExactlyTheQuarantinedLocks) {
  auto machine = sim::Machine::PaperArm();
  SweepConfig config = BaseConfig(machine, /*include_broken=*/true);
  SweepResult result = RunScriptedBenchmark(config);

  // `curves` keeps everything (partial data stays inspectable, zero-filled slots and
  // all); EligibleCurves() is the ranking-safe view with the quarantined locks gone.
  ASSERT_EQ(result.curves.size(), 4u);
  auto eligible = result.EligibleCurves();
  ASSERT_EQ(eligible.size(), 2u);
  EXPECT_EQ(eligible[0].name, "manual-tkt");
  EXPECT_EQ(eligible[1].name, "manual-mcs");
  // The surviving curves are the originals, sidecars included — a filter, not a copy
  // that forgets data.
  for (const auto& curve : eligible) {
    const LockCurve* original = result.Curve(curve.name);
    ASSERT_NE(original, nullptr);
    EXPECT_EQ(curve.throughput, original->throughput);
    EXPECT_EQ(curve.acquire_p99_ns, original->acquire_p99_ns);
    for (double v : curve.throughput) {
      EXPECT_GT(v, 0.0) << curve.name;  // no zeroed quarantine slots in this view
    }
  }
}

TEST(ResilientSweepTest, AllQuarantinedSweepYieldsAnEmptySelection) {
  auto machine = sim::Machine::PaperArm();
  SweepConfig config = BaseConfig(machine, /*include_broken=*/true);
  config.lock_names = {"mut-skip-unlock", "mut-stuck-spin"};  // nothing survives
  SweepResult result = RunScriptedBenchmark(config);

  EXPECT_EQ(result.quarantined.size(), 2u);
  EXPECT_TRUE(result.EligibleCurves().empty());
  // No winner gets invented from zero-filled curves: selection stays empty.
  EXPECT_TRUE(result.selection.hc_best.empty());
  EXPECT_TRUE(result.selection.lc_best.empty());
  EXPECT_TRUE(result.selection.worst.empty());
  // The partial curves themselves survive for inspection.
  ASSERT_EQ(result.curves.size(), 2u);
}

TEST(ResilientSweepTest, QuarantineIsDeterministicAcrossJobs) {
  auto machine = sim::Machine::PaperArm();
  SweepConfig config = BaseConfig(machine, /*include_broken=*/true);
  config.jobs = 1;
  auto serial = Serialize(RunScriptedBenchmark(config));
  config.jobs = 4;
  auto parallel = Serialize(RunScriptedBenchmark(config));
  EXPECT_EQ(serial, parallel);
}

// ---------------------------------------------------------------------------
// Journal: crash-safe resume
// ---------------------------------------------------------------------------

TEST(SweepJournalTest, ResumeIsByteIdenticalAcrossTruncationsAndJobs) {
  auto machine = sim::Machine::PaperArm();
  SweepConfig config = BaseConfig(machine, /*include_broken=*/true);
  const std::string baseline = Serialize(RunScriptedBenchmark(config));

  // A completed journaled run: the journal now holds every cell, failures included.
  const std::string full_path = TempPath("full.journal");
  {
    exec::SweepJournal journal(full_path);
    config.journal = &journal;
    EXPECT_EQ(Serialize(RunScriptedBenchmark(config)), baseline);
    config.journal = nullptr;
  }
  const std::string full = ReadFile(full_path);
  const std::vector<size_t> starts = RecordStarts(full);
  ASSERT_GE(starts.size(), 3u);  // >= 2 whole records before the third
  const size_t cells = config.lock_names.size() * config.thread_counts.size();

  // Interrupt the run at three different points: after a record boundary, mid-record
  // (torn append), and mid-record followed by garbage bytes.
  const std::string boundary = full.substr(0, starts[2]);
  const std::string torn = full.substr(0, starts[2] + 7);
  const std::string corrupt = full.substr(0, starts[2] + 7) + "garbage\n";

  for (const auto& [tag, content] :
       std::vector<std::pair<std::string, std::string>>{
           {"boundary", boundary}, {"torn", torn}, {"corrupt", corrupt}}) {
    for (int jobs : {1, 2, 4}) {
      const std::string path = TempPath(tag + std::to_string(jobs) + ".journal");
      WriteFile(path, content);
      exec::SweepJournal journal(path);
      EXPECT_EQ(journal.loaded(), 2u) << tag;  // both intact records recovered
      SweepConfig resumed = config;
      resumed.jobs = jobs;
      resumed.journal = &journal;
      EXPECT_EQ(Serialize(RunScriptedBenchmark(resumed)), baseline)
          << tag << " jobs=" << jobs;
      EXPECT_EQ(journal.served(), 2u) << tag;  // recovered cells were not recomputed
      // The resumed run's appends follow the damaged tail, and a scan resynchronises
      // past it, so reopening the journal loads every cell.
      EXPECT_EQ(exec::SweepJournal(path).loaded(), cells) << tag << " jobs=" << jobs;
    }
  }
}

TEST(SweepJournalTest, ResumeServesEveryCellOnARepeatRun) {
  auto machine = sim::Machine::PaperArm();
  SweepConfig config = BaseConfig(machine, /*include_broken=*/true);
  const std::string path = TempPath("repeat.journal");
  exec::SweepJournal first(path);
  config.journal = &first;
  const std::string once = Serialize(RunScriptedBenchmark(config));
  const uint64_t cells = config.lock_names.size() * config.thread_counts.size();

  exec::SweepJournal second(path);
  EXPECT_EQ(second.loaded(), cells);
  config.journal = &second;
  EXPECT_EQ(Serialize(RunScriptedBenchmark(config)), once);
  // Every cell — the deadlocked and livelocked ones included — came from the journal:
  // a resumed sweep never re-runs a cell that already failed for ten minutes.
  EXPECT_EQ(second.served(), cells);
}

TEST(SweepJournalTest, CacheAndJournalRoundTripStaysByteIdentical) {
  auto machine = sim::Machine::PaperArm();
  SweepConfig config = BaseConfig(machine, /*include_broken=*/true);
  const std::string baseline = Serialize(RunScriptedBenchmark(config));

  const std::string cache_dir = TempPath("cache");
  exec::ResultCache cache(cache_dir);
  config.cache = &cache;
  exec::SweepJournal first(TempPath("cached_a.journal"));
  config.journal = &first;
  EXPECT_EQ(Serialize(RunScriptedBenchmark(config)), baseline);
  // Failures are journal-only: the shared cache must never hold a failed cell.
  const uint64_t healthy_cells = 2 * config.thread_counts.size();
  EXPECT_EQ(cache.stores(), healthy_cells);

  // Fresh journal + warm cache: healthy cells come from the cache, failures re-run,
  // and the journal learns all of them; the output never changes.
  exec::SweepJournal second(TempPath("cached_b.journal"));
  config.journal = &second;
  EXPECT_EQ(Serialize(RunScriptedBenchmark(config)), baseline);
  EXPECT_EQ(cache.hits(), healthy_cells);
}

TEST(SweepJournalTest, MismatchedConfigurationIsIgnored) {
  auto machine = sim::Machine::PaperArm();
  SweepConfig config = BaseConfig(machine, /*include_broken=*/false);
  const std::string path = TempPath("mismatch.journal");
  {
    exec::SweepJournal journal(path);
    config.journal = &journal;
    RunScriptedBenchmark(config);
  }
  // Same journal, different seed: every fingerprint differs, nothing may be served.
  SweepConfig other = config;
  other.spec.seed += 1;
  const std::string fresh = [&] {
    SweepConfig plain = other;
    plain.journal = nullptr;
    return Serialize(RunScriptedBenchmark(plain));
  }();
  exec::SweepJournal journal(path);
  other.journal = &journal;
  EXPECT_EQ(Serialize(RunScriptedBenchmark(other)), fresh);
  EXPECT_EQ(journal.served(), 0u);
}

TEST(SweepJournalTest, ForeignFileIsTreatedAsEmpty) {
  const std::string path = TempPath("foreign.journal");
  WriteFile(path, "not a journal\nat all\n");
  exec::SweepJournal journal(path);
  EXPECT_EQ(journal.loaded(), 0u);
}

TEST(SweepJournalTest, CutOrFlippedJournalsServeRecordedOutcomesOrNothing) {
  // Adversarial input for the journal parser, like the result cache's cut-and-flip test
  // in exec_test.cc: a journal of ok and fail records cut at every byte offset and hit
  // by a fixed set of seeded single-byte flips. Every Lookup returns the recorded
  // outcome exactly or nothing, and every record that ends before the damage is served.
  // A failure is kept as kind, message and diagnostic: the fingerprint names the cell.
  struct Cell {
    exec::Fingerprint fp;
    exec::CellOutcome outcome;
  };
  auto ok = [](exec::CellResult result) {
    exec::CellOutcome outcome;
    outcome.ok = true;
    outcome.result = result;
    return outcome;
  };
  auto fail = [](const std::string& kind, const std::string& message,
                 const std::string& diagnostic) {
    exec::CellOutcome outcome;
    outcome.failure.kind = kind;
    outcome.failure.message = message;
    outcome.failure.diagnostic = diagnostic;
    return outcome;
  };
  std::vector<Cell> cells = {
      {{}, ok({0.1 + 0.2, 1.0 / 3.0, -0.0, 5e-324, 1e308, 3.0})},
      {{}, fail("deadlock", "all 16 threads parked\\",
                "thread 0: parked on line #3\n\tlast: store 0x1p+0\n"
                "thread 1: parked on line #3\\n\n")},
      {{}, ok({1.5, 0.5, 0.0, 880.5, 1e-300, 0.0})},
      {{}, fail("watchdog", "no progress", "")},
  };
  const std::string source = TempPath("adversarial-source.journal");
  {
    exec::SweepJournal writer(source);
    for (size_t i = 0; i < cells.size(); ++i) {
      cells[i].fp.Add("cell", static_cast<int>(i));
      writer.Record(cells[i].fp, cells[i].outcome);
    }
  }
  const std::string journal = ReadFile(source);
  const std::vector<size_t> starts = RecordStarts(journal);
  ASSERT_EQ(starts.size(), cells.size());
  std::vector<size_t> ends(starts.begin() + 1, starts.end());  // one past each record
  ends.push_back(journal.size());

  // `damage` is the offset of the first damaged or missing byte: every record that ends
  // at or before it must be served.
  const std::string probe = TempPath("adversarial-probe.journal");
  auto check = [&](const std::string& bytes, const std::string& what, size_t damage) {
    WriteFile(probe, bytes);
    exec::SweepJournal reopened(probe);
    for (size_t i = 0; i < cells.size(); ++i) {
      auto hit = reopened.Lookup(cells[i].fp);
      if (hit.has_value()) {
        EXPECT_EQ(*hit, cells[i].outcome) << what << ": record " << i;
      } else {
        EXPECT_GT(ends[i], damage) << what << ": lost undamaged record " << i;
      }
    }
  };
  for (size_t cut = 0; cut <= journal.size(); ++cut) {
    check(journal.substr(0, cut), "cut at " + std::to_string(cut), cut);
  }
  runtime::Xoshiro256 rng(0x10a2a15eed);  // a fixed, seeded flip set
  for (int flip = 0; flip < 400; ++flip) {
    const size_t at = rng.Next() % journal.size();
    const auto mask = static_cast<char>(1 + rng.Next() % 255);
    std::string bytes = journal;
    bytes[at] = static_cast<char>(bytes[at] ^ mask);
    check(bytes, "flip at " + std::to_string(at), at);
  }
}

}  // namespace
}  // namespace clof::select

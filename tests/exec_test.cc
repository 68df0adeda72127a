// Unit tests for the clof::exec layer: the work-stealing ParallelFor executor, the
// canonical configuration fingerprint, and the content-addressed result cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/clof/run_spec.h"
#include "src/exec/executor.h"
#include "src/exec/fingerprint.h"
#include "src/exec/result_cache.h"
#include "src/sim/platform.h"

namespace clof::exec {
namespace {

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

TEST(ExecutorTest, ResolveJobsTreatsNonPositiveAsAuto) {
  EXPECT_GE(ResolveJobs(0), 1);
  EXPECT_GE(ResolveJobs(-3), 1);
  EXPECT_EQ(ResolveJobs(1), 1);
  EXPECT_EQ(ResolveJobs(7), 7);
}

TEST(ExecutorTest, EveryIndexRunsExactlyOnce) {
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> runs(kCount);
  Executor executor(4);
  EXPECT_EQ(executor.jobs(), 4);
  executor.ParallelFor(kCount, [&](size_t i) { runs[i].fetch_add(1); });
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "index " << i;
  }
}

TEST(ExecutorTest, ZeroTasksIsANoOp) {
  Executor executor(4);
  executor.ParallelFor(0, [&](size_t) { FAIL() << "no task should run"; });
}

TEST(ExecutorTest, SingleWorkerRunsInlineInIndexOrder) {
  Executor executor(1);
  std::vector<size_t> order;
  auto caller = std::this_thread::get_id();
  executor.ParallelFor(5, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ExecutorTest, SkewedTaskCostsStillCoverAllIndices) {
  // Front-loaded costs exercise stealing: worker 0 gets the expensive tasks.
  constexpr size_t kCount = 64;
  std::vector<std::atomic<int>> runs(kCount);
  Executor executor(4);
  executor.ParallelFor(kCount, [&](size_t i) {
    if (i < 4) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    runs[i].fetch_add(1);
  });
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "index " << i;
  }
}

TEST(ExecutorTest, ExceptionIsRethrownAfterAllWorkersDrain) {
  constexpr size_t kCount = 100;
  std::vector<std::atomic<int>> runs(kCount);
  Executor executor(3);
  EXPECT_THROW(
      executor.ParallelFor(kCount,
                           [&](size_t i) {
                             runs[i].fetch_add(1);
                             if (i == 17) {
                               throw std::runtime_error("boom");
                             }
                           }),
      std::runtime_error);
  // The contract says remaining tasks still run before the rethrow.
  int total = 0;
  for (size_t i = 0; i < kCount; ++i) {
    total += runs[i].load();
  }
  EXPECT_EQ(total, static_cast<int>(kCount));
}

TEST(ExecutorTest, MoreWorkersThanTasks) {
  std::vector<std::atomic<int>> runs(3);
  Executor executor(16);
  executor.ParallelFor(3, [&](size_t i) { runs[i].fetch_add(1); });
  EXPECT_EQ(runs[0].load() + runs[1].load() + runs[2].load(), 3);
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

RunSpec ArmSpec(const sim::Machine& machine) {
  RunSpec spec;
  spec.machine = &machine;
  spec.hierarchy = topo::Hierarchy::Select(machine.topology, {"numa", "system"});
  spec.registry = &SimRegistry(false);
  return spec;
}

TEST(FingerprintTest, TranscriptIsKeyValueLines) {
  Fingerprint fp;
  fp.Add("alpha", 3);
  fp.Add("beta", "x");
  fp.Add("gamma", true);
  EXPECT_EQ(fp.text(), "alpha=3\nbeta=x\ngamma=1\n");
  EXPECT_EQ(fp.HashHex().size(), 16u);
  EXPECT_EQ(fp.HashHex().find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(FingerprintTest, HashMatchesFnv1aReference) {
  // Reference value for FNV-1a 64 of the empty string is the offset basis.
  Fingerprint empty;
  EXPECT_EQ(empty.Hash(), 0xcbf29ce484222325ull);
}

TEST(FingerprintTest, DoubleRoundTripsExactly) {
  Fingerprint a, b;
  a.Add("x", 0.1);
  b.Add("x", 0.1 + 1e-17);  // adjacent representable value territory
  // 0.1 + 1e-17 rounds to a double; if it is bit-identical to 0.1 the transcripts
  // must match, otherwise they must differ. Either way the rendering is injective.
  EXPECT_EQ(a.text() == b.text(), 0.1 == 0.1 + 1e-17);
  Fingerprint c;
  c.Add("x", 0.30000000000000004);
  Fingerprint d;
  d.Add("x", 0.3);
  EXPECT_NE(c.text(), d.text());
}

TEST(FingerprintTest, CellFingerprintIsDeterministic) {
  auto machine = sim::Machine::PaperArm();
  RunSpec spec = ArmSpec(machine);
  Fingerprint a = CellFingerprint(spec, "mcs-mcs", 8, 0.5);
  Fingerprint b = CellFingerprint(spec, "mcs-mcs", 8, 0.5);
  EXPECT_EQ(a.text(), b.text());
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(FingerprintTest, EverySingleFieldChangeChangesTheHash) {
  auto machine = sim::Machine::PaperArm();
  RunSpec base_spec = ArmSpec(machine);
  Fingerprint base = CellFingerprint(base_spec, "mcs-mcs", 8, 0.5);

  std::vector<Fingerprint> variants;
  variants.push_back(CellFingerprint(base_spec, "clh-clh", 8, 0.5));  // lock
  variants.push_back(CellFingerprint(base_spec, "mcs-mcs", 16, 0.5));  // threads
  variants.push_back(CellFingerprint(base_spec, "mcs-mcs", 8, 1.0));  // duration

  {
    RunSpec s = base_spec;  // seed
    s.seed = 43;
    variants.push_back(CellFingerprint(s, "mcs-mcs", 8, 0.5));
  }
  {
    RunSpec s = base_spec;  // ClofParams
    s.params.keep_local_threshold = 64;
    variants.push_back(CellFingerprint(s, "mcs-mcs", 8, 0.5));
  }
  {
    RunSpec s = base_spec;  // workload profile
    s.profile.cs_work_ns = 200.0;
    variants.push_back(CellFingerprint(s, "mcs-mcs", 8, 0.5));
  }
  {
    RunSpec s = base_spec;  // registry identity
    s.registry = &SimRegistry(true);
    variants.push_back(CellFingerprint(s, "mcs-mcs", 8, 0.5));
  }
  {
    RunSpec s = base_spec;  // hierarchy: pick a different level selection
    s.hierarchy = topo::Hierarchy::Select(machine.topology, {"cache", "system"});
    variants.push_back(CellFingerprint(s, "mcs-mcs", 8, 0.5));
  }

  // Platform cost-model change.
  sim::Machine tweaked = sim::Machine::PaperArm();
  tweaked.platform.cold_miss_ns += 1.0;
  RunSpec tweaked_spec = ArmSpec(tweaked);
  variants.push_back(CellFingerprint(tweaked_spec, "mcs-mcs", 8, 0.5));

  // Topology change.
  sim::Machine x86 = sim::Machine::PaperX86();
  RunSpec x86_spec;
  x86_spec.machine = &x86;
  x86_spec.hierarchy = topo::Hierarchy::Select(x86.topology, {"numa", "system"});
  x86_spec.registry = &SimRegistry(false);
  variants.push_back(CellFingerprint(x86_spec, "mcs-mcs", 8, 0.5));

  std::vector<uint64_t> hashes{base.Hash()};
  for (const Fingerprint& v : variants) {
    EXPECT_NE(v.text(), base.text());
    hashes.push_back(v.Hash());
  }
  // All distinct pairwise, not just distinct from base.
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end());
}

TEST(FingerprintTest, EveryFaultPlanFieldChangeChangesTheHash) {
  // The fault plan is part of the cell key (schema v2): a faulted cell must never
  // alias an unfaulted one, and every severity knob must produce a distinct key.
  auto machine = sim::Machine::PaperArm();
  RunSpec base_spec = ArmSpec(machine);
  Fingerprint base = CellFingerprint(base_spec, "mcs-mcs", 8, 0.5);

  std::vector<Fingerprint> variants;
  auto variant = [&](auto&& mutate) {
    RunSpec s = base_spec;
    mutate(s.fault);
    variants.push_back(CellFingerprint(s, "mcs-mcs", 8, 0.5));
  };
  variant([](fault::FaultPlan& f) { f.seed = 2; });
  variant([](fault::FaultPlan& f) { f.preempt.enabled = true; });
  variant([](fault::FaultPlan& f) { f.preempt.interval_us = 20.0; });
  variant([](fault::FaultPlan& f) { f.preempt.jitter = 0.25; });
  variant([](fault::FaultPlan& f) { f.preempt.stall_us = 60.0; });
  variant([](fault::FaultPlan& f) { f.hetero.enabled = true; });
  variant([](fault::FaultPlan& f) { f.hetero.slow_fraction = 0.25; });
  variant([](fault::FaultPlan& f) { f.hetero.slow_factor = 8.0; });
  variant([](fault::FaultPlan& f) { f.interference.enabled = true; });
  variant([](fault::FaultPlan& f) { f.interference.threads = 8; });
  variant([](fault::FaultPlan& f) { f.interference.lines_per_burst = 2; });
  variant([](fault::FaultPlan& f) { f.interference.gap_ns = 250.0; });
  variant([](fault::FaultPlan& f) { f.churn.enabled = true; });
  variant([](fault::FaultPlan& f) { f.churn.stop_fraction = 0.75; });
  variant([](fault::FaultPlan& f) { f.churn.stop_point = 0.25; });

  std::vector<uint64_t> hashes{base.Hash()};
  for (const Fingerprint& v : variants) {
    EXPECT_NE(v.text(), base.text());
    hashes.push_back(v.Hash());
  }
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end());
}

TEST(FingerprintTest, SiteListJoinsTheFingerprint) {
  auto machine = sim::Machine::PaperArm();
  RunSpec base_spec = ArmSpec(machine);
  // The classic empty-sites spec fingerprints exactly as before the site field
  // existed — no "sites=" line — so historical cache entries stay valid.
  Fingerprint base = CellFingerprint(base_spec, "mcs-mcs", 8, 0.5);
  EXPECT_EQ(base.text().find("sites="), std::string::npos);

  workload::LockSite site;
  site.name = "cache_shard";
  site.share = 0.5;
  site.instances = 4;
  site.profile = base_spec.profile;
  RunSpec tagged_spec = base_spec;
  tagged_spec.sites = {site};
  Fingerprint tagged = CellFingerprint(tagged_spec, "mcs-mcs", 8, 0.5);
  EXPECT_NE(tagged.text().find("sites=1"), std::string::npos);

  // Site name, share, and instance count each produce a distinct cell key — two
  // sites sharing a critical-section shape must never collide in the cache.
  std::vector<Fingerprint> variants{base, tagged};
  {
    RunSpec s = tagged_spec;
    s.sites[0].name = "stats";
    variants.push_back(CellFingerprint(s, "mcs-mcs", 8, 0.5));
  }
  {
    RunSpec s = tagged_spec;
    s.sites[0].share = 0.25;
    variants.push_back(CellFingerprint(s, "mcs-mcs", 8, 0.5));
  }
  {
    RunSpec s = tagged_spec;
    s.sites[0].instances = 1;
    variants.push_back(CellFingerprint(s, "mcs-mcs", 8, 0.5));
  }
  std::vector<uint64_t> hashes;
  for (const Fingerprint& v : variants) {
    hashes.push_back(v.Hash());
  }
  std::sort(hashes.begin(), hashes.end());
  EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end());
}

TEST(FingerprintTest, CellCoordinatesCloseTheTranscript) {
  // A cell is one run, and its transcript still ends in `cell.runs=1`, so the keys in
  // existing caches and journals keep matching.
  auto machine = sim::Machine::PaperArm();
  const std::string text = CellFingerprint(ArmSpec(machine), "mcs-mcs", 8, 0.5).text();
  const std::string tail =
      "cell.lock=mcs-mcs\ncell.threads=8\ncell.duration_ms=0x1p-1\ncell.runs=1\n";
  ASSERT_GE(text.size(), tail.size());
  EXPECT_EQ(text.substr(text.size() - tail.size()), tail);
}

TEST(FingerprintTest, SchemaVersionIsPartOfTheKey) {
  auto machine = sim::Machine::PaperArm();
  RunSpec spec = ArmSpec(machine);
  Fingerprint fp = CellFingerprint(spec, "mcs-mcs", 8, 0.5);
  EXPECT_NE(fp.text().find("schema=" + std::to_string(kCellSchemaVersion)),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------------

// Fresh (empty) cache directory per test, so reruns never see stale entries.
std::string CacheDir(const char* name) {
  std::string dir = std::string(::testing::TempDir()) + "/clof_exec_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

Fingerprint TestFp(int salt = 0) {
  Fingerprint fp;
  fp.Add("test-key", 123 + salt);
  return fp;
}

TEST(ResultCacheTest, MissStoreHitRoundTrip) {
  ResultCache cache(CacheDir("roundtrip"));
  Fingerprint fp = TestFp();
  EXPECT_FALSE(cache.Lookup(fp).has_value());
  EXPECT_EQ(cache.misses(), 1u);

  CellResult value{12.5, 0.75, 1.0625};
  cache.Store(fp, value);
  EXPECT_EQ(cache.stores(), 1u);

  auto hit = cache.Lookup(fp);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, value);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ResultCacheTest, DifferentFingerprintMisses) {
  ResultCache cache(CacheDir("miss"));
  cache.Store(TestFp(0), CellResult{1.0, 0.0, 0.0});
  EXPECT_FALSE(cache.Lookup(TestFp(1)).has_value());
}

TEST(ResultCacheTest, ValuesSurviveExactly) {
  // Hex-float payloads must round-trip bit-for-bit, including awkward values.
  ResultCache cache(CacheDir("exact"));
  Fingerprint fp = TestFp();
  CellResult value{0.1 + 0.2, 1.0 / 3.0, 123456.789012345};
  cache.Store(fp, value);
  auto hit = cache.Lookup(fp);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, value);  // operator== — bitwise-equal doubles, not near-equal
}

// --- Helpers for the on-disk log (layout in src/exec/result_cache.h) ---

std::string LogPath(const std::string& dir) { return dir + "/cells.log"; }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& content,
               std::ios::openmode mode = std::ios::trunc) {
  std::ofstream out(path, std::ios::binary | mode);
  out << content;
}

// A well-formed log record built by hand, so a test can forge records the cache itself
// never writes: a header whose checksum is FNV-1a 64 over the text before it, then the
// transcript (which must hash to `hash16` for a scan to accept the record).
std::string ForgedRecord(const std::string& hash16, double throughput,
                         const std::string& transcript) {
  std::string prefix =
      "clof-cell-cache v" + std::to_string(kCellSchemaVersion) + " " + hash16;
  prefix += " " + HexDouble(throughput);
  for (int i = 0; i < 5; ++i) {
    prefix += " " + HexDouble(0.0);
  }
  prefix += " " + std::to_string(transcript.size());
  char sum[17];
  std::snprintf(sum, sizeof(sum), "%016llx",
                static_cast<unsigned long long>(Fnv1a(prefix)));
  return prefix + " " + sum + "\n" + transcript;
}

void ExpectHit(ResultCache& cache, const Fingerprint& fp, const CellResult& want) {
  auto hit = cache.Lookup(fp);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, want);
}

TEST(ResultCacheTest, CorruptedEntryDegradesToMissAndRecovers) {
  std::string dir = CacheDir("corrupt");
  ResultCache cache(dir);
  Fingerprint fp = TestFp();
  cache.Store(fp, CellResult{2.0, 0.5, 1.0});
  ASSERT_TRUE(cache.Lookup(fp).has_value());

  // Flip a transcript byte of the record: the pread re-verification misses, and so does
  // a fresh instance, whose scan rejects the record's checksum.
  const std::string log = LogPath(dir);
  std::string bytes = ReadFile(log);
  bytes[bytes.size() - 2] ^= 0x20;
  WriteFile(log, bytes);
  EXPECT_FALSE(cache.Lookup(fp).has_value());
  EXPECT_FALSE(ResultCache(dir).Lookup(fp).has_value());

  // A store appends a record that supersedes the damaged one, and the cache recovers.
  CellResult fresh{3.0, 0.25, 0.5};
  cache.Store(fp, fresh);
  ExpectHit(cache, fp, fresh);
  ResultCache reopened(dir);
  ExpectHit(reopened, fp, fresh);

  // Truncate the log mid-record (a partial write): both instances miss again...
  bytes = ReadFile(log);
  WriteFile(log, bytes.substr(0, bytes.size() - 5));
  EXPECT_FALSE(cache.Lookup(fp).has_value());
  EXPECT_FALSE(ResultCache(dir).Lookup(fp).has_value());

  // ... until the next store, appended behind the torn bytes.
  cache.Store(fp, fresh);
  ExpectHit(cache, fp, fresh);
  ExpectHit(reopened, fp, fresh);
}

TEST(ResultCacheTest, TranscriptMismatchUnderSameAddressMisses) {
  // A well-formed record that carries fp's hash over another fingerprint's transcript
  // must never answer for fp. (Its transcript does not hash to its address, so a scan
  // drops it; a true FNV collision would pass that check and fail Lookup's byte-for-byte
  // compare, which CorruptedEntryDegradesToMissAndRecovers exercises.)
  std::string dir = CacheDir("collision");
  ResultCache cache(dir);
  Fingerprint fp = TestFp(0);
  Fingerprint other = TestFp(1);
  ASSERT_EQ(fp.text().size(), other.text().size());  // only the bytes differ
  cache.Store(other, CellResult{1.0, 0.0, 0.0});
  WriteFile(LogPath(dir), ForgedRecord(fp.HashHex(), 9.0, other.text()), std::ios::app);
  EXPECT_FALSE(cache.Lookup(fp).has_value());
  EXPECT_FALSE(ResultCache(dir).Lookup(fp).has_value());

  // Control: the same forgery over fp's own transcript is served, so the misses above
  // came from the transcript check, not from a malformed record.
  WriteFile(LogPath(dir), ForgedRecord(fp.HashHex(), 9.0, fp.text()), std::ios::app);
  ExpectHit(cache, fp, CellResult{9.0, 0.0, 0.0});
}

TEST(ResultCacheTest, OkRecordBytesMatchCapture) {
  // A successful cell's record is what every existing cache directory holds: its bytes,
  // captured at 0708e98, must not change, and a log holding exactly them must be served.
  const std::string captured =
      "clof-cell-cache v2 5890a8514bef1498 0x1.8p+0 0x1.8p-1 0x1.22p+4 0x1.b84p+9 "
      "0x1p+10 0x1p+1 43 54cf31738bbf1f00\n"
      "lock=mcs-tkt\nthreads=16\nduration_ms=0x1p-1\n";
  Fingerprint fp;
  fp.Add("lock", "mcs-tkt");
  fp.Add("threads", 16);
  fp.Add("duration_ms", 0.5);
  const CellResult value{1.5, 0.75, 18.125, 880.5, 1024.0, 2.0};
  const std::string written = CacheDir("ok-record-written");
  ResultCache(written).Store(fp, value);
  EXPECT_EQ(ReadFile(LogPath(written)), captured);

  const std::string served = CacheDir("ok-record-served");
  std::filesystem::create_directories(served);
  WriteFile(LogPath(served), captured);
  ResultCache cache(served);
  ExpectHit(cache, fp, value);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(ResultCacheTest, FailedCellRecordIsAMiss) {
  // The cache answers with successful outcomes only: a failed cell recorded in its log
  // (through the journal's side of the format) reads as absent.
  const std::string dir = CacheDir("failed-record");
  std::filesystem::create_directories(dir);
  Fingerprint fp = TestFp();
  {
    CellLog log(LogPath(dir));
    CellOutcome failed;
    failed.failure.kind = "deadlock";
    failed.failure.message = "all threads parked";
    ASSERT_TRUE(log.Store(fp, failed));
    EXPECT_EQ(log.Lookup(fp), failed);
  }
  ResultCache cache(dir);
  EXPECT_FALSE(cache.Lookup(fp).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(ResultCacheTest, PersistsAcrossInstances) {
  std::string dir = CacheDir("persist");
  Fingerprint fp = TestFp();
  CellResult value{7.0, 0.125, 2.0};
  {
    ResultCache writer(dir);
    writer.Store(fp, value);
  }
  ResultCache reader(dir);
  auto hit = reader.Lookup(fp);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, value);
}

TEST(ResultCacheTest, TornTailIsIgnoredAndLaterAppendsAreServed) {
  // A writer killed mid-record leaves a torn tail. Opening the cache ignores it, and a
  // record a new instance appends behind it is served — by that instance and the next.
  std::string dir = CacheDir("torn");
  Fingerprint kept = TestFp(0), torn = TestFp(1), late = TestFp(2);
  CellResult kept_value{4.0, 0.5, 0.25}, late_value{6.0, 0.0, 1.0};
  {
    ResultCache writer(dir);
    writer.Store(kept, kept_value);
    writer.Store(torn, CellResult{5.0, 0.0, 0.0});
  }
  const std::string bytes = ReadFile(LogPath(dir));
  WriteFile(LogPath(dir), bytes.substr(0, bytes.size() - 4));  // cut mid-transcript

  ResultCache reopened(dir);
  ExpectHit(reopened, kept, kept_value);
  EXPECT_FALSE(reopened.Lookup(torn).has_value());
  reopened.Store(late, late_value);
  ExpectHit(reopened, late, late_value);

  ResultCache next(dir);
  ExpectHit(next, kept, kept_value);
  ExpectHit(next, late, late_value);
  EXPECT_FALSE(next.Lookup(torn).has_value());
}

TEST(ResultCacheTest, TwoInstancesOpenedEmptySeeEachOthersStores) {
  // Both open the directory before either stores: each store must reach the other
  // through its index catch-up, as it would for two processes.
  std::string dir = CacheDir("shared");
  ResultCache a(dir);
  ResultCache b(dir);
  CellResult from_a{1.5, 0.0, 0.0}, from_b{2.5, 0.0, 0.0};
  a.Store(TestFp(0), from_a);
  ExpectHit(b, TestFp(0), from_a);
  b.Store(TestFp(1), from_b);
  ExpectHit(a, TestFp(1), from_b);
  ExpectHit(b, TestFp(1), from_b);
  EXPECT_EQ(a.misses() + b.misses(), 0u);
}

TEST(ResultCacheTest, OlderPerCellFilesReadAsCold) {
  // The one-file-per-cell layout (`<hash>.cell`, `*.tmp.*`) is neither read nor swept.
  std::string dir = CacheDir("older-layout");
  std::filesystem::create_directories(dir);
  Fingerprint fp = TestFp();
  const std::string cell = dir + "/" + fp.HashHex() + ".cell";
  const std::string tmp = cell + ".tmp.140235";
  WriteFile(cell, ForgedRecord(fp.HashHex(), 1.0, fp.text()));
  WriteFile(tmp, "half-written");
  ResultCache cache(dir);
  EXPECT_FALSE(cache.Lookup(fp).has_value());
  EXPECT_TRUE(std::filesystem::exists(cell));
  EXPECT_TRUE(std::filesystem::exists(tmp));
}

TEST(ResultCacheTest, LogsLargerThanOneReadChunkResynchronise) {
  // The open-time scan reads in bounded chunks. A damaged record whose transcript is
  // longer than a chunk makes the resync search cross chunk boundaries; every record
  // behind it must still be found.
  std::string dir = CacheDir("chunks");
  auto big = [](int i, size_t bytes) {
    Fingerprint fp;
    fp.Add("cell", i);
    fp.Add("payload", std::string(bytes, static_cast<char>('a' + i % 26)));
    return fp;
  };
  constexpr int kRecords = 120;
  {
    ResultCache writer(dir);
    for (int i = 0; i < kRecords; ++i) {
      writer.Store(big(i, i == 40 ? 150'000 : 2'000), CellResult{1.0 * i, 0.0, 0.0});
    }
  }
  std::string bytes = ReadFile(LogPath(dir));
  ASSERT_GT(bytes.size(), size_t{4} << 16);
  const std::string magic = "clof-cell-cache v";
  size_t record40 = 0;
  for (int i = 0; i < 40; ++i) {
    record40 = bytes.find(magic, record40 + 1);
  }
  ASSERT_NE(record40, std::string::npos);
  bytes[record40] = 'X';  // damage record 40's header
  WriteFile(LogPath(dir), bytes);

  ResultCache reopened(dir);
  for (int i = 0; i < kRecords; ++i) {
    auto hit = reopened.Lookup(big(i, i == 40 ? 150'000 : 2'000));
    if (i == 40) {
      EXPECT_FALSE(hit.has_value());
    } else {
      ASSERT_TRUE(hit.has_value()) << "record " << i;
      EXPECT_EQ(hit->throughput_per_us, 1.0 * i);
    }
  }
}

TEST(ResultCacheTest, TruncatedOrBitFlippedLogsServeExactValuesOrMiss) {
  // Adversarial input for the log parser: a 3-record log cut at every byte offset and
  // hit by a fixed set of seeded single-byte flips. Every Lookup returns the stored
  // value exactly or misses; a record untouched by the damage is always served.
  const std::string source = CacheDir("adversarial-source");
  std::vector<Fingerprint> fps(3);
  const std::vector<CellResult> values = {{0.1 + 0.2, 1.0 / 3.0, -0.0, 5e-324, 1e308, 3.0},
                                          {12.5, 0.75, 1.0625, 0.0, 0.0, 0.0},
                                          {-7.25, 0.5, 2.0, 880.5, 1e-300, 1.0}};
  {
    ResultCache writer(source);
    for (int i = 0; i < 3; ++i) {
      fps[i].Add("cell", i);
      fps[i].Add("payload", std::string(30 + 25 * i, static_cast<char>('k' + i)));
      writer.Store(fps[i], values[i]);
    }
  }
  const std::string log = ReadFile(LogPath(source));
  std::vector<size_t> starts = {0};
  for (int i = 1; i < 3; ++i) {
    starts.push_back(log.find("clof-cell-cache v", starts.back() + 1));
  }
  const std::vector<size_t> ends = {starts[1], starts[2], log.size()};

  const std::string probe = CacheDir("adversarial-probe");
  std::filesystem::create_directories(probe);
  auto check = [&](const std::string& bytes, const std::string& what, auto untouched) {
    WriteFile(LogPath(probe), bytes);
    ResultCache cache(probe);
    for (int i = 0; i < 3; ++i) {
      auto hit = cache.Lookup(fps[i]);
      if (hit.has_value()) {
        EXPECT_EQ(*hit, values[i]) << what << ": record " << i;
      } else {
        EXPECT_FALSE(untouched(i)) << what << ": lost undamaged record " << i;
      }
    }
  };
  for (size_t cut = 0; cut <= log.size(); ++cut) {
    check(log.substr(0, cut), "cut at " + std::to_string(cut),
          [&](int i) { return ends[i] <= cut; });
  }
  uint64_t state = 0x5eed5eed5eedULL;  // splitmix64: a fixed, seeded flip set
  auto next = [&state] {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  for (int flip = 0; flip < 400; ++flip) {
    const size_t at = next() % log.size();
    const auto mask = static_cast<char>(1 + next() % 255);
    std::string bytes = log;
    bytes[at] = static_cast<char>(bytes[at] ^ mask);
    check(bytes, "flip at " + std::to_string(at),
          [&](int i) { return at < starts[i] || at >= ends[i]; });
  }
}

TEST(HexDoubleCodecTest, RoundTripsExactlyAndRejectsGarbage) {
  // The shared cache/journal codec (result_cache.h): exact round-trip, strict parse.
  for (double v : {0.0, -0.0, 0.1 + 0.2, 1.0 / 3.0, 1e308, 5e-324}) {
    double parsed = 42.0;
    ASSERT_TRUE(ParseHexDouble(HexDouble(v), &parsed));
    EXPECT_EQ(parsed, v);
  }
  double out = 0.0;
  EXPECT_FALSE(ParseHexDouble("", &out));
  EXPECT_FALSE(ParseHexDouble("garbage", &out));
  EXPECT_FALSE(ParseHexDouble("0x1.8p+1trailing", &out));
}

TEST(ResultCacheTest, UnusableDirectoryThrows) {
  // A path whose parent is a regular file cannot be created.
  std::string file = CacheDir("blocker-file");
  { std::ofstream(file) << "x"; }
  EXPECT_THROW(ResultCache(file + "/sub"), std::runtime_error);
}

TEST(ResultCacheTest, ConcurrentLookupsAndStoresAreSafe) {
  ResultCache cache(CacheDir("concurrent"));
  Executor executor(4);
  constexpr size_t kCells = 64;
  executor.ParallelFor(kCells, [&](size_t i) {
    Fingerprint fp = TestFp(static_cast<int>(i % 8));
    CellResult value{static_cast<double>(i % 8), 0.0, 0.0};
    if (!cache.Lookup(fp).has_value()) {
      cache.Store(fp, value);
    }
    auto hit = cache.Lookup(fp);
    if (hit.has_value()) {
      EXPECT_EQ(hit->throughput_per_us, static_cast<double>(i % 8));
    }
  });
  EXPECT_EQ(cache.hits() + cache.misses(), 2 * kCells);
}

}  // namespace
}  // namespace clof::exec

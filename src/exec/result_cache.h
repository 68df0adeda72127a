// The cell log: the one on-disk format for sweep-cell outcomes, and its two uses.
//
// Every cell of the scripted benchmark (one lock at one thread count, median of R runs)
// is deterministic: its outcome is a pure function of its CellFingerprint. A CellLog
// keeps outcomes in one append-only file under the fingerprint's hash, so any change to
// any input field (see src/exec/fingerprint.h) naturally misses. It has two uses:
//   * ResultCache, `<dir>/cells.log` (`--cache=DIR`): successful cells only, shared by
//     every sweep that names the directory, so re-running a sweep or regenerating a
//     figure over an unchanged configuration skips the simulation entirely;
//   * SweepJournal, the file a run names (`--journal=FILE`): successes and failures,
//     so an interrupted sweep resumes where it was killed, its quarantine report
//     included, without re-running a cell that deadlocked for minutes.
//
// Layout. A Store is a single O_APPEND write() of one self-delimiting record, in one
// of two shapes:
//   clof-cell-cache v<schema> <hash16> <6 hex-float payload values> <len> <sum16>\n
//   <len bytes of fingerprint transcript>
// for a successful cell, and for a failed one
//   clof-cell-cache v<schema> <hash16> fail <kind len> <message len> <diagnostic len>
//   <len> <sum16>\n<len bytes of transcript><kind><message><diagnostic>
// (one header line), whose failure bytes follow the transcript verbatim, so nothing is
// escaped. sum16 is FNV-1a 64 over the header text before it followed by the failure
// bytes (none in a successful cell's record), and the transcript must hash to hash16
// (the fingerprint's FNV-1a). Lookup answers from an in-memory index (hash -> outcome,
// transcript offset and length) built by scanning the log in bounded chunks at open,
// and re-verifies a hit against the full transcript, byte for byte, with one pread —
// so hash collisions, torn writes and hand-edited bytes all degrade to a miss, never
// to a wrong answer. A record that fails to parse or either check is skipped by
// resynchronising at the next record header; a later record for the same hash
// supersedes an earlier one.
//
// Sharing: on an index miss, Lookup first indexes whatever was appended since its last
// scan (detected with fstat), so several instances or processes on one file see each
// other's stores. Appends rely on O_APPEND atomicity (a local filesystem, not NFS).
// There is no fsync: a killed writer loses at most its in-flight record, and the
// records appended after its torn bytes are served.
//
// Thread-safety: Lookup/Store may be called concurrently from executor workers; one
// mutex guards the index and the append, a hit's transcript read runs outside it, and
// the counters are atomic.
#ifndef CLOF_SRC_EXEC_RESULT_CACHE_H_
#define CLOF_SRC_EXEC_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/exec/fingerprint.h"

namespace clof::exec {

// The payload of one successful sweep cell — exactly the values RunScriptedBenchmark
// appends to a LockCurve (throughput plus the observability and robustness sidecars).
struct CellResult {
  double throughput_per_us = 0.0;
  double local_handover_rate = 0.0;
  double transfers_per_op = 0.0;
  // Robustness sidecars (docs/FAULT_INJECTION.md). starved_threads is an integer
  // count stored as a double so the whole payload shares one exact hex-float codec.
  double acquire_p99_ns = 0.0;
  double acquire_p999_ns = 0.0;
  double starved_threads = 0.0;

  bool operator==(const CellResult& other) const = default;
};

// One quarantined sweep cell: which cell, how it died, and the engine's diagnostic
// dump when the failure came from the simulator (deadlock or watchdog trip). A cell log
// keeps kind, message and diagnostic; the fingerprint already names the cell, so a
// served failure comes back with lock_name and num_threads unset, and the sweep that
// reports it fills them in.
struct CellFailure {
  std::string lock_name;
  int num_threads = 0;
  std::string kind;        // "deadlock" | "watchdog" | "exception"
  std::string message;     // one line: the error's summary
  std::string diagnostic;  // multi-line EngineDiagnostic dump; empty for exceptions

  bool operator==(const CellFailure& other) const = default;
};

// The outcome of evaluating one cell: a payload or a failure.
struct CellOutcome {
  bool ok = false;
  CellResult result;    // valid when ok
  CellFailure failure;  // valid when !ok

  bool operator==(const CellOutcome& other) const = default;
};

// Exact round-trip text codec for the payload doubles (%a hex floats), so the log
// reproduces results bit-for-bit.
std::string HexDouble(double value);
bool ParseHexDouble(const std::string& text, double* out);

class CellLog {
 public:
  // Opens `path` for appending, creating it if missing, and indexes every intact
  // record. Throws std::runtime_error naming the path when it cannot be opened for
  // appending (a directory, or a file without write permission): a log that could only
  // be read would drop every later record without a word.
  explicit CellLog(std::string path);
  ~CellLog();
  CellLog(const CellLog&) = delete;
  CellLog& operator=(const CellLog&) = delete;

  const std::string& path() const { return path_; }
  size_t cells();  // distinct cells indexed so far

  // The outcome recorded for `fp`, or nullopt when it is absent, unreadable, corrupt,
  // or belongs to a different fingerprint.
  std::optional<CellOutcome> Lookup(const Fingerprint& fp);

  // Appends `outcome` under `fp`, superseding any earlier (possibly corrupt) record.
  // Returns false when the record could not be written: persistence is best-effort.
  bool Store(const Fingerprint& fp, const CellOutcome& outcome);

 private:
  struct IndexEntry {
    CellResult value;                            // a successful cell's payload
    std::unique_ptr<const CellFailure> failure;  // a failed cell's; null when ok
    uint64_t transcript_offset = 0;
    uint64_t transcript_bytes = 0;
  };

  // The indexed outcome for `fp` (whose hash is `hash`) if its transcript on disk
  // matches fp.text() exactly. With `catch_up`, first indexes the records appended
  // since the last scan, and misses outright when there are none.
  std::optional<CellOutcome> Verified(const Fingerprint& fp, uint64_t hash, bool catch_up);
  // Indexes the records appended since the last scan; false when the log has not
  // changed size. Caller holds mutex_.
  bool IndexNewRecords();

  std::string path_;
  int fd_ = -1;
  std::mutex mutex_;
  std::unordered_map<uint64_t, IndexEntry> index_;  // fingerprint hash -> record
  uint64_t resume_ = 0;        // log offset where the next scan starts
  int64_t scanned_size_ = 0;   // log size at the last scan
};

// The result cache: a cell log in `<dir>/cells.log` that holds successful cells.
class ResultCache {
 public:
  // Creates `dir` (and parents) if missing and opens its log; throws
  // std::runtime_error on failure. A directory written in the older
  // one-file-per-cell layout (`*.cell`) is neither read nor cleaned: it reads as cold.
  explicit ResultCache(std::string dir);

  const std::string& dir() const { return dir_; }

  // Returns the cached value for `fp`, or nullopt (counted as a miss) when no
  // successful outcome is recorded for it.
  std::optional<CellResult> Lookup(const Fingerprint& fp);

  // Appends `value` under `fp`. Failures to write are swallowed: the cache is an
  // accelerator, never a correctness dependency — a run that cannot persist still
  // returns correct results.
  void Store(const Fingerprint& fp, const CellResult& value);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t stores() const { return stores_.load(std::memory_order_relaxed); }

 private:
  std::string dir_;
  CellLog log_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> stores_{0};
};

// The sweep journal: a cell log on the file the user names (`clof_bench
// --journal=FILE`) that records every finished cell, failures included. A re-run with
// the same journal serves the recorded cells without simulating and recomputes only
// the missing ones; because every cell is a pure function of its fingerprint, the
// resumed sweep's output is byte-identical to an uninterrupted run
// (tests/journal_test.cc compares them, sidecars and quarantine report included).
class SweepJournal {
 public:
  explicit SweepJournal(std::string path) : log_(std::move(path)), loaded_(log_.cells()) {}

  const std::string& path() const { return log_.path(); }
  size_t loaded() const { return loaded_; }  // cells recorded before this run
  uint64_t served() const { return served_.load(std::memory_order_relaxed); }

  // The recorded outcome for `fp`, or nullopt when the cell has not finished before.
  std::optional<CellOutcome> Lookup(const Fingerprint& fp) {
    std::optional<CellOutcome> outcome = log_.Lookup(fp);
    if (outcome.has_value()) {
      served_.fetch_add(1, std::memory_order_relaxed);
    }
    return outcome;
  }

  // Appends the outcome of a finished cell as one record (best-effort).
  void Record(const Fingerprint& fp, const CellOutcome& outcome) { log_.Store(fp, outcome); }

 private:
  CellLog log_;
  const size_t loaded_;
  std::atomic<uint64_t> served_{0};
};

}  // namespace clof::exec

#endif  // CLOF_SRC_EXEC_RESULT_CACHE_H_

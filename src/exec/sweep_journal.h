// Crash-safe resumable journal for sweep cells, and the structured per-cell failure
// record the resilient sweep produces (docs/PARALLEL_SWEEP.md).
//
// A sweep with a journal attached appends one record per finished cell — success
// payload or CellFailure — keyed by the cell's fingerprint hash. Each record is one
// write() to a descriptor opened once with O_APPEND (AppendFile, shared with the
// result cache), so killing the sweep at any instant loses at most the in-flight
// records and leaves at worst one torn line at the end. Opening a journal loads its
// valid prefix and cuts whatever follows it — a torn or corrupt tail, or a whole
// foreign file — once, so the resumed run's appends are never hidden behind it. A
// re-run with the same journal serves the recorded cells without simulating and
// recomputes only the missing ones; because every cell is a pure function of its
// fingerprint, the resumed sweep's final output is byte-identical to an uninterrupted
// run (tests/journal_test.cc memcmps it, sidecars included). No fsync: the journal
// survives a killed process, not a lost kernel.
//
// Difference from ResultCache: the cache is content-addressed, shared and
// success-only; the journal belongs to one logical run, lives in one file the user
// names (`clof_bench --journal=FILE`), and also records *failures* so a resumed sweep
// reproduces its quarantine report instead of re-running a cell that deadlocked for
// ten minutes. Journal records are trusted by hash (no transcript re-verification):
// the file is a private run artifact, not a shared cache.
//
// On-disk format (text, one record per line):
//   clof-sweep-journal v1
//   <len> ok <hash16> <lock> <threads> <6 hex-float payload values>
//   <len> fail <hash16> <lock> <threads> <kind> <escaped-message>\t<escaped-diagnostic>
// `len` is the exact byte count of the rest of the line (after the single space
// following it, up to but excluding the newline). A record whose length or newline is
// missing — a torn final append — is discarded along with everything after it.
#ifndef CLOF_SRC_EXEC_SWEEP_JOURNAL_H_
#define CLOF_SRC_EXEC_SWEEP_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/exec/fingerprint.h"
#include "src/exec/result_cache.h"

namespace clof::exec {

// One quarantined sweep cell: which cell, how it died, and the engine's diagnostic
// dump when the failure came from the simulator (deadlock or watchdog trip).
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

class SweepJournal {
 public:
  // Opens `path`, creating it (with a header) if absent, and loads every intact
  // record; a torn or corrupt tail is cut from the file (those cells simply re-run).
  // Throws std::runtime_error when the path can be neither created nor read.
  explicit SweepJournal(std::string path);

  const std::string& path() const { return path_; }
  size_t loaded() const { return loaded_; }  // intact records recovered at open
  uint64_t served() const { return served_.load(std::memory_order_relaxed); }

  // Returns the recorded outcome for `fp`, or nullopt when the cell has not finished
  // in a previous run. `lock_name`/`num_threads` guard against a journal from a
  // different sweep: a hash hit whose cell identity disagrees is ignored.
  std::optional<CellOutcome> Lookup(const Fingerprint& fp, const std::string& lock_name,
                                    int num_threads);

  // Appends the outcome of a finished cell as one record. Safe to call from
  // concurrent executor workers.
  void Record(const Fingerprint& fp, const std::string& lock_name, int num_threads,
              const CellOutcome& outcome);

 private:
  struct Entry {
    std::string lock_name;
    int num_threads = 0;
    CellOutcome outcome;
  };

  std::mutex mutex_;
  std::string path_;
  AppendFile file_;
  std::unordered_map<std::string, Entry> entries_;  // hash16 -> outcome
  size_t loaded_ = 0;
  std::atomic<uint64_t> served_{0};
};

}  // namespace clof::exec

#endif  // CLOF_SRC_EXEC_SWEEP_JOURNAL_H_

// Content-addressed on-disk cache of sweep-cell results.
//
// Every cell of the scripted benchmark (one lock at one thread count, median of R runs)
// is deterministic: its result is a pure function of its CellFingerprint. The cache
// stores that function's value under the fingerprint's hash, so re-running a sweep or
// regenerating a figure over an unchanged configuration skips the simulation entirely
// and any change to any input field (see src/exec/fingerprint.h) naturally misses.
//
// Layout: one append-only log per directory, `<dir>/cells.log`. A Store is a single
// O_APPEND write() of one self-delimiting record:
//   clof-cell-cache v<schema> <hash16> <6 hex-float payload values> <len> <sum16>\n
//   <len bytes of fingerprint transcript>
// where sum16 is FNV-1a 64 over the header text before it, and the transcript must
// hash to hash16 (the fingerprint's FNV-1a). Lookup answers from an in-memory index
// (hash -> payload, transcript offset and length) built by scanning the log in bounded
// chunks at open, and re-verifies a hit against the full transcript, byte for byte,
// with one pread — so hash collisions, torn writes and hand-edited bytes all degrade
// to a miss, never to a wrong answer. A record that fails to parse or either check is
// skipped by resynchronising at the next record header; a later record for the same
// hash supersedes an earlier one.
//
// Sharing: on an index miss, Lookup first indexes whatever was appended since its last
// scan (detected with fstat), so several instances or processes on one directory see
// each other's stores. Appends rely on O_APPEND atomicity (a local filesystem, not
// NFS). There is no fsync: a killed writer loses at most its in-flight record.
//
// Thread-safety: Lookup/Store may be called concurrently from executor workers; one
// mutex guards the index and the append, a hit's transcript read runs outside it, and
// the counters are atomic.
#ifndef CLOF_SRC_EXEC_RESULT_CACHE_H_
#define CLOF_SRC_EXEC_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/exec/fingerprint.h"

namespace clof::exec {

// The cached payload of one sweep cell — exactly the values RunScriptedBenchmark
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

// Exact round-trip text codec for the payload doubles (%a hex floats), shared by the
// cache records and the sweep journal (src/exec/sweep_journal.cc) so both artifacts
// reproduce results bit-for-bit.
std::string HexDouble(double value);
bool ParseHexDouble(const std::string& text, double* out);

// One file descriptor opened once with O_APPEND (the file is created if missing) and
// closed on destruction: the write side of the cache log and the sweep journal. Falls
// back to read-only when the file cannot be opened for writing, in which case every
// Append fails.
class AppendFile {
 public:
  // Throws std::runtime_error when the file can be neither created nor read.
  explicit AppendFile(const std::string& path);
  ~AppendFile();
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;

  // One write() of `bytes` at the end of the file. Returns the file offset just past
  // them, or -1 on an error or a short write (which leaves a torn tail that both readers
  // skip).
  int64_t Append(std::string_view bytes) const;
  // Current size from fstat, or -1.
  int64_t Size() const;
  // Reads up to `n` bytes at `offset` into `out` (resized to the bytes actually read).
  void ReadAt(uint64_t offset, size_t n, std::string* out) const;
  bool Truncate(uint64_t size) const;

 private:
  int fd_ = -1;
};

class ResultCache {
 public:
  // Creates `dir` (and parents) if missing, opens its log and indexes every intact
  // record; throws std::runtime_error on failure. A directory written in the older
  // one-file-per-cell layout (`*.cell`) is neither read nor cleaned: it reads as cold.
  explicit ResultCache(std::string dir);

  const std::string& dir() const { return dir_; }

  // Returns the cached value for `fp`, or nullopt (counted as a miss) when the entry
  // is absent, unreadable, corrupt, or belongs to a different fingerprint.
  std::optional<CellResult> Lookup(const Fingerprint& fp);

  // Appends `value` under `fp`, superseding any earlier (possibly corrupt) record.
  // Failures to write are swallowed: the cache is an accelerator, never a correctness
  // dependency — a run that cannot persist still returns correct results.
  void Store(const Fingerprint& fp, const CellResult& value);

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t stores() const { return stores_.load(std::memory_order_relaxed); }

 private:
  struct IndexEntry {
    CellResult value;
    uint64_t transcript_offset = 0;
    uint64_t transcript_bytes = 0;
  };

  // The indexed value for `fp` (whose hash is `hash`) if its transcript on disk matches
  // fp.text() exactly. With `catch_up`, first indexes the records appended since the
  // last scan, and misses outright when there are none.
  std::optional<CellResult> Verified(const Fingerprint& fp, uint64_t hash, bool catch_up);
  // Indexes the records appended since the last scan; false when the log has not
  // changed size. Caller holds mutex_.
  bool IndexNewRecords();

  std::string dir_;
  AppendFile log_;
  std::mutex mutex_;
  std::unordered_map<uint64_t, IndexEntry> index_;  // fingerprint hash -> record
  uint64_t resume_ = 0;        // log offset where the next scan starts
  int64_t scanned_size_ = 0;   // log size at the last scan
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> stores_{0};
};

}  // namespace clof::exec

#endif  // CLOF_SRC_EXEC_RESULT_CACHE_H_

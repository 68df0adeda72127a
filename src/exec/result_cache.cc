#include "src/exec/result_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace clof::exec {
namespace {

constexpr size_t kChunkBytes = size_t{64} << 10;       // scan read size
constexpr size_t kMaxHeaderBytes = 512;                 // a header is ~220 bytes
constexpr uint64_t kMaxBodyBytes = uint64_t{4} << 20;  // transcript plus failure bytes

// "clof-cell-cache v<schema> ": every record starts with it, and a scan that meets a
// damaged record resynchronises at its next occurrence.
const std::string& Magic() {
  static const std::string magic =
      "clof-cell-cache v" + std::to_string(kCellSchemaVersion) + " ";
  return magic;
}

// Parses all of `text` as an unsigned integer in `base`.
bool ParseUnsigned(std::string_view text, int base, uint64_t* out) {
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, *out, base);
  return error == std::errc() && end == last;
}

// Current size of the file from fstat, or -1.
int64_t FileSize(int fd) {
  struct stat st;
  return ::fstat(fd, &st) == 0 ? static_cast<int64_t>(st.st_size) : -1;
}

// Reads up to `n` bytes at `offset` into `out` (resized to the bytes actually read).
void ReadAt(int fd, uint64_t offset, size_t n, std::string* out) {
  out->resize(n);
  size_t done = 0;
  while (done < n) {
    const ssize_t got =
        ::pread(fd, out->data() + done, n - done, static_cast<off_t>(offset + done));
    if (got <= 0) {
      break;
    }
    done += static_cast<size_t>(got);
  }
  out->resize(done);
}

// Sequential reads of the log through one bounded buffer: View(offset, n) returns the
// bytes [offset, offset + n), fewer when the log ends first, reading a new chunk only
// when they are not already resident.
class LogWindow {
 public:
  LogWindow(int fd, uint64_t size) : fd_(fd), size_(size) {}

  std::string_view View(uint64_t offset, size_t n) {
    const uint64_t left = offset < size_ ? size_ - offset : 0;
    n = static_cast<size_t>(std::min<uint64_t>(n, left));
    if (offset < base_ || offset + n > base_ + buffer_.size()) {
      const auto chunk = static_cast<size_t>(std::min<uint64_t>(kChunkBytes, left));
      ReadAt(fd_, offset, std::max(n, chunk), &buffer_);
      base_ = offset;
    }
    return std::string_view(buffer_).substr(offset - base_, std::min(n, buffer_.size()));
  }

  // Offset of the next record header at or after `from`, or the log size if none.
  uint64_t FindMagic(uint64_t from) {
    const std::string& magic = Magic();
    while (from + magic.size() <= size_) {
      const std::string_view bytes = View(from, kChunkBytes);
      const size_t at = bytes.find(magic);
      if (at != std::string_view::npos) {
        return from + at;
      }
      if (bytes.size() < magic.size()) {
        break;  // short read: the log shrank under us
      }
      from += bytes.size() - magic.size() + 1;  // keep a header split across chunks
    }
    return size_;
  }

 private:
  const int fd_;
  const uint64_t size_;
  uint64_t base_ = 0;
  std::string buffer_;
};

struct Record {
  uint64_t hash = 0;
  CellResult value;
  std::unique_ptr<const CellFailure> failure;  // null for a successful cell
  uint64_t transcript_offset = 0;
  uint64_t transcript_bytes = 0;
  uint64_t end = 0;  // one past the record's last byte
};

// Parses the record that starts at `offset`; false when it is torn, malformed or fails
// either check (checksum, transcript hash).
bool ParseRecord(LogWindow& window, uint64_t offset, Record* record) {
  const std::string_view head = window.View(offset, kMaxHeaderBytes);
  const size_t eol = head.find('\n');
  if (eol == std::string_view::npos || !head.starts_with(Magic())) {
    return false;
  }
  // Fields after the magic, single spaces: the hash, the outcome (six payload values,
  // or `fail` and three lengths), the transcript length, the checksum.
  std::vector<std::string_view> fields;
  for (size_t pos = Magic().size(); pos <= eol;) {
    const size_t end = std::min(head.find(' ', pos), eol);
    fields.push_back(head.substr(pos, end - pos));
    pos = end + 1;
  }
  const bool failed = fields.size() == 7 && fields[1] == "fail";
  uint64_t length = 0;
  uint64_t sum = 0;
  if ((fields.size() != 9 && !failed) || !ParseUnsigned(fields[0], 16, &record->hash) ||
      !ParseUnsigned(fields[fields.size() - 2], 10, &length) || length > kMaxBodyBytes ||
      !ParseUnsigned(fields.back(), 16, &sum)) {
    return false;
  }
  uint64_t parts[3] = {0, 0, 0};  // failure bytes: kind, message, diagnostic
  if (failed) {
    for (int i = 0; i < 3; ++i) {
      if (!ParseUnsigned(fields[2 + i], 10, &parts[i]) || parts[i] > kMaxBodyBytes) {
        return false;
      }
    }
  } else {
    double* values[] = {&record->value.throughput_per_us, &record->value.local_handover_rate,
                        &record->value.transfers_per_op, &record->value.acquire_p99_ns,
                        &record->value.acquire_p999_ns, &record->value.starved_threads};
    for (int i = 0; i < 6; ++i) {
      if (!ParseHexDouble(std::string(fields[1 + i]), values[i])) {
        return false;
      }
    }
  }
  const uint64_t tail = parts[0] + parts[1] + parts[2];
  if (length + tail > kMaxBodyBytes) {
    return false;
  }
  // The checksum runs over the header text, then the failure bytes; the transcript
  // must hash to the record's address. (The body view may need a fresh read, which
  // invalidates `head`.)
  const uint64_t head_sum = Fnv1a(head.substr(0, eol - fields.back().size() - 1));
  const std::string_view body = window.View(offset + eol + 1, length + tail);
  if (body.size() != length + tail || Fnv1a(body.substr(length), head_sum) != sum ||
      Fnv1a(body.substr(0, length)) != record->hash) {
    return false;
  }
  if (failed) {
    auto failure = std::make_unique<CellFailure>();
    std::string* texts[] = {&failure->kind, &failure->message, &failure->diagnostic};
    uint64_t at = length;
    for (int i = 0; i < 3; ++i) {
      texts[i]->assign(body.substr(at, parts[i]));
      at += parts[i];
    }
    record->failure = std::move(failure);
  }
  record->transcript_offset = offset + eol + 1;
  record->transcript_bytes = length;
  record->end = record->transcript_offset + length + tail;
  return true;
}

std::string FormatRecord(const Fingerprint& fp, uint64_t hash, const CellOutcome& outcome) {
  std::string record = Magic() + Hex16(hash);
  std::string tail;  // the failure bytes, after the transcript
  if (outcome.ok) {
    const CellResult& value = outcome.result;
    for (double v : {value.throughput_per_us, value.local_handover_rate,
                     value.transfers_per_op, value.acquire_p99_ns, value.acquire_p999_ns,
                     value.starved_threads}) {
      record += ' ' + HexDouble(v);
    }
  } else {
    record += " fail";
    const CellFailure& failure = outcome.failure;
    for (const std::string* text : {&failure.kind, &failure.message, &failure.diagnostic}) {
      record += ' ' + std::to_string(text->size());
      tail += *text;
    }
  }
  record += ' ' + std::to_string(fp.text().size());
  record += ' ' + Hex16(Fnv1a(tail, Fnv1a(record))) + '\n';
  record += fp.text();
  record += tail;
  return record;
}

std::string LogPathIn(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec || !std::filesystem::is_directory(dir)) {
    throw std::runtime_error("ResultCache: cannot create directory " + dir);
  }
  return dir + "/cells.log";
}

}  // namespace

// Exact hex-float round-trip companions to Fingerprint::Add(double).
std::string HexDouble(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

bool ParseHexDouble(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) {
    return false;
  }
  *out = value;
  return true;
}

CellLog::CellLog(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  }
  if (fd_ < 0) {
    throw std::runtime_error("cannot open " + path_);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  IndexNewRecords();
}

CellLog::~CellLog() { ::close(fd_); }

size_t CellLog::cells() {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

bool CellLog::IndexNewRecords() {
  const int64_t size = FileSize(fd_);
  if (size < 0 || size == scanned_size_) {
    return false;
  }
  LogWindow window(fd_, static_cast<uint64_t>(size));
  // Appends only grow the log, and each starts with the magic. Anything else — a
  // shrink, or new bytes after a clean end that are not a record's start — means the
  // log was truncated or rewritten underneath us: index it afresh.
  const bool clean_end = resume_ == static_cast<uint64_t>(scanned_size_);
  if (size < scanned_size_ ||
      (clean_end && !Magic().starts_with(window.View(resume_, Magic().size())))) {
    index_.clear();
    resume_ = 0;
  }
  scanned_size_ = size;
  uint64_t offset = resume_;
  while (offset < static_cast<uint64_t>(size)) {
    Record record;
    if (ParseRecord(window, offset, &record)) {
      index_[record.hash] = {record.value, std::move(record.failure), record.transcript_offset,
                             record.transcript_bytes};
      offset = record.end;
      continue;
    }
    // Torn or damaged: resume at the next header. With none, stop here — the bytes may
    // be a record still being written, so the next scan looks at them again.
    const uint64_t next = window.FindMagic(offset + 1);
    if (next >= static_cast<uint64_t>(size)) {
      break;
    }
    offset = next;
  }
  resume_ = offset;
  return true;
}

std::optional<CellOutcome> CellLog::Verified(const Fingerprint& fp, uint64_t hash,
                                             bool catch_up) {
  CellOutcome outcome;
  uint64_t offset = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (catch_up && !IndexNewRecords()) {
      return std::nullopt;
    }
    auto it = index_.find(hash);
    if (it == index_.end() || it->second.transcript_bytes != fp.text().size()) {
      return std::nullopt;
    }
    const IndexEntry& entry = it->second;
    offset = entry.transcript_offset;
    outcome.ok = entry.failure == nullptr;
    if (outcome.ok) {
      outcome.result = entry.value;
    } else {
      outcome.failure = *entry.failure;
    }
  }
  // Outside the lock, so concurrent hits read in parallel. Byte-for-byte transcript
  // match: a hash collision, stale schema or damaged record is a miss, not a wrong
  // answer.
  std::string transcript;
  ReadAt(fd_, offset, fp.text().size(), &transcript);
  if (transcript != fp.text()) {
    return std::nullopt;
  }
  return outcome;
}

std::optional<CellOutcome> CellLog::Lookup(const Fingerprint& fp) {
  const uint64_t hash = fp.Hash();
  std::optional<CellOutcome> outcome = Verified(fp, hash, /*catch_up=*/false);
  if (!outcome.has_value()) {
    // Another instance or process may have stored it since the last scan.
    outcome = Verified(fp, hash, /*catch_up=*/true);
  }
  return outcome;
}

bool CellLog::Store(const Fingerprint& fp, const CellOutcome& outcome) {
  const uint64_t hash = fp.Hash();
  const std::string record = FormatRecord(fp, hash, outcome);
  const uint64_t header = record.find('\n') + 1;
  if (record.size() - header > kMaxBodyBytes) {
    return false;  // a scan would reject the record
  }
  std::lock_guard<std::mutex> lock(mutex_);
  // One write() at the end of the file; a short write leaves a torn tail that scans
  // skip.
  if (::write(fd_, record.data(), record.size()) != static_cast<ssize_t>(record.size())) {
    return false;
  }
  const int64_t end = ::lseek(fd_, 0, SEEK_CUR);  // O_APPEND left it just past our bytes
  // The record landed right where the last scan ended: index it now instead of reading
  // it back on the next miss. Like a scan, the index keeps a failure's kind, message
  // and diagnostic only.
  const int64_t start = end - static_cast<int64_t>(record.size());
  if (start == scanned_size_ && resume_ == static_cast<uint64_t>(scanned_size_)) {
    std::unique_ptr<const CellFailure> failure;
    if (!outcome.ok) {
      const CellFailure& f = outcome.failure;
      failure = std::make_unique<const CellFailure>(
          CellFailure{"", 0, f.kind, f.message, f.diagnostic});
    }
    index_[hash] = {outcome.result, std::move(failure), static_cast<uint64_t>(start) + header,
                    fp.text().size()};
    resume_ = static_cast<uint64_t>(end);
    scanned_size_ = end;
  }
  return true;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)), log_(LogPathIn(dir_)) {}

std::optional<CellResult> ResultCache::Lookup(const Fingerprint& fp) {
  const std::optional<CellOutcome> outcome = log_.Lookup(fp);
  const bool hit = outcome.has_value() && outcome->ok;
  (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return hit ? std::optional<CellResult>(outcome->result) : std::nullopt;
}

void ResultCache::Store(const Fingerprint& fp, const CellResult& value) {
  if (log_.Store(fp, CellOutcome{true, value, {}})) {
    stores_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace clof::exec

#include "src/exec/result_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <vector>

namespace clof::exec {
namespace {

constexpr size_t kChunkBytes = size_t{64} << 10;       // scan read size
constexpr size_t kMaxHeaderBytes = 512;                 // a header is ~220 bytes
constexpr uint64_t kMaxTranscriptBytes = uint64_t{4} << 20;

// "clof-cell-cache v<schema> ": every record starts with it, and a scan that meets a
// damaged record resynchronises at its next occurrence.
const std::string& Magic() {
  static const std::string magic =
      "clof-cell-cache v" + std::to_string(kCellSchemaVersion) + " ";
  return magic;
}

std::string Hex16(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

// Parses all of `text` as an unsigned integer in `base`.
bool ParseUnsigned(std::string_view text, int base, uint64_t* out) {
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, *out, base);
  return error == std::errc() && end == last;
}

// Sequential reads of the log through one bounded buffer: View(offset, n) returns the
// bytes [offset, offset + n), fewer when the log ends first, reading a new chunk only
// when they are not already resident.
class LogWindow {
 public:
  LogWindow(const AppendFile& file, uint64_t size) : file_(file), size_(size) {}

  std::string_view View(uint64_t offset, size_t n) {
    const uint64_t left = offset < size_ ? size_ - offset : 0;
    n = static_cast<size_t>(std::min<uint64_t>(n, left));
    if (offset < base_ || offset + n > base_ + buffer_.size()) {
      const auto chunk = static_cast<size_t>(std::min<uint64_t>(kChunkBytes, left));
      file_.ReadAt(offset, std::max(n, chunk), &buffer_);
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
  const AppendFile& file_;
  const uint64_t size_;
  uint64_t base_ = 0;
  std::string buffer_;
};

struct Record {
  uint64_t hash = 0;
  CellResult value;
  uint64_t transcript_offset = 0;
  uint64_t transcript_bytes = 0;  // the record ends right after its transcript
};

// Parses the record that starts at `offset`; false when it is torn, malformed or fails
// either check (header checksum, transcript hash).
bool ParseRecord(LogWindow& window, uint64_t offset, Record* record) {
  const std::string_view head = window.View(offset, kMaxHeaderBytes);
  const size_t eol = head.find('\n');
  if (eol == std::string_view::npos || !head.starts_with(Magic())) {
    return false;
  }
  // Fields after the magic: hash, six values, length, checksum — single spaces.
  std::vector<std::string_view> fields;
  for (size_t pos = Magic().size(); pos <= eol;) {
    const size_t end = std::min(head.find(' ', pos), eol);
    fields.push_back(head.substr(pos, end - pos));
    pos = end + 1;
  }
  double* values[] = {&record->value.throughput_per_us, &record->value.local_handover_rate,
                      &record->value.transfers_per_op, &record->value.acquire_p99_ns,
                      &record->value.acquire_p999_ns, &record->value.starved_threads};
  uint64_t length = 0;
  uint64_t sum = 0;
  if (fields.size() != 9 || !ParseUnsigned(fields[0], 16, &record->hash) ||
      !ParseUnsigned(fields[7], 10, &length) || length > kMaxTranscriptBytes ||
      !ParseUnsigned(fields[8], 16, &sum)) {
    return false;
  }
  for (int i = 0; i < 6; ++i) {
    if (!ParseHexDouble(std::string(fields[1 + i]), values[i])) {
      return false;
    }
  }
  if (Fnv1a(head.substr(0, eol - fields[8].size() - 1)) != sum) {
    return false;
  }
  // The transcript must hash to the record's address (this view may need a fresh read,
  // which invalidates `head`).
  const std::string_view transcript = window.View(offset + eol + 1, length);
  if (transcript.size() != length || Fnv1a(transcript) != record->hash) {
    return false;
  }
  record->transcript_offset = offset + eol + 1;
  record->transcript_bytes = length;
  return true;
}

std::string FormatRecord(const Fingerprint& fp, uint64_t hash, const CellResult& value) {
  std::string record = Magic() + Hex16(hash);
  for (double v : {value.throughput_per_us, value.local_handover_rate,
                   value.transfers_per_op, value.acquire_p99_ns, value.acquire_p999_ns,
                   value.starved_threads}) {
    record += ' ' + HexDouble(v);
  }
  record += ' ' + std::to_string(fp.text().size());
  record += ' ' + Hex16(Fnv1a(record)) + '\n';
  record += fp.text();
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

AppendFile::AppendFile(const std::string& path) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  }
  if (fd_ < 0) {
    throw std::runtime_error("cannot open " + path);
  }
}

AppendFile::~AppendFile() { ::close(fd_); }

int64_t AppendFile::Append(std::string_view bytes) const {
  if (::write(fd_, bytes.data(), bytes.size()) != static_cast<ssize_t>(bytes.size())) {
    return -1;
  }
  return ::lseek(fd_, 0, SEEK_CUR);  // O_APPEND left the offset just past our bytes
}

int64_t AppendFile::Size() const {
  struct stat st;
  return ::fstat(fd_, &st) == 0 ? static_cast<int64_t>(st.st_size) : -1;
}

void AppendFile::ReadAt(uint64_t offset, size_t n, std::string* out) const {
  out->resize(n);
  size_t done = 0;
  while (done < n) {
    const ssize_t got =
        ::pread(fd_, out->data() + done, n - done, static_cast<off_t>(offset + done));
    if (got <= 0) {
      break;
    }
    done += static_cast<size_t>(got);
  }
  out->resize(done);
}

bool AppendFile::Truncate(uint64_t size) const {
  return ::ftruncate(fd_, static_cast<off_t>(size)) == 0;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)), log_(LogPathIn(dir_)) {
  std::lock_guard<std::mutex> lock(mutex_);
  IndexNewRecords();
}

bool ResultCache::IndexNewRecords() {
  const int64_t size = log_.Size();
  if (size < 0 || size == scanned_size_) {
    return false;
  }
  LogWindow window(log_, static_cast<uint64_t>(size));
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
      index_[record.hash] = {record.value, record.transcript_offset, record.transcript_bytes};
      offset = record.transcript_offset + record.transcript_bytes;
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

std::optional<CellResult> ResultCache::Verified(const Fingerprint& fp, uint64_t hash,
                                                bool catch_up) {
  IndexEntry entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (catch_up && !IndexNewRecords()) {
      return std::nullopt;
    }
    auto it = index_.find(hash);
    if (it == index_.end() || it->second.transcript_bytes != fp.text().size()) {
      return std::nullopt;
    }
    entry = it->second;
  }
  // Outside the lock, so concurrent hits read in parallel. Byte-for-byte transcript
  // match: a hash collision, stale schema or damaged record is a miss, not a wrong
  // answer.
  std::string transcript;
  log_.ReadAt(entry.transcript_offset, entry.transcript_bytes, &transcript);
  if (transcript != fp.text()) {
    return std::nullopt;
  }
  return entry.value;
}

std::optional<CellResult> ResultCache::Lookup(const Fingerprint& fp) {
  const uint64_t hash = fp.Hash();
  std::optional<CellResult> result = Verified(fp, hash, /*catch_up=*/false);
  if (!result.has_value()) {
    // Another instance or process may have stored it since the last scan.
    result = Verified(fp, hash, /*catch_up=*/true);
  }
  (result.has_value() ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  return result;
}

void ResultCache::Store(const Fingerprint& fp, const CellResult& value) {
  if (fp.text().size() > kMaxTranscriptBytes) {
    return;  // a scan would reject the record
  }
  const uint64_t hash = fp.Hash();
  const std::string record = FormatRecord(fp, hash, value);
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t end = log_.Append(record);
  if (end < 0) {
    return;
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  // The record landed right where the last scan ended: index it now instead of reading
  // it back on the next miss.
  if (end - static_cast<int64_t>(record.size()) == scanned_size_ &&
      resume_ == static_cast<uint64_t>(scanned_size_)) {
    const uint64_t length = fp.text().size();
    index_[hash] = {value, static_cast<uint64_t>(end) - length, length};
    resume_ = static_cast<uint64_t>(end);
    scanned_size_ = end;
  }
}

}  // namespace clof::exec

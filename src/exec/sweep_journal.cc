#include "src/exec/sweep_journal.h"

#include <algorithm>
#include <cstdlib>

namespace clof::exec {
namespace {

constexpr char kHeader[] = "clof-sweep-journal v1";

// Record text must stay one line: escape the only characters the message/diagnostic
// fields can contain that would break line- or field-framing.
std::string Escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string Unescape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 >= text.size()) {
      out += text[i];
      continue;
    }
    switch (text[++i]) {
      case 'n':
        out += '\n';
        break;
      case 't':
        out += '\t';
        break;
      default:
        out += text[i];
    }
  }
  return out;
}

bool ParseInt(const std::string& text, int* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  long value = std::strtol(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size()) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

// Splits off the next space-separated token; returns false when none is left.
bool NextToken(const std::string& payload, size_t* pos, std::string* token) {
  if (*pos >= payload.size()) {
    return false;
  }
  const size_t space = payload.find(' ', *pos);
  const size_t end = space == std::string::npos ? payload.size() : space;
  *token = payload.substr(*pos, end - *pos);
  *pos = space == std::string::npos ? payload.size() : space + 1;
  return !token->empty();
}

}  // namespace

SweepJournal::SweepJournal(std::string path) : path_(std::move(path)), file_(path_) {
  std::string content;
  file_.ReadAt(0, static_cast<size_t>(std::max<int64_t>(file_.Size(), 0)), &content);

  // Walk complete ('\n'-terminated) lines only: a torn final append has no newline
  // and is discarded, as is everything after the first malformed record. `intact`
  // ends the valid prefix: the header and every record loaded so far.
  size_t pos = 0;
  size_t intact = 0;
  bool first = true;
  while (pos < content.size()) {
    const size_t newline = content.find('\n', pos);
    if (newline == std::string::npos) {
      break;
    }
    const std::string line = content.substr(pos, newline - pos);
    pos = newline + 1;
    if (first) {
      first = false;
      if (line != kHeader) {
        break;  // foreign or corrupt file: treat as empty
      }
      intact = pos;
      continue;
    }
    // "<len> <payload>" with len the exact payload byte count: any prefix truncation
    // (even one landing on a parsable shorter token) fails the length check.
    const size_t space = line.find(' ');
    if (space == std::string::npos) {
      break;
    }
    int declared = 0;
    if (!ParseInt(line.substr(0, space), &declared) || declared < 0 ||
        line.size() - space - 1 != static_cast<size_t>(declared)) {
      break;
    }
    const std::string payload = line.substr(space + 1);
    size_t cursor = 0;
    std::string tag, hash, lock_name, threads_text;
    Entry entry;
    if (!NextToken(payload, &cursor, &tag) || !NextToken(payload, &cursor, &hash) ||
        !NextToken(payload, &cursor, &lock_name) ||
        !NextToken(payload, &cursor, &threads_text) ||
        !ParseInt(threads_text, &entry.num_threads)) {
      break;
    }
    entry.lock_name = lock_name;
    if (tag == "ok") {
      std::string v[6];
      bool parsed = true;
      for (auto& token : v) {
        parsed = parsed && NextToken(payload, &cursor, &token);
      }
      CellResult& r = entry.outcome.result;
      if (!parsed || cursor != payload.size() ||
          !ParseHexDouble(v[0], &r.throughput_per_us) ||
          !ParseHexDouble(v[1], &r.local_handover_rate) ||
          !ParseHexDouble(v[2], &r.transfers_per_op) ||
          !ParseHexDouble(v[3], &r.acquire_p99_ns) ||
          !ParseHexDouble(v[4], &r.acquire_p999_ns) ||
          !ParseHexDouble(v[5], &r.starved_threads)) {
        break;
      }
      entry.outcome.ok = true;
    } else if (tag == "fail") {
      std::string kind;
      if (!NextToken(payload, &cursor, &kind)) {
        break;
      }
      const std::string rest = payload.substr(cursor);
      const size_t tab = rest.find('\t');
      if (tab == std::string::npos) {
        break;
      }
      entry.outcome.ok = false;
      entry.outcome.failure.lock_name = lock_name;
      entry.outcome.failure.num_threads = entry.num_threads;
      entry.outcome.failure.kind = kind;
      entry.outcome.failure.message = Unescape(rest.substr(0, tab));
      entry.outcome.failure.diagnostic = Unescape(rest.substr(tab + 1));
    } else {
      break;
    }
    entries_[hash] = std::move(entry);
    ++loaded_;
    intact = pos;
  }
  // Cut a torn or corrupt tail once, so later appends extend the valid prefix instead
  // of hiding behind bytes no load gets past; a new, empty or foreign file restarts as
  // just the header. Like every journal write, best-effort.
  if (intact == 0) {
    file_.Truncate(0);
    file_.Append(std::string(kHeader) + '\n');
  } else if (intact < content.size()) {
    file_.Truncate(intact);
  }
}

std::optional<CellOutcome> SweepJournal::Lookup(const Fingerprint& fp,
                                                const std::string& lock_name,
                                                int num_threads) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(fp.HashHex());
  if (it == entries_.end() || it->second.lock_name != lock_name ||
      it->second.num_threads != num_threads) {
    return std::nullopt;
  }
  served_.fetch_add(1, std::memory_order_relaxed);
  return it->second.outcome;
}

void SweepJournal::Record(const Fingerprint& fp, const std::string& lock_name,
                          int num_threads, const CellOutcome& outcome) {
  const std::string hash = fp.HashHex();
  std::lock_guard<std::mutex> lock(mutex_);
  if (entries_.count(hash) > 0) {
    return;  // already journaled (e.g. a resumed cell served right back)
  }
  std::string payload;
  if (outcome.ok) {
    const CellResult& r = outcome.result;
    payload = "ok " + hash + " " + lock_name + " " + std::to_string(num_threads) + " " +
              HexDouble(r.throughput_per_us) + " " + HexDouble(r.local_handover_rate) +
              " " + HexDouble(r.transfers_per_op) + " " + HexDouble(r.acquire_p99_ns) +
              " " + HexDouble(r.acquire_p999_ns) + " " + HexDouble(r.starved_threads);
  } else {
    const CellFailure& f = outcome.failure;
    payload = "fail " + hash + " " + lock_name + " " + std::to_string(num_threads) +
              " " + f.kind + " " + Escape(f.message) + "\t" + Escape(f.diagnostic);
  }
  // One append per record; like the cache, persistence is best-effort, never a failure.
  file_.Append(std::to_string(payload.size()) + " " + payload + "\n");
  Entry entry;
  entry.lock_name = lock_name;
  entry.num_threads = num_threads;
  entry.outcome = outcome;
  entries_[hash] = std::move(entry);
}

}  // namespace clof::exec

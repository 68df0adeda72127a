#include "src/trace/trace.h"

#include <algorithm>

namespace clof::trace {

std::string BucketName(int bucket, const topo::Topology& topology) {
  const int num_levels = topology.num_levels();
  if (bucket == SameCpuBucket(num_levels)) {
    return "same-cpu";
  }
  if (bucket == ColdBucket(num_levels)) {
    return "cold";
  }
  if (bucket >= 0 && bucket < num_levels) {
    return topology.level(bucket).name;
  }
  return "hit";  // bucket -1: no coherence traffic
}

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kLoad:
      return "load";
    case EventKind::kStore:
      return "store";
    case EventKind::kRmw:
      return "rmw";
    case EventKind::kCmpXchg:
      return "cmpxchg";
    case EventKind::kRmwSpinLoad:
      return "rmw-read";
    case EventKind::kSpinWakeup:
      return "wakeup";
  }
  return "?";
}

TraceBuffer::TraceBuffer(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<size_t>(capacity_, 4096));
}

void TraceBuffer::OnEvent(const Event& event) {
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  ring_[next_] = event;  // overwrite the oldest stored event
  next_ = (next_ + 1) % capacity_;
}

std::vector<Event> TraceBuffer::Events() const {
  std::vector<Event> out;
  out.reserve(ring_.size());
  out.insert(out.end(), ring_.begin() + static_cast<ptrdiff_t>(next_), ring_.end());
  out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<ptrdiff_t>(next_));
  return out;
}

void TraceBuffer::Clear() {
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
}

void LatencySummary::Record(sim::Time duration_ps) {
  ++count_;
  total_ps_ += duration_ps;
  max_ps_ = std::max(max_ps_, duration_ps);
}

double LatencySummary::MeanNs() const {
  return count_ == 0 ? 0.0 : sim::NsFromPs(total_ps_) / static_cast<double>(count_);
}

}  // namespace clof::trace

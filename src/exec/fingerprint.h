// Canonical configuration fingerprints for the content-addressed result cache.
//
// A fingerprint is a human-readable `key=value\n` transcript of every input that can
// influence a simulated benchmark cell's result — machine topology and cost model,
// hierarchy, registry identity, lock name, workload profile, thread count, duration,
// seed, run count, ClofParams, and a schema version — plus a 64-bit FNV-1a hash of
// that transcript used as the cache address. The cache stores the full transcript next
// to each entry and compares it verbatim on lookup, so a hash collision degrades to a
// miss, never to a wrong result. Doubles are rendered as hex floats (%a), which
// round-trips every bit: two configs fingerprint equal iff they are bit-identical.
//
// Invalidation is structural: change any field (or bump kCellSchemaVersion when the
// simulator's result semantics change) and the address changes, orphaning old entries
// instead of corrupting new runs. docs/PARALLEL_SWEEP.md lists the key fields.
#ifndef CLOF_SRC_EXEC_FINGERPRINT_H_
#define CLOF_SRC_EXEC_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/clof/run_spec.h"
#include "src/sim/platform.h"
#include "src/topo/topology.h"
#include "src/workload/profiles.h"

namespace clof::exec {

// Bump whenever the meaning of a cached cell changes (simulator cost model semantics,
// cell payload layout, ...): old cache entries become unreachable, not wrong.
// v2: RunSpec gained the fault::FaultPlan fields and CellResult the robustness
// sidecars (p99/p999 acquire latency, starved threads).
inline constexpr int kCellSchemaVersion = 2;

// FNV-1a 64 over `bytes`, continuing from `hash` (the offset basis starts a fresh one,
// so Fnv1a(b, Fnv1a(a)) == Fnv1a(a + b)): the fingerprint hash, and the record
// checksum of the cell log (src/exec/result_cache.h).
inline constexpr uint64_t kFnv1aOffsetBasis = 0xcbf29ce484222325ull;
uint64_t Fnv1a(std::string_view bytes, uint64_t hash = kFnv1aOffsetBasis);

// `value` as 16 lowercase hex digits, the on-disk spelling of hashes and checksums.
std::string Hex16(uint64_t value);

class Fingerprint {
 public:
  void Add(std::string_view key, std::string_view value);
  void Add(std::string_view key, const std::string& value) {
    Add(key, std::string_view(value));
  }
  void Add(std::string_view key, const char* value) {
    Add(key, std::string_view(value));
  }
  void Add(std::string_view key, int64_t value);
  void Add(std::string_view key, uint64_t value);
  void Add(std::string_view key, int value) { Add(key, static_cast<int64_t>(value)); }
  void Add(std::string_view key, uint32_t value) {
    Add(key, static_cast<uint64_t>(value));
  }
  void Add(std::string_view key, bool value) { Add(key, value ? "1" : "0"); }
  void Add(std::string_view key, double value);  // hex-float: exact round-trip

  const std::string& text() const { return text_; }
  uint64_t Hash() const;       // FNV-1a 64 over text()
  std::string HashHex() const; // 16 lowercase hex digits of Hash()

 private:
  std::string text_;
};

// Transcript builders for the framework types. Each writes every field that affects
// simulated results, prefixed to keep keys collision-free when composed.
void AppendTopology(Fingerprint& fp, const topo::Topology& topology);
void AppendPlatform(Fingerprint& fp, const sim::PlatformModel& platform);
void AppendHierarchy(Fingerprint& fp, const topo::Hierarchy& hierarchy);
void AppendProfile(Fingerprint& fp, const workload::Profile& profile);
void AppendClofParams(Fingerprint& fp, const ClofParams& params);
void AppendFaultPlan(Fingerprint& fp, const fault::FaultPlan& plan);
void AppendRunSpec(Fingerprint& fp, const RunSpec& spec);  // all of the above + seed

// The canonical fingerprint of one sweep cell: schema version + RunSpec + the
// cell-specific coordinates. This is the result cache's key.
Fingerprint CellFingerprint(const RunSpec& spec, const std::string& lock_name,
                            int num_threads, double duration_ms, int runs);

}  // namespace clof::exec

#endif  // CLOF_SRC_EXEC_FINGERPRINT_H_

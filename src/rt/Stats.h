//===-- rt/Stats.h - Runtime statistics -------------------------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counters the runtime maintains for the evaluation harness: how many
/// accesses hit the dynamic checker, how much metadata memory (shadow
/// pages, count table, logs) is live, and how many conflicts were found.
/// The paper's Table 1 columns "Pagefaults" and "% dynamic Accesses" are
/// derived from these.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RT_STATS_H
#define SHARC_RT_STATS_H

#include "obs/ProfileRecord.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>

namespace sharc {
namespace rt {

/// The runtime's counters, in schema order: StatsSnapshot's member
/// order, the field order of the .strc stats record and the key order
/// of the sharc-stats-v1 JSON.
enum class Stat : unsigned {
  DynamicReads, DynamicWrites, DynamicReadBytes, DynamicWriteBytes,
  LockChecks, RcBarriers, Collections, SharingCasts,
  ReadConflicts, WriteConflicts, LockViolations, CastErrors,
  ShadowBytes, RcTableBytes, LogBytes, HeapPayloadBytes,
  PeakHeapPayloadBytes
};

inline constexpr unsigned NumStats =
    static_cast<unsigned>(Stat::PeakHeapPayloadBytes) + 1;

/// A plain snapshot of RuntimeStats, safe to copy and compare.
struct StatsSnapshot {
  uint64_t DynamicReads = 0;
  uint64_t DynamicWrites = 0;
  uint64_t DynamicReadBytes = 0;
  uint64_t DynamicWriteBytes = 0;
  uint64_t LockChecks = 0;
  uint64_t RcBarriers = 0;
  uint64_t Collections = 0;
  uint64_t SharingCasts = 0;
  uint64_t ReadConflicts = 0;
  uint64_t WriteConflicts = 0;
  uint64_t LockViolations = 0;
  uint64_t CastErrors = 0;
  uint64_t ShadowBytes = 0;
  uint64_t RcTableBytes = 0;
  uint64_t LogBytes = 0;
  uint64_t HeapPayloadBytes = 0;
  uint64_t PeakHeapPayloadBytes = 0;

  bool operator==(const StatsSnapshot &) const = default;

  /// Per-field saturating difference, for before/after annotation-tuning
  /// comparisons (`sharc-trace metrics --delta`). Saturation keeps a
  /// swapped argument order from producing absurd wrapped counters.
  StatsSnapshot operator-(const StatsSnapshot &O) const;

  uint64_t totalConflicts() const {
    return ReadConflicts + WriteConflicts + LockViolations + CastErrors;
  }
  uint64_t dynamicAccesses() const { return DynamicReads + DynamicWrites; }
  uint64_t dynamicAccessBytes() const {
    return DynamicReadBytes + DynamicWriteBytes;
  }
  uint64_t metadataBytes() const {
    return ShadowBytes + RcTableBytes + LogBytes;
  }
};

/// One counter of the schema and its name in every output.
struct StatRow {
  uint64_t StatsSnapshot::*Field;
  const char *Key;        ///< sharc-stats-v1 JSON key.
  const char *Family;     ///< Prometheus family: _total = counter.
  const char *LabelKey;   ///< nullptr for a label-less family.
  const char *LabelValue;
  /// The profile check kind whose per-site counts sum to this counter.
  std::optional<obs::CheckKind> Check;
};

/// The counter schema (DESIGN.md §10): every projection of a snapshot
/// loops over these rows, and row I describes Stat(I). A family's rows
/// need not be adjacent; live::forEachStatMetric groups them.
inline constexpr StatRow StatTable[] = {
    {&StatsSnapshot::DynamicReads, "dynamic_reads", "sharc_checks_total",
     "kind", "dynamic_reads", obs::CheckKind::DynamicRead},
    {&StatsSnapshot::DynamicWrites, "dynamic_writes", "sharc_checks_total",
     "kind", "dynamic_writes", obs::CheckKind::DynamicWrite},
    {&StatsSnapshot::DynamicReadBytes, "dynamic_read_bytes",
     "sharc_access_bytes_total", "dir", "read", {}},
    {&StatsSnapshot::DynamicWriteBytes, "dynamic_write_bytes",
     "sharc_access_bytes_total", "dir", "write", {}},
    {&StatsSnapshot::LockChecks, "lock_checks", "sharc_checks_total", "kind",
     "lock_checks", obs::CheckKind::LockCheck},
    {&StatsSnapshot::RcBarriers, "rc_barriers", "sharc_checks_total", "kind",
     "rc_barriers", obs::CheckKind::RcBarrier},
    {&StatsSnapshot::Collections, "collections", "sharc_checks_total", "kind",
     "collections", {}},
    {&StatsSnapshot::SharingCasts, "sharing_casts", "sharc_checks_total",
     "kind", "sharing_casts", obs::CheckKind::SharingCast},
    {&StatsSnapshot::ReadConflicts, "read_conflicts",
     "sharc_violations_total", "kind", "read_conflict", {}},
    {&StatsSnapshot::WriteConflicts, "write_conflicts",
     "sharc_violations_total", "kind", "write_conflict", {}},
    {&StatsSnapshot::LockViolations, "lock_violations",
     "sharc_violations_total", "kind", "lock_violation", {}},
    {&StatsSnapshot::CastErrors, "cast_errors", "sharc_violations_total",
     "kind", "cast_error", {}},
    {&StatsSnapshot::ShadowBytes, "shadow_bytes", "sharc_metadata_bytes",
     "kind", "shadow", {}},
    {&StatsSnapshot::RcTableBytes, "rc_table_bytes", "sharc_metadata_bytes",
     "kind", "rc_table", {}},
    {&StatsSnapshot::LogBytes, "log_bytes", "sharc_metadata_bytes", "kind",
     "log", {}},
    {&StatsSnapshot::HeapPayloadBytes, "heap_payload_bytes",
     "sharc_heap_payload_bytes", nullptr, nullptr, {}},
    {&StatsSnapshot::PeakHeapPayloadBytes, "peak_heap_payload_bytes",
     "sharc_heap_payload_peak_bytes", nullptr, nullptr, {}},
};
static_assert(std::size(StatTable) == NumStats, "one StatTable row per Stat");

inline StatsSnapshot StatsSnapshot::operator-(const StatsSnapshot &O) const {
  StatsSnapshot D;
  for (const StatRow &R : StatTable)
    D.*R.Field = this->*R.Field > O.*R.Field ? this->*R.Field - O.*R.Field : 0;
  return D;
}

/// Atomic counters updated by the runtime, indexed by Stat. Hot-path
/// counters are bumped with relaxed ordering; exactness across
/// simultaneous snapshots is not required.
struct RuntimeStats {
  std::atomic<uint64_t> Counters[NumStats] = {};

  std::atomic<uint64_t> &operator[](Stat S) {
    return Counters[static_cast<unsigned>(S)];
  }

  StatsSnapshot snapshot() const {
    StatsSnapshot S;
    for (unsigned I = 0; I != NumStats; ++I)
      S.*StatTable[I].Field = Counters[I].load(std::memory_order_relaxed);
    return S;
  }

  /// Tracks a high-water mark for payload bytes.
  void addHeapPayload(int64_t Delta) {
    std::atomic<uint64_t> &Live = (*this)[Stat::HeapPayloadBytes];
    std::atomic<uint64_t> &Peak = (*this)[Stat::PeakHeapPayloadBytes];
    uint64_t Now = Live.fetch_add(static_cast<uint64_t>(Delta),
                                  std::memory_order_relaxed) +
                   static_cast<uint64_t>(Delta);
    uint64_t Seen = Peak.load(std::memory_order_relaxed);
    while (Now > Seen &&
           !Peak.compare_exchange_weak(Seen, Now, std::memory_order_relaxed))
      ;
  }
};

} // namespace rt
} // namespace sharc

#endif // SHARC_RT_STATS_H

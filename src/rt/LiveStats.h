//===-- rt/LiveStats.h - Online introspection snapshots ---------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// sharc-live (DESIGN.md §13): the data model behind the in-process stats
/// endpoint. A LiveSnapshot is everything a scrape can see — the runtime
/// counter snapshot plus guard/watchdog state, lock contention aggregates,
/// and engine liveness — and StatsHub is the thread-safe mailbox a
/// producer (the MiniC interpreter's polling hook, or the native runtime)
/// publishes it through.
///
/// Everything in this header is header-only, mirroring the layering of
/// rt/Guard.h: the interpreter publishes LiveSnapshots without linking
/// sharc_rt; the HTTP listener itself (rt/StatsServer.h) lives inside
/// sharc_rt. The Prometheus text rendering is also here, as is the
/// metric-name mapping (forEachStatMetric) that `sharc-trace check-prom`
/// uses to cross-check a scrape against a trace's final stats sample —
/// one definition, so the endpoint and the checker cannot drift apart.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RT_LIVESTATS_H
#define SHARC_RT_LIVESTATS_H

#include "rt/Guard.h"
#include "rt/Stats.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <string_view>

namespace sharc {
namespace live {

/// One coherent view of a running (or just-finished) checked execution.
struct LiveSnapshot {
  /// The runtime counter snapshot — for a finished run this is exactly
  /// the final stats sample written into the .strc trace, which is what
  /// the acceptance check `sharc-trace check-prom` pins.
  rt::StatsSnapshot Stats;

  /// Violations observed including deduplicated repeats (the counter
  /// `Stats.totalConflicts()` counts only snapshot-visible kinds).
  uint64_t TotalViolations = 0;

  /// Active guard policy and watchdog budget (0 = watchdog off).
  guard::Policy Policy = guard::Policy::Continue;
  uint64_t WatchdogMillis = 0;
  /// StallTimeout reports filed by the watchdog so far.
  uint64_t StallReports = 0;

  /// Lock wait/hold aggregates. Units are TSC cycles for the native
  /// runtime and scheduler steps for the interpreter; populated when
  /// profiling is armed, zero otherwise (the native runtime aggregates
  /// hold time only at thread retire, so its live hold view lags).
  uint64_t LockAcquires = 0;
  uint64_t LockContended = 0;
  uint64_t LockWaitUnits = 0;
  uint64_t LockHoldUnits = 0;

  /// Cast-drain queue depth: blocks logically freed but not yet released
  /// because pending Levanoni-Petrank logs may still name their counted
  /// slots (rt::Heap::getNumDeferred). Always 0 for the interpreter,
  /// whose frees are immediate.
  uint64_t CastDrainQueueDepth = 0;

  /// Engine liveness.
  uint64_t ThreadsLive = 0;
  uint64_t ThreadsSpawned = 0;
  uint64_t Steps = 0;   ///< Interpreter scheduler steps (0 for native).
  bool Running = true;  ///< False once the run has completed.
};

/// Thread-safe single-slot mailbox between one producer (the engine) and
/// any number of scrapers (the HTTP listener's handler thread). Writers
/// overwrite; readers always see the latest complete snapshot.
class StatsHub {
public:
  void update(const LiveSnapshot &S) {
    std::lock_guard<std::mutex> Lock(Mu);
    Snap = S;
    Published = true;
  }

  LiveSnapshot load() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Snap;
  }

  /// True once any snapshot has been published.
  bool hasSnapshot() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Published;
  }

private:
  mutable std::mutex Mu;
  LiveSnapshot Snap;
  bool Published = false;
};

//===----------------------------------------------------------------------===//
// Metric mapping — how a StatsSnapshot projects onto Prometheus series,
// read off rt::StatTable. Fn signature:
//   Fn(family, labelKey, labelValue, value)
// labelKey/labelValue are nullptr for label-less series.
//===----------------------------------------------------------------------===//

/// Visits the table's rows family by family, each family at its first
/// row: exposition types a family once, before all of its series, while
/// the table keeps the .strc order (access bytes among the check counts).
template <typename FnT>
inline void forEachStatMetric(const rt::StatsSnapshot &S, FnT &&Fn) {
  const rt::StatRow *Begin = std::begin(rt::StatTable);
  const rt::StatRow *End = std::end(rt::StatTable);
  for (const rt::StatRow *First = Begin; First != End; ++First) {
    auto InFamily = [&](const rt::StatRow &R) {
      return std::string_view(First->Family) == R.Family;
    };
    if (std::any_of(Begin, First, InFamily))
      continue; // Visited at the family's first row.
    for (const rt::StatRow *R = First; R != End; ++R)
      if (InFamily(*R))
        Fn(R->Family, R->LabelKey, R->LabelValue, S.*R->Field);
  }
}

//===----------------------------------------------------------------------===//
// Prometheus text exposition (version 0.0.4) and the JSON health document
//===----------------------------------------------------------------------===//

/// Renders \p S (plus \p Scrapes, the server's own scrape counter) as
/// Prometheus text exposition. Every value is an exact integer — no
/// floating-point formatting — so scrape-vs-trace comparisons are exact.
inline std::string renderPrometheus(const LiveSnapshot &S, uint64_t Scrapes) {
  std::string Out;
  Out.reserve(2048);
  // Series arrive grouped by family, so a family's # HELP/# TYPE header
  // is emitted when the family changes. Families whose name ends in
  // _total are counters, the rest gauges (byte footprints shrink when
  // memory is released).
  const char *LastFamily = "";
  auto Series = [&](const char *Family, const char *LabelKey,
                    const char *LabelValue, uint64_t Value,
                    const char *Help) {
    if (std::strcmp(Family, LastFamily) != 0) {
      size_t Len = std::strlen(Family);
      bool Counter = Len > 6 && std::strcmp(Family + Len - 6, "_total") == 0;
      Out += "# HELP ";
      Out += Family;
      Out += ' ';
      Out += Help;
      Out += "\n# TYPE ";
      Out += Family;
      Out += Counter ? " counter\n" : " gauge\n";
      LastFamily = Family;
    }
    Out += Family;
    if (LabelKey) {
      Out += '{';
      Out += LabelKey;
      Out += "=\"";
      Out += LabelValue;
      Out += "\"}";
    }
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), " %llu\n",
                  static_cast<unsigned long long>(Value));
    Out += Buf;
  };
  auto Plain = [&](const char *Family, uint64_t Value, const char *Help) {
    Series(Family, nullptr, nullptr, Value, Help);
  };

  // The StatsSnapshot projection: the same mapping `sharc-trace
  // check-prom` verifies scrapes against.
  forEachStatMetric(S.Stats, [&](const char *Family, const char *LabelKey,
                                 const char *LabelValue, uint64_t Value) {
    Series(Family, LabelKey, LabelValue, Value,
           "See DESIGN.md section 13 for the metric schema");
  });
  Plain("sharc_violations_seen_total", S.TotalViolations,
        "Violations observed including deduplicated repeats");

  // Guard / watchdog state.
  Series("sharc_guard_policy", "policy", guard::policyName(S.Policy), 1,
         "Active violation policy (the labelled policy is 1)");
  Plain("sharc_watchdog_budget_ms", S.WatchdogMillis,
        "Stall watchdog budget in milliseconds (0 = off)");
  Plain("sharc_stall_reports_total", S.StallReports,
        "StallTimeout reports filed by the watchdog");

  // Lock contention aggregates.
  Plain("sharc_lock_acquires_total", S.LockAcquires,
        "Profiled lock acquisitions");
  Plain("sharc_lock_contended_total", S.LockContended,
        "Profiled lock acquisitions that had to wait");
  Plain("sharc_lock_wait_units_total", S.LockWaitUnits,
        "Aggregate lock wait time (cycles or scheduler steps)");
  Plain("sharc_lock_hold_units_total", S.LockHoldUnits,
        "Aggregate lock hold time (cycles or scheduler steps)");

  // Engine state.
  Plain("sharc_cast_drain_queue_depth", S.CastDrainQueueDepth,
        "Deferred-free blocks awaiting the next RC collection");
  Plain("sharc_threads_live", S.ThreadsLive,
        "Threads currently registered/runnable");
  Plain("sharc_threads_spawned_total", S.ThreadsSpawned,
        "Threads ever spawned");
  Plain("sharc_steps_total", S.Steps,
        "Interpreter scheduler steps (0 for the native runtime)");
  Plain("sharc_run_active", S.Running ? 1 : 0,
        "1 while the checked run is in progress, 0 once finished");
  Plain("sharc_scrapes_total", Scrapes,
        "Scrapes served by this endpoint, this one included");
  return Out;
}

/// The JSON health document served at /health. Hand-rendered (sharc_rt
/// does not link the obs JSON writer); every string inserted is a fixed
/// token, so no escaping is needed.
inline std::string renderHealthJson(const LiveSnapshot &S, uint64_t Scrapes) {
  auto Num = [](uint64_t V) { return std::to_string(V); };
  std::string Out = "{\"schema\":\"sharc-health-v1\"";
  Out += ",\"running\":";
  Out += S.Running ? "true" : "false";
  Out += ",\"policy\":\"";
  Out += guard::policyName(S.Policy);
  Out += "\",\"watchdog_ms\":" + Num(S.WatchdogMillis);
  Out += ",\"stall_reports\":" + Num(S.StallReports);
  Out += ",\"violations_total\":" + Num(S.TotalViolations);
  Out += ",\"conflicts\":" + Num(S.Stats.totalConflicts());
  Out += ",\"dynamic_accesses\":" + Num(S.Stats.dynamicAccesses());
  Out += ",\"lock_checks\":" + Num(S.Stats.LockChecks);
  Out += ",\"sharing_casts\":" + Num(S.Stats.SharingCasts);
  Out += ",\"metadata_bytes\":" + Num(S.Stats.metadataBytes());
  Out += ",\"cast_drain_queue_depth\":" + Num(S.CastDrainQueueDepth);
  Out += ",\"threads_live\":" + Num(S.ThreadsLive);
  Out += ",\"threads_spawned\":" + Num(S.ThreadsSpawned);
  Out += ",\"steps\":" + Num(S.Steps);
  Out += ",\"scrapes\":" + Num(Scrapes);
  Out += "}\n";
  return Out;
}

} // namespace live
} // namespace sharc

#endif // SHARC_RT_LIVESTATS_H

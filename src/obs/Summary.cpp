#include "obs/Summary.h"

#include "rt/Guard.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <sstream>

namespace sharc::obs {

namespace {

bool isAccess(EventKind K) {
  return K == EventKind::Read || K == EventKind::Write;
}

bool isLockOp(EventKind K) {
  return K == EventKind::LockAcquire || K == EventKind::LockRelease ||
         K == EventKind::SharedLockAcquire ||
         K == EventKind::SharedLockRelease;
}

} // namespace

TraceSummary summarize(const TraceData &Data, unsigned GranuleShift,
                       size_t TopGranules) {
  TraceSummary Sum;
  Sum.TotalEvents = Data.Events.size();

  std::map<uint32_t, TraceSummary::PerThread> Threads;
  struct LockAccum {
    uint64_t Acquires = 0;
    uint64_t SharedAcquires = 0;
    std::set<uint32_t> Tids;
  };
  std::map<uint64_t, LockAccum> Locks;
  std::map<uint64_t, uint64_t> Granules;

  for (size_t I = 0; I < Data.Events.size(); ++I) {
    const Event &Ev = Data.Events[I];
    Sum.CountByKind[static_cast<unsigned>(Ev.K)]++;

    TraceSummary::PerThread &T = Threads[Ev.Tid];
    T.Tid = Ev.Tid;
    switch (Ev.K) {
    case EventKind::Read:
      ++T.Reads;
      break;
    case EventKind::Write:
      ++T.Writes;
      break;
    case EventKind::CastQuery:
    case EventKind::SharingCast:
      ++T.Casts;
      break;
    case EventKind::Conflict:
      ++T.Conflicts;
      Sum.ConflictsByKind[static_cast<unsigned>(conflictKindOf(Ev.Extra)) %
                          NumConflictKinds]++;
      Sum.Conflicts.push_back({I, Ev});
      break;
    default:
      break;
    }
    if (isLockOp(Ev.K))
      ++T.LockOps;

    if (Ev.K == EventKind::LockAcquire ||
        Ev.K == EventKind::SharedLockAcquire) {
      LockAccum &L = Locks[Ev.Addr];
      if (Ev.K == EventKind::LockAcquire)
        ++L.Acquires;
      else
        ++L.SharedAcquires;
      L.Tids.insert(Ev.Tid);
    }
    if (isAccess(Ev.K))
      Granules[(Ev.Addr >> GranuleShift) << GranuleShift]++;
  }

  for (const auto &[Tid, T] : Threads)
    Sum.Threads.push_back(T);

  for (const auto &[Addr, L] : Locks)
    Sum.Locks.push_back({Addr, L.Acquires, L.SharedAcquires,
                         static_cast<uint32_t>(L.Tids.size())});
  std::stable_sort(Sum.Locks.begin(), Sum.Locks.end(),
                   [](const auto &A, const auto &B) {
                     return A.Acquires + A.SharedAcquires >
                            B.Acquires + B.SharedAcquires;
                   });

  for (const auto &[Addr, N] : Granules)
    Sum.HotGranules.push_back({Addr, N});
  std::stable_sort(Sum.HotGranules.begin(), Sum.HotGranules.end(),
                   [](const auto &A, const auto &B) {
                     return A.Accesses > B.Accesses;
                   });
  if (Sum.HotGranules.size() > TopGranules)
    Sum.HotGranules.resize(TopGranules);

  return Sum;
}

std::string renderSummary(const TraceSummary &Sum, const TraceData &Data) {
  std::ostringstream OS;
  OS << "trace: " << Sum.TotalEvents << " events, " << Data.Samples.size()
     << " stats samples, " << Sum.Threads.size() << " threads\n";

  // Record-type tally for the parsed format version. Older versions
  // simply show zero for families they predate.
  OS << "format: v" << Data.Version << " — records: events "
     << Data.Events.size() << ", stats " << Data.Samples.size()
     << ", site-profiles " << Data.Sites.size() << ", lock-profiles "
     << Data.Locks.size() << ", self-overheads " << Data.Overheads.size()
     << ", spans " << Data.Spans.size() << ", abnormal-end "
     << (Data.AbnormalEnd ? 1 : 0) << "\n";
  if (Data.SkippedUnknown) {
    OS << "warning: skipped " << Data.SkippedUnknown
       << " unknown extension record(s) (tags:";
    for (uint8_t T : Data.SkippedTags) {
      char Hex[8];
      std::snprintf(Hex, sizeof(Hex), " 0x%02x", T);
      OS << Hex;
    }
    OS << ") — written by a newer sharc\n";
  }
  if (!Data.Spans.empty()) {
    uint64_t ByStage[NumSpanStages] = {};
    uint64_t Begins = 0;
    for (const SpanRecord &S : Data.Spans) {
      ++ByStage[static_cast<unsigned>(S.Stage)];
      Begins += S.Begin ? 1 : 0;
    }
    OS << "spans: " << Begins << " begin / " << Data.Spans.size() - Begins
       << " end —";
    for (unsigned K = 0; K < NumSpanStages; ++K)
      if (ByStage[K])
        OS << " " << spanStageName(static_cast<SpanStage>(K)) << " "
           << ByStage[K];
    OS << "\n";
  }

  if (Data.AbnormalEnd) {
    OS << "\nABNORMAL END: the producing process died mid-run";
    if (Data.AbnormalSignal)
      OS << " (signal " << Data.AbnormalSignal << ", "
         << strsignal(static_cast<int>(Data.AbnormalSignal)) << ")";
    else
      OS << " (violation policy / internal error, no signal)";
    OS << "\n  policy: "
       << guard::policyName(static_cast<guard::Policy>(Data.AbnormalPolicy))
       << ", violations before death: " << Data.AbnormalTotalViolations
       << "\n";
    for (unsigned K = 0; K < NumConflictKinds; ++K)
      if (Data.AbnormalConflictCounts[K])
        OS << "    " << conflictKindName(static_cast<ConflictKind>(K)) << ": "
           << Data.AbnormalConflictCounts[K] << "\n";
  }

  OS << "\nevents by kind:\n";
  for (unsigned K = 0; K < NumEventKinds; ++K)
    if (Sum.CountByKind[K])
      OS << "  " << eventKindName(static_cast<EventKind>(K)) << ": "
         << Sum.CountByKind[K] << "\n";

  OS << "\nper-thread:\n";
  OS << "  tid      reads     writes    lockops      casts  conflicts\n";
  for (const auto &T : Sum.Threads) {
    char Line[128];
    std::snprintf(Line, sizeof(Line),
                  "  %3u %10llu %10llu %10llu %10llu %10llu\n", T.Tid,
                  (unsigned long long)T.Reads, (unsigned long long)T.Writes,
                  (unsigned long long)T.LockOps, (unsigned long long)T.Casts,
                  (unsigned long long)T.Conflicts);
    OS << Line;
  }

  if (!Sum.Locks.empty()) {
    OS << "\nlock contention (by acquires):\n";
    OS << "  lock             acquires  shared  threads\n";
    for (const auto &L : Sum.Locks) {
      char Line[128];
      std::snprintf(Line, sizeof(Line), "  %#-16llx %8llu %7llu %8u\n",
                    (unsigned long long)L.Addr,
                    (unsigned long long)L.Acquires,
                    (unsigned long long)L.SharedAcquires, L.DistinctTids);
      OS << Line;
    }
  }

  if (!Sum.HotGranules.empty()) {
    OS << "\nhottest granules:\n";
    for (const auto &G : Sum.HotGranules) {
      char Line[64];
      std::snprintf(Line, sizeof(Line), "  %#-16llx %10llu accesses\n",
                    (unsigned long long)G.Addr,
                    (unsigned long long)G.Accesses);
      OS << Line;
    }
  }

  OS << "\nconflicts: " << Sum.conflictCount() << "\n";
  for (const auto &C : Sum.Conflicts) {
    OS << "  [" << C.Pos << "] " << conflictKindName(conflictKindOf(C.Ev.Extra))
       << " tid " << C.Ev.Tid << " addr " << C.Ev.Addr;
    if (C.Ev.Value)
      OS << " (last tid " << C.Ev.Value << ")";
    uint32_t Who = conflictWhoLine(C.Ev.Extra);
    uint32_t Last = conflictLastLine(C.Ev.Extra);
    if (Who)
      OS << " line " << Who;
    if (Last)
      OS << " prev line " << Last;
    OS << "\n";
  }

  if (!Data.Samples.empty()) {
    const rt::StatsSnapshot &S = Data.Samples.back();
    OS << "\nfinal stats sample: accesses " << S.dynamicAccesses()
       << ", lock checks " << S.LockChecks << ", sharing casts "
       << S.SharingCasts << ", conflicts " << S.totalConflicts() << "\n";
  }
  return OS.str();
}

std::string renderSchedule(const TraceData &Data) {
  std::ostringstream OS;
  for (const Event &Ev : Data.Events) {
    switch (Ev.K) {
    case EventKind::Read:
      OS << "read " << Ev.Tid << " " << (Ev.Addr << 3) << "\n";
      break;
    case EventKind::Write:
      OS << "write " << Ev.Tid << " " << (Ev.Addr << 3) << "\n";
      break;
    case EventKind::LockAcquire:
    case EventKind::SharedLockAcquire:
      OS << "acquire " << Ev.Tid << " " << (Ev.Addr << 3) << "\n";
      break;
    case EventKind::LockRelease:
    case EventKind::SharedLockRelease:
      OS << "release " << Ev.Tid << " " << (Ev.Addr << 3) << "\n";
      break;
    case EventKind::SpawnEdge:
      // The fuzzer lowers spawn edges to lock releases on the spawn
      // token before detector replay.
      OS << "release " << Ev.Tid << " " << (Ev.Addr << 3) << "\n";
      break;
    case EventKind::ThreadStart:
      OS << "start " << Ev.Tid << " " << (Ev.Addr ? Ev.Addr << 3 : 0)
         << "\n";
      break;
    case EventKind::ThreadExit:
      OS << "exit " << Ev.Tid << " 0\n";
      break;
    case EventKind::PtrStore:
    case EventKind::CastQuery:
    case EventKind::SharingCast:
    case EventKind::Conflict:
    case EventKind::LockWait:
      break; // invisible to the detectors
    }
  }
  return OS.str();
}

std::string renderDump(const TraceData &Data) {
  DumpCursor At;
  return renderDumpFrom(Data, At, /*Final=*/true);
}

std::string renderDumpFrom(const TraceData &Data, DumpCursor &At,
                           bool Final) {
  std::ostringstream OS;
  // Samples and spans at position I were decoded before event I, so
  // every position below Events.size() is complete.
  for (size_t &I = At.Event; I <= Data.Events.size(); ++I) {
    if (I == Data.Events.size() && !Final)
      break;
    while (At.Sample < Data.SamplePos.size() &&
           Data.SamplePos[At.Sample] == I) {
      const rt::StatsSnapshot &S = Data.Samples[At.Sample];
      OS << "stats-sample accesses=" << S.dynamicAccesses()
         << " conflicts=" << S.totalConflicts()
         << " metadata-bytes=" << S.metadataBytes() << "\n";
      ++At.Sample;
    }
    while (At.Span < Data.SpanPos.size() && Data.SpanPos[At.Span] == I) {
      const SpanRecord &S = Data.Spans[At.Span];
      OS << (S.Begin ? "span-begin" : "span-end")
         << " stage=" << spanStageName(S.Stage) << " req=" << S.Req
         << " tid=" << S.Tid << " t=" << S.TimeNs;
      if (S.Arg)
        OS << " arg=" << S.Arg;
      OS << "\n";
      ++At.Span;
    }
    if (I == Data.Events.size())
      break;
    const Event &Ev = Data.Events[I];
    OS << eventKindName(Ev.K) << " tid=" << Ev.Tid << " addr=" << Ev.Addr;
    if (Ev.Value)
      OS << " value=" << Ev.Value;
    if (Ev.Extra) {
      if (Ev.K == EventKind::Conflict)
        OS << " kind=" << conflictKindName(conflictKindOf(Ev.Extra))
           << " line=" << conflictWhoLine(Ev.Extra)
           << " prev-line=" << conflictLastLine(Ev.Extra);
      else
        OS << " extra=" << Ev.Extra;
    }
    OS << "\n";
  }
  return OS.str();
}

} // namespace sharc::obs

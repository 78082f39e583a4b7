#include "obs/Causal.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_map>

namespace sharc::obs {

namespace {

/// The two most recent accesses of an address by *distinct* threads,
/// so a SharingCast by thread T can find the latest foreign access
/// (the drain it waited on) in O(1).
struct LastAccess {
  size_t Idx1 = 0;
  uint32_t Tid1 = 0;
  bool Has1 = false;
  size_t Idx2 = 0; ///< most recent with Tid != Tid1
  uint32_t Tid2 = 0;
  bool Has2 = false;

  void note(size_t Idx, uint32_t Tid) {
    if (Has1 && Tid1 != Tid) {
      Idx2 = Idx1;
      Tid2 = Tid1;
      Has2 = true;
    }
    Idx1 = Idx;
    Tid1 = Tid;
    Has1 = true;
  }

  /// Latest access by a thread other than Tid, if any.
  bool foreign(uint32_t Tid, size_t &Idx) const {
    if (Has1 && Tid1 != Tid) {
      Idx = Idx1;
      return true;
    }
    if (Has2 && Tid2 != Tid) {
      Idx = Idx2;
      return true;
    }
    return false;
  }
};

struct Release {
  size_t Idx = 0;
  uint32_t Tid = 0;
  bool Valid = false;
};

} // namespace

CausalReport buildCausal(const TraceData &Data) {
  CausalReport R;
  std::unordered_map<uint32_t, size_t> PrevByTid;
  std::unordered_map<uint32_t, size_t> ThreadIdx; // tid -> R.Threads index
  std::unordered_map<uint64_t, size_t> SpawnByToken;
  // Per lock: last release of any kind (blocks exclusive acquires) and
  // last exclusive release (all a shared acquire can be blocked by —
  // readers never block readers).
  std::unordered_map<uint64_t, Release> LastAnyRelease, LastExclRelease;
  std::unordered_map<uint64_t, LastAccess> Accesses;

  auto threadOf = [&](uint32_t Tid, size_t Idx) -> ThreadSpan & {
    auto [It, New] = ThreadIdx.try_emplace(Tid, R.Threads.size());
    if (New) {
      ThreadSpan S;
      S.Tid = Tid;
      S.FirstEvent = Idx;
      R.Threads.push_back(S);
    }
    return R.Threads[It->second];
  };

  for (size_t I = 0; I < Data.Events.size(); ++I) {
    const Event &Ev = Data.Events[I];
    ThreadSpan &TS = threadOf(Ev.Tid, I);
    TS.LastEvent = I;
    ++TS.Events;

    switch (Ev.K) {
    case EventKind::SpawnEdge:
      SpawnByToken[Ev.Addr] = I;
      break;
    case EventKind::ThreadStart:
      if (auto It = SpawnByToken.find(Ev.Addr); It != SpawnByToken.end() &&
                                                Data.Events[It->second].Tid !=
                                                    Ev.Tid)
        R.Edges.push_back({It->second, I, HBEdge::Kind::Spawn});
      break;
    case EventKind::LockAcquire:
    case EventKind::SharedLockAcquire: {
      const auto &Map = Ev.K == EventKind::LockAcquire ? LastAnyRelease
                                                       : LastExclRelease;
      if (auto It = Map.find(Ev.Addr);
          It != Map.end() && It->second.Valid && It->second.Tid != Ev.Tid) {
        const Release &Rel = It->second;
        R.Edges.push_back({Rel.Idx, I, HBEdge::Kind::LockHandoff});
        // Blocked iff the release happened after the waiter was ready:
        // had the lock been free when the waiter arrived (release index
        // before its previous event), the acquire was immediate.
        if (auto Prev = PrevByTid.find(Ev.Tid);
            Prev != PrevByTid.end() && Rel.Idx > Prev->second) {
          BlockedSpan B;
          B.Tid = Ev.Tid;
          B.HolderTid = Rel.Tid;
          B.Lock = Ev.Addr;
          B.ReadyAt = Prev->second;
          B.ReleaseAt = Rel.Idx;
          B.AcquireAt = I;
          TS.BlockedUnits += B.blockedUnits();
          ++TS.Waits;
          R.Blocked.push_back(B);
        }
      }
      break;
    }
    case EventKind::LockRelease:
      LastAnyRelease[Ev.Addr] = {I, Ev.Tid, true};
      LastExclRelease[Ev.Addr] = {I, Ev.Tid, true};
      break;
    case EventKind::SharedLockRelease:
      LastAnyRelease[Ev.Addr] = {I, Ev.Tid, true};
      break;
    case EventKind::SharingCast:
      if (size_t Foreign; Accesses[Ev.Addr].foreign(Ev.Tid, Foreign))
        R.Edges.push_back({Foreign, I, HBEdge::Kind::CastDrain});
      break;
    case EventKind::Read:
    case EventKind::Write:
    case EventKind::PtrStore:
    case EventKind::CastQuery:
      Accesses[Ev.Addr].note(I, Ev.Tid);
      break;
    default:
      break;
    }
    PrevByTid[Ev.Tid] = I;
  }

  std::sort(R.Threads.begin(), R.Threads.end(),
            [](const ThreadSpan &A, const ThreadSpan &B) {
              return A.Tid < B.Tid;
            });

  // Roll blocked time up by (lock, holder) and join the lock's source
  // site from any v2 lock-profile record that names it.
  std::unordered_map<uint64_t, std::string> SiteByLock;
  for (const LockProfileRecord &L : Data.Locks)
    if (!L.File.empty() && !SiteByLock.count(L.Lock))
      SiteByLock[L.Lock] = L.File + ":" + std::to_string(L.Line);
  std::vector<HolderAttribution> Attr;
  for (const BlockedSpan &B : R.Blocked) {
    HolderAttribution *Slot = nullptr;
    for (HolderAttribution &A : Attr)
      if (A.Lock == B.Lock && A.HolderTid == B.HolderTid)
        Slot = &A;
    if (!Slot) {
      Attr.push_back({B.Lock, B.HolderTid, 0, 0, {}});
      Slot = &Attr.back();
      if (auto It = SiteByLock.find(B.Lock); It != SiteByLock.end())
        Slot->Site = It->second;
    }
    Slot->Units += B.blockedUnits();
    ++Slot->Waits;
  }
  std::sort(Attr.begin(), Attr.end(),
            [](const HolderAttribution &A, const HolderAttribution &B) {
              return A.Units != B.Units ? A.Units > B.Units
                                        : A.Lock < B.Lock;
            });
  R.ByHolder = std::move(Attr);
  return R;
}

CriticalPath criticalPath(const CausalReport &R, const TraceData &Data) {
  CriticalPath P;
  const size_t N = Data.Events.size();
  if (N == 0)
    return P;

  // Longest path over a DAG whose edges all point backwards in stream
  // order: one pass, in order, suffices. Edge weight = index delta.
  std::vector<uint64_t> Dist(N, 0);
  std::vector<size_t> Pred(N, SIZE_MAX);
  std::vector<CriticalPath::Step::Via> Via(N, CriticalPath::Step::Via::Start);
  std::unordered_map<uint32_t, size_t> PrevByTid;
  size_t EdgeIdx = 0; // R.Edges is sorted by To
  auto consider = [&](size_t I, size_t From, CriticalPath::Step::Via V) {
    uint64_t Cand = Dist[From] + (I - From);
    if (Cand > Dist[I]) {
      Dist[I] = Cand;
      Pred[I] = From;
      Via[I] = V;
    }
  };
  for (size_t I = 0; I < N; ++I) {
    if (auto It = PrevByTid.find(Data.Events[I].Tid); It != PrevByTid.end())
      consider(I, It->second, CriticalPath::Step::Via::Program);
    for (; EdgeIdx < R.Edges.size() && R.Edges[EdgeIdx].To == I; ++EdgeIdx) {
      const HBEdge &E = R.Edges[EdgeIdx];
      CriticalPath::Step::Via V = CriticalPath::Step::Via::Program;
      switch (E.K) {
      case HBEdge::Kind::Spawn:
        V = CriticalPath::Step::Via::Spawn;
        break;
      case HBEdge::Kind::LockHandoff:
        V = CriticalPath::Step::Via::LockHandoff;
        break;
      case HBEdge::Kind::CastDrain:
        V = CriticalPath::Step::Via::CastDrain;
        break;
      }
      consider(I, E.From, V);
    }
    PrevByTid[Data.Events[I].Tid] = I;
  }

  size_t End = 0;
  for (size_t I = 1; I < N; ++I)
    if (Dist[I] > Dist[End])
      End = I;
  P.TotalUnits = Dist[End];

  std::vector<CriticalPath::Step> Rev;
  for (size_t I = End;;) {
    CriticalPath::Step S;
    S.Event = I;
    S.V = Via[I];
    S.Units = Pred[I] == SIZE_MAX ? 0 : I - Pred[I];
    Rev.push_back(S);
    if (Pred[I] == SIZE_MAX)
      break;
    I = Pred[I];
  }
  P.Steps.assign(Rev.rbegin(), Rev.rend());
  return P;
}

namespace {

void appendPercent(std::ostringstream &OS, uint64_t Part, uint64_t Whole) {
  if (Whole == 0)
    return;
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), " (%.1f%%)",
                100.0 * double(Part) / double(Whole));
  OS << Buf;
}

} // namespace

std::string renderTimeline(const CausalReport &R, const TraceData &Data) {
  std::ostringstream OS;
  OS << "causal timeline: " << Data.Events.size() << " events, "
     << R.Threads.size() << " threads, " << R.Edges.size()
     << " cross-thread edges (clock = stream index)\n";
  if (Data.AbnormalEnd)
    OS << "note: trace records an abnormal end (signal "
       << Data.AbnormalSignal << "); timeline covers the run up to the "
       << "crash\n";
  OS << "\n";

  for (const ThreadSpan &T : R.Threads) {
    OS << "thread " << T.Tid << ": events [" << T.FirstEvent << ".."
       << T.LastEvent << "]  span " << T.spanUnits() << "  run "
       << T.runUnits() << "  blocked " << T.BlockedUnits;
    if (T.Waits)
      OS << " over " << T.Waits << (T.Waits == 1 ? " wait" : " waits");
    appendPercent(OS, T.BlockedUnits, T.spanUnits());
    OS << "\n";
    for (const BlockedSpan &B : R.Blocked)
      if (B.Tid == T.Tid && B.blockedUnits() > 0) {
        OS << "  blocked [" << B.ReadyAt << ".." << B.ReleaseAt << "] "
           << B.blockedUnits() << " units on lock 0x" << std::hex << B.Lock
           << std::dec << " held by thread " << B.HolderTid << "\n";
      }
  }

  OS << "\nblocked-time attribution (stream units lost to each holder):\n";
  if (R.ByHolder.empty()) {
    OS << "  none — no thread ever waited for another\n";
  } else {
    for (const HolderAttribution &A : R.ByHolder) {
      OS << "  lock 0x" << std::hex << A.Lock << std::dec << " held by thread "
         << A.HolderTid << ": " << A.Units << " units over " << A.Waits
         << (A.Waits == 1 ? " wait" : " waits");
      if (!A.Site.empty())
        OS << "  (lock site " << A.Site << ")";
      OS << "\n";
    }
  }
  return OS.str();
}

std::string renderCriticalPath(const CriticalPath &P, const TraceData &Data) {
  std::ostringstream OS;
  if (P.Steps.empty()) {
    OS << "critical path: empty trace\n";
    return OS.str();
  }
  uint64_t Span = Data.Events.size() > 1 ? Data.Events.size() - 1 : 1;
  OS << "critical path: " << P.TotalUnits << " of " << Span
     << " stream units";
  appendPercent(OS, P.TotalUnits, Span);
  OS << "\n";
  OS << "  (no schedule can finish this run in fewer units; shortening "
        "it needs one of the edges below removed)\n";

  // Compress runs of program-order steps into one segment per stay on
  // a thread; print each cross-thread edge between segments.
  size_t SegStart = P.Steps.front().Event;
  uint64_t SegUnits = 0;
  auto flush = [&](size_t SegEnd) {
    OS << "  thread " << Data.Events[SegEnd].Tid << "  events [" << SegStart
       << ".." << SegEnd << "]  +" << SegUnits << "\n";
  };
  for (size_t I = 1; I < P.Steps.size(); ++I) {
    const CriticalPath::Step &S = P.Steps[I];
    if (S.V == CriticalPath::Step::Via::Program) {
      SegUnits += S.Units;
      continue;
    }
    flush(P.Steps[I - 1].Event);
    const char *Name = S.V == CriticalPath::Step::Via::Spawn ? "spawn"
                       : S.V == CriticalPath::Step::Via::LockHandoff
                           ? "lock-handoff"
                           : "cast-drain";
    OS << "    --" << Name;
    if (S.V == CriticalPath::Step::Via::LockHandoff)
      OS << " lock 0x" << std::hex << Data.Events[S.Event].Addr << std::dec;
    OS << " -> thread " << Data.Events[S.Event].Tid << "  +" << S.Units
       << "\n";
    SegStart = S.Event;
    SegUnits = 0;
  }
  flush(P.Steps.back().Event);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Request-level view (sharc-span, DESIGN.md §16)
//===----------------------------------------------------------------------===//

uint64_t RequestView::exclusiveNs(SpanStage S) const {
  uint64_t D = stageNs(S);
  if (S == SpanStage::Handler) {
    // The lock sections run nested inside the handler; subtract them so
    // "handler-dominant" means the handler's own work, not its waits.
    uint64_t Nested =
        stageNs(SpanStage::LockWait) + stageNs(SpanStage::LockHold);
    D = D > Nested ? D - Nested : 0;
  }
  return D;
}

bool RequestView::complete() const {
  uint32_t All = (1u << NumSpanStages) - 1;
  return (HasBegin & All) == All && (HasEnd & All) == All;
}

uint64_t RequestView::beginNs() const {
  uint64_t B = UINT64_MAX;
  for (unsigned K = 0; K < NumSpanStages; ++K)
    if (HasBegin & (1u << K))
      B = std::min(B, BeginNs[K]);
  return B == UINT64_MAX ? 0 : B;
}

uint64_t RequestView::endNs() const {
  uint64_t E = 0;
  for (unsigned K = 0; K < NumSpanStages; ++K)
    if (HasEnd & (1u << K))
      E = std::max(E, EndNs[K]);
  return E;
}

SpanStage RequestView::dominantStage() const {
  SpanStage Best = SpanStage::Accept;
  uint64_t BestNs = 0;
  for (unsigned K = 0; K < NumSpanStages; ++K) {
    uint64_t D = exclusiveNs(static_cast<SpanStage>(K));
    if (D > BestNs) {
      BestNs = D;
      Best = static_cast<SpanStage>(K);
    }
  }
  return Best;
}

RequestsReport buildRequests(const TraceData &Data) {
  RequestsReport R;
  std::unordered_map<uint64_t, size_t> Idx;
  for (const SpanRecord &S : Data.Spans) {
    auto [It, New] = Idx.try_emplace(S.Req, R.Requests.size());
    if (New) {
      RequestView V;
      V.Req = S.Req;
      R.Requests.push_back(V);
    }
    RequestView &V = R.Requests[It->second];
    unsigned K = static_cast<unsigned>(S.Stage);
    if (S.Begin) {
      V.BeginNs[K] = S.TimeNs;
      V.HasBegin |= 1u << K;
      V.Tids[K] = S.Tid;
      switch (S.Stage) {
      case SpanStage::Accept:
        V.Client = S.Arg;
        // Each admission attempt opens a fresh Accept span: the count
        // is the retry story.
        ++V.Attempts;
        break;
      case SpanStage::Handler:
        V.Op = S.Arg;
        break;
      case SpanStage::LockWait:
      case SpanStage::LockHold:
        V.Lock = S.Arg;
        break;
      default:
        break;
      }
    } else {
      V.EndNs[K] = S.TimeNs;
      V.HasEnd |= 1u << K;
      // Outcome codes ride end-record Args (sharc-storm). Accept ends
      // are last-wins — all from the acceptor's ring, so stream order
      // IS attempt order and the final admission decides. A nonzero
      // Handler end (deadline drop) overrides; a zero one changes
      // nothing, so admission's verdict survives any drain order.
      if (S.Stage == SpanStage::Accept)
        V.Outcome = static_cast<uint8_t>(S.Arg);
      else if (S.Stage == SpanStage::Handler && S.Arg != 0)
        V.Outcome = static_cast<uint8_t>(S.Arg);
    }
  }
  std::sort(R.Requests.begin(), R.Requests.end(),
            [](const RequestView &A, const RequestView &B) {
              return A.Req < B.Req;
            });
  for (const RequestView &V : R.Requests) {
    if (V.Outcome == OutcomeShed)
      ++R.Shed;
    else if (V.Outcome == OutcomeTimedOut)
      ++R.TimedOut;
    else
      (V.complete() ? R.Complete : R.Incomplete)++;
    if (V.Attempts > 1)
      ++R.Retried;
  }
  return R;
}

namespace {

struct HoldInterval {
  uint64_t Begin = 0;
  uint64_t End = 0;
  uint64_t Req = 0;
};

std::string fmtUs(uint64_t Ns) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1fus", double(Ns) / 1000.0);
  return Buf;
}

std::string fmtLock(uint64_t Lock) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%llx", (unsigned long long)Lock);
  return Buf;
}

} // namespace

std::vector<TailEntry> tailRequests(const RequestsReport &R,
                                    const TraceData &Data, double Pct) {
  std::vector<TailEntry> Tail;
  std::vector<const RequestView *> Done;
  // Only Ok-outcome complete requests belong in the tail: a shed or
  // timed-out request's short span tree is an outcome, not a latency —
  // counting it as handler time would poison the anatomy.
  for (const RequestView &V : R.Requests)
    if (V.complete() && V.Outcome == OutcomeOk)
      Done.push_back(&V);
  if (Done.empty())
    return Tail;
  std::stable_sort(Done.begin(), Done.end(),
                   [](const RequestView *A, const RequestView *B) {
                     return A->totalNs() > B->totalNs();
                   });
  size_t K = static_cast<size_t>(double(Done.size()) * Pct / 100.0 + 0.999);
  K = std::max<size_t>(1, std::min(K, Done.size()));

  // Per-lock hold intervals, sorted by begin. A mutex's holds never
  // overlap, so the ends are sorted too and the overlap lookup can
  // binary-search.
  std::unordered_map<uint64_t, std::vector<HoldInterval>> Holds;
  for (const RequestView &V : R.Requests)
    if (V.has(SpanStage::LockHold))
      Holds[V.Lock].push_back(
          {V.BeginNs[static_cast<unsigned>(SpanStage::LockHold)],
           V.EndNs[static_cast<unsigned>(SpanStage::LockHold)], V.Req});
  for (auto &[Lock, Iv] : Holds)
    std::sort(Iv.begin(), Iv.end(),
              [](const HoldInterval &A, const HoldInterval &B) {
                return A.Begin < B.Begin;
              });

  std::unordered_map<uint64_t, std::string> SiteByLock;
  for (const LockProfileRecord &L : Data.Locks)
    if (!L.File.empty() && !SiteByLock.count(L.Lock))
      SiteByLock[L.Lock] = L.File + ":" + std::to_string(L.Line);

  // Hottest profiled check site, for handler-bound requests.
  const SiteProfileRecord *HotSite = nullptr;
  for (const SiteProfileRecord &S : Data.Sites)
    if (!HotSite || S.Cycles > HotSite->Cycles)
      HotSite = &S;

  for (size_t I = 0; I < K; ++I) {
    const RequestView &V = *Done[I];
    TailEntry E;
    E.Req = V.Req;
    E.TotalNs = V.totalNs();
    E.Dominant = V.dominantStage();
    E.DominantNs = V.exclusiveNs(E.Dominant);
    switch (E.Dominant) {
    case SpanStage::LockWait: {
      uint64_t WaitB = V.BeginNs[static_cast<unsigned>(SpanStage::LockWait)];
      uint64_t WaitE = V.EndNs[static_cast<unsigned>(SpanStage::LockWait)];
      uint64_t BestOverlap = 0, Covered = 0;
      const HoldInterval *Holder = nullptr;
      if (auto It = Holds.find(V.Lock); It != Holds.end()) {
        const auto &Iv = It->second;
        // First hold that could still overlap [WaitB, WaitE): ends are
        // sorted, so skip everything that ended before the wait began.
        auto Lo = std::lower_bound(Iv.begin(), Iv.end(), WaitB,
                                   [](const HoldInterval &H, uint64_t T) {
                                     return H.End <= T;
                                   });
        for (auto HI = Lo; HI != Iv.end() && HI->Begin < WaitE; ++HI) {
          if (HI->Req == V.Req)
            continue;
          uint64_t B = std::max(HI->Begin, WaitB);
          uint64_t En = std::min(HI->End, WaitE);
          if (En <= B)
            continue;
          Covered += En - B;
          if (En - B >= BestOverlap) {
            BestOverlap = En - B;
            Holder = &*HI;
          }
        }
      }
      // Holds that cover less than half the wait did not cause it: the
      // lock sat free while the waiter was descheduled, so no holder is
      // blamed.
      if (2 * Covered < WaitE - WaitB)
        Holder = nullptr;
      E.C = Holder ? TailEntry::Cause::LockHolder
                   : TailEntry::Cause::LockWaiter;
      E.Detail = "lock wait " + fmtUs(E.DominantNs) + " on lock " +
                 fmtLock(V.Lock);
      if (Holder) {
        E.HasHolder = true;
        E.HolderReq = Holder->Req;
        E.Detail += " — held by req " + std::to_string(Holder->Req) +
                    " (lock-hold " + fmtUs(Holder->End - Holder->Begin) + ")";
      }
      if (auto It = SiteByLock.find(V.Lock); It != SiteByLock.end())
        E.Detail += "; holder site " + It->second;
      break;
    }
    case SpanStage::LockHold:
      E.C = TailEntry::Cause::LockHeld;
      E.Detail = "long critical section: held lock " + fmtLock(V.Lock) +
                 " for " + fmtUs(E.DominantNs);
      break;
    case SpanStage::RingWait:
      E.C = TailEntry::Cause::QueueWait;
      E.Detail = "queue wait: " + fmtUs(E.DominantNs) +
                 " in the ingress ring before a worker dequeued it";
      break;
    case SpanStage::LogWait:
    case SpanStage::Logger:
      E.C = TailEntry::Cause::LogBacklog;
      E.Detail = "logger backlog: " + fmtUs(E.DominantNs) +
                 " from log enqueue to drain";
      break;
    case SpanStage::Accept:
      E.C = TailEntry::Cause::AcceptCost;
      E.Detail = "acceptor-side setup took " + fmtUs(E.DominantNs);
      break;
    case SpanStage::Handler:
    default:
      if (HotSite) {
        E.C = TailEntry::Cause::CheckCost;
        E.Detail = "handler cpu " + fmtUs(E.DominantNs) +
                   "; hottest check site " + HotSite->File + ":" +
                   std::to_string(HotSite->Line) + " (" + HotSite->LValue +
                   ", " + std::to_string(HotSite->Cycles) + " cycles)";
      } else {
        E.C = TailEntry::Cause::HandlerCpu;
        E.Detail = "handler cpu " + fmtUs(E.DominantNs) +
                   " (no site profile in trace)";
      }
      break;
    }
    Tail.push_back(std::move(E));
  }
  return Tail;
}

std::string renderRequests(const RequestsReport &R, const TraceData &Data,
                           double TailPct) {
  std::ostringstream OS;
  OS << "requests: " << R.Requests.size() << " with spans (" << R.Complete
     << " complete, " << R.Incomplete << " incomplete)\n";
  if (R.Shed != 0 || R.TimedOut != 0 || R.Retried != 0)
    OS << "outcomes: " << R.Shed << " shed, " << R.TimedOut
       << " timed-out, " << R.Retried
       << " retried (non-ok outcomes are excluded from the latency "
          "tables and the tail)\n";
  if (R.Complete == 0) {
    OS << "no complete request-span sets — was the producer run with "
          "--trace-out?\n";
    return OS.str();
  }

  // Exact per-stage percentiles over complete requests (offline
  // analysis: sorting beats a histogram's bucket error).
  std::vector<uint64_t> Durations;
  OS << "\nper-stage latency over complete requests (us):\n";
  OS << "  stage            p50      p99     p999      max\n";
  auto quantile = [&](double Q) -> uint64_t {
    size_t N = Durations.size();
    size_t I = static_cast<size_t>(Q * double(N));
    return Durations[std::min(I, N - 1)];
  };
  for (unsigned K = 0; K < NumSpanStages; ++K) {
    Durations.clear();
    for (const RequestView &V : R.Requests)
      if (V.complete() && V.Outcome == OutcomeOk)
        Durations.push_back(V.stageNs(static_cast<SpanStage>(K)));
    std::sort(Durations.begin(), Durations.end());
    char Line[128];
    std::snprintf(Line, sizeof(Line),
                  "  %-10s %9.1f %8.1f %8.1f %8.1f\n",
                  spanStageName(static_cast<SpanStage>(K)),
                  double(quantile(0.50)) / 1000.0,
                  double(quantile(0.99)) / 1000.0,
                  double(quantile(0.999)) / 1000.0,
                  double(Durations.back()) / 1000.0);
    OS << Line;
  }
  Durations.clear();
  for (const RequestView &V : R.Requests)
    if (V.complete() && V.Outcome == OutcomeOk)
      Durations.push_back(V.totalNs());
  std::sort(Durations.begin(), Durations.end());
  {
    char Line[128];
    std::snprintf(Line, sizeof(Line), "  %-10s %9.1f %8.1f %8.1f %8.1f\n",
                  "total", double(quantile(0.50)) / 1000.0,
                  double(quantile(0.99)) / 1000.0,
                  double(quantile(0.999)) / 1000.0,
                  double(Durations.back()) / 1000.0);
    OS << Line;
  }

  std::vector<TailEntry> Tail = tailRequests(R, Data, TailPct);
  OS << "\ntail anatomy: slowest " << Tail.size() << " of " << R.Complete
     << " complete requests (" << TailPct << "%):\n";
  for (const TailEntry &E : Tail) {
    OS << "  req " << E.Req << "  total " << fmtUs(E.TotalNs)
       << "  dominant " << spanStageName(E.Dominant) << " "
       << fmtUs(E.DominantNs) << "\n";
    OS << "    cause: " << E.Detail << "\n";
  }
  return OS.str();
}

uint64_t requestTreeDigest(const RequestsReport &R) {
  uint64_t H = 1469598103934665603ull;
  auto mix = [&H](uint64_t V) {
    for (unsigned I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 1099511628211ull;
    }
  };
  for (const RequestView &V : R.Requests) {
    mix(V.Req);
    mix(V.Client);
    mix(V.Op);
    mix(V.HasBegin);
    mix(V.HasEnd);
  }
  mix(R.Requests.size());
  return H;
}

} // namespace sharc::obs

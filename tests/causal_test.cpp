//===-- tests/causal_test.cpp - causal analysis unit tests ----------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// sharc-live's trace-side pieces (DESIGN.md §13): happens-before graph
// construction over hand-built traces with known lock orders (exact
// blocked-time attribution and critical path), the incremental tail
// parser's agreement with the batch parser on every byte prefix, and
// the self-validating HTML report.
//
//===----------------------------------------------------------------------===//

#include "obs/Causal.h"
#include "obs/ReportHtml.h"
#include "obs/TraceFile.h"
#include "obs/TraceTail.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

using namespace sharc;
using namespace sharc::obs;

namespace {

Event ev(EventKind K, uint32_t Tid, uint64_t Addr) {
  Event Ev;
  Ev.K = K;
  Ev.Tid = Tid;
  Ev.Addr = Addr;
  return Ev;
}

/// Serialises \p Events (plus an optional final stats sample) and parses
/// the bytes back, so every test works on data that went through the
/// real on-disk format.
TraceData roundTrip(const std::vector<Event> &Events, bool WithStats = false) {
  TraceWriter W;
  for (const Event &E : Events)
    W.event(E);
  if (WithStats) {
    rt::StatsSnapshot S;
    S.DynamicReads = 3;
    S.DynamicWrites = 2;
    W.stats(S);
  }
  TraceData Data;
  std::string Error;
  EXPECT_TRUE(parseTrace(W.buffer(), Data, Error)) << Error;
  return Data;
}

//===----------------------------------------------------------------------===//
// Happens-before construction and blocked-time attribution
//===----------------------------------------------------------------------===//

// Thread 1 spawns thread 2, then both contend on lock 0x10. The stream
// puts thread 1's critical section first, so thread 2's acquire at
// index 6 waited from its previous event (index 2) until the release at
// index 5: exactly 3 stream units attributed to holder thread 1.
std::vector<Event> contendedTrace() {
  return {
      ev(EventKind::ThreadStart, 1, 0),    // 0
      ev(EventKind::SpawnEdge, 1, 77),     // 1 (token 77)
      ev(EventKind::ThreadStart, 2, 77),   // 2 spawn edge 1 -> 2
      ev(EventKind::LockAcquire, 1, 0x10), // 3 (lock free: no edge)
      ev(EventKind::Write, 1, 100),        // 4
      ev(EventKind::LockRelease, 1, 0x10), // 5
      ev(EventKind::LockAcquire, 2, 0x10), // 6 handoff edge 5 -> 6
      ev(EventKind::Write, 2, 200),        // 7
      ev(EventKind::LockRelease, 2, 0x10), // 8
      ev(EventKind::ThreadExit, 2, 0),     // 9
  };
}

TEST(Causal, SpawnAndLockHandoffEdges) {
  CausalReport R = buildCausal(roundTrip(contendedTrace()));
  ASSERT_EQ(R.Edges.size(), 2u);
  EXPECT_EQ(R.Edges[0].K, HBEdge::Kind::Spawn);
  EXPECT_EQ(R.Edges[0].From, 1u);
  EXPECT_EQ(R.Edges[0].To, 2u);
  EXPECT_EQ(R.Edges[1].K, HBEdge::Kind::LockHandoff);
  EXPECT_EQ(R.Edges[1].From, 5u);
  EXPECT_EQ(R.Edges[1].To, 6u);
}

TEST(Causal, ExactBlockedTimeAttribution) {
  CausalReport R = buildCausal(roundTrip(contendedTrace()));
  ASSERT_EQ(R.Blocked.size(), 1u);
  const BlockedSpan &B = R.Blocked[0];
  EXPECT_EQ(B.Tid, 2u);
  EXPECT_EQ(B.HolderTid, 1u);
  EXPECT_EQ(B.Lock, 0x10u);
  EXPECT_EQ(B.ReadyAt, 2u);
  EXPECT_EQ(B.ReleaseAt, 5u);
  EXPECT_EQ(B.AcquireAt, 6u);
  EXPECT_EQ(B.blockedUnits(), 3u);

  ASSERT_EQ(R.ByHolder.size(), 1u);
  EXPECT_EQ(R.ByHolder[0].Lock, 0x10u);
  EXPECT_EQ(R.ByHolder[0].HolderTid, 1u);
  EXPECT_EQ(R.ByHolder[0].Units, 3u);
  EXPECT_EQ(R.ByHolder[0].Waits, 1u);
  EXPECT_EQ(R.totalBlockedUnits(), 3u);

  ASSERT_EQ(R.Threads.size(), 2u);
  EXPECT_EQ(R.Threads[0].Tid, 1u);
  EXPECT_EQ(R.Threads[0].BlockedUnits, 0u);
  EXPECT_EQ(R.Threads[1].Tid, 2u);
  EXPECT_EQ(R.Threads[1].FirstEvent, 2u);
  EXPECT_EQ(R.Threads[1].LastEvent, 9u);
  EXPECT_EQ(R.Threads[1].BlockedUnits, 3u);
  EXPECT_EQ(R.Threads[1].runUnits(), 4u); // span 7 - blocked 3
}

TEST(Causal, UncontendedAcquireIsNotBlocked) {
  // Release at index 2 happens before thread 2's previous event (index
  // 3), so the lock was already free when thread 2 arrived: a handoff
  // edge exists (the runtime ordered the acquires) but no blocked span.
  CausalReport R = buildCausal(roundTrip({
      ev(EventKind::ThreadStart, 1, 0),   // 0
      ev(EventKind::LockAcquire, 1, 0x8), // 1
      ev(EventKind::LockRelease, 1, 0x8), // 2
      ev(EventKind::ThreadStart, 2, 0),   // 3
      ev(EventKind::LockAcquire, 2, 0x8), // 4
      ev(EventKind::LockRelease, 2, 0x8), // 5
  }));
  ASSERT_EQ(R.Edges.size(), 1u);
  EXPECT_EQ(R.Edges[0].K, HBEdge::Kind::LockHandoff);
  EXPECT_TRUE(R.Blocked.empty());
  EXPECT_EQ(R.totalBlockedUnits(), 0u);
}

TEST(Causal, ReadersNeverBlockReaders) {
  CausalReport R = buildCausal(roundTrip({
      ev(EventKind::ThreadStart, 1, 0),         // 0
      ev(EventKind::SharedLockAcquire, 1, 7),   // 1
      ev(EventKind::ThreadStart, 2, 0),         // 2
      ev(EventKind::SharedLockAcquire, 2, 7),   // 3 no edge: no excl release
      ev(EventKind::SharedLockRelease, 1, 7),   // 4
      ev(EventKind::SharedLockRelease, 2, 7),   // 5
      ev(EventKind::LockAcquire, 1, 7),         // 6 blocked by 5 (tid 2)
      ev(EventKind::LockRelease, 1, 7),         // 7
  }));
  // The only cross-thread lock edge is the exclusive acquire waiting
  // for the last shared release; the reader-reader overlap made none.
  ASSERT_EQ(R.Edges.size(), 1u);
  EXPECT_EQ(R.Edges[0].K, HBEdge::Kind::LockHandoff);
  EXPECT_EQ(R.Edges[0].From, 5u);
  EXPECT_EQ(R.Edges[0].To, 6u);
  ASSERT_EQ(R.Blocked.size(), 1u);
  EXPECT_EQ(R.Blocked[0].Tid, 1u);
  EXPECT_EQ(R.Blocked[0].HolderTid, 2u);
  EXPECT_EQ(R.Blocked[0].blockedUnits(), 1u); // ready at 4, released at 5
}

TEST(Causal, CastDrainEdgeFromForeignAccess) {
  CausalReport R = buildCausal(roundTrip({
      ev(EventKind::ThreadStart, 1, 0), // 0
      ev(EventKind::Write, 1, 500),     // 1
      ev(EventKind::ThreadStart, 2, 0), // 2
      ev(EventKind::Write, 2, 500),     // 3 last foreign access for tid 1
      ev(EventKind::SharingCast, 1, 500), // 4 drain edge 3 -> 4
  }));
  ASSERT_EQ(R.Edges.size(), 1u);
  EXPECT_EQ(R.Edges[0].K, HBEdge::Kind::CastDrain);
  EXPECT_EQ(R.Edges[0].From, 3u);
  EXPECT_EQ(R.Edges[0].To, 4u);
}

TEST(Causal, LockSiteJoinedFromProfileRecord) {
  TraceWriter W;
  for (const Event &E : contendedTrace())
    W.event(E);
  LockProfileRecord L;
  L.Tid = 1;
  L.Lock = 0x10;
  L.File = "f.mc";
  L.Line = 4;
  L.Acquires = 2;
  W.lockProfile(L);
  TraceData Data;
  std::string Error;
  ASSERT_TRUE(parseTrace(W.buffer(), Data, Error)) << Error;
  CausalReport R = buildCausal(Data);
  ASSERT_EQ(R.ByHolder.size(), 1u);
  EXPECT_EQ(R.ByHolder[0].Site, "f.mc:4");
  EXPECT_NE(renderTimeline(R, Data).find("(lock site f.mc:4)"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Critical path
//===----------------------------------------------------------------------===//

TEST(CriticalPath, LockHandoffOnThePath) {
  // Thread 2's first event is the contended acquire, so the only chain
  // into it is the lock hand-off — the path must cross threads there.
  TraceData Data = roundTrip({
      ev(EventKind::ThreadStart, 1, 0),   // 0
      ev(EventKind::LockAcquire, 1, 5),   // 1
      ev(EventKind::Write, 1, 100),       // 2
      ev(EventKind::LockRelease, 1, 5),   // 3
      ev(EventKind::LockAcquire, 2, 5),   // 4 handoff 3 -> 4
      ev(EventKind::Write, 2, 200),       // 5
      ev(EventKind::LockRelease, 2, 5),   // 6
  });
  CausalReport R = buildCausal(Data);
  CriticalPath P = criticalPath(R, Data);
  EXPECT_EQ(P.TotalUnits, 6u);
  ASSERT_FALSE(P.Steps.empty());
  EXPECT_EQ(P.Steps.front().V, CriticalPath::Step::Via::Start);
  EXPECT_EQ(P.Steps.front().Event, 0u);
  EXPECT_EQ(P.Steps.back().Event, 6u);
  bool SawHandoff = false;
  for (const CriticalPath::Step &S : P.Steps)
    if (S.V == CriticalPath::Step::Via::LockHandoff) {
      SawHandoff = true;
      EXPECT_EQ(S.Event, 4u);
      EXPECT_EQ(S.Units, 1u);
    }
  EXPECT_TRUE(SawHandoff);
  std::string Text = renderCriticalPath(P, Data);
  EXPECT_NE(Text.find("critical path: 6 of 6 stream units"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("--lock-handoff lock 0x5 -> thread 2  +1"),
            std::string::npos)
      << Text;
}

TEST(CriticalPath, SpawnChainSpansTheRun) {
  TraceData Data = roundTrip(contendedTrace());
  CriticalPath P = criticalPath(buildCausal(Data), Data);
  // The chain runs from event 0 to the final event: 9 stream units.
  EXPECT_EQ(P.TotalUnits, 9u);
  EXPECT_EQ(P.Steps.back().Event, 9u);
  EXPECT_NE(renderCriticalPath(P, Data).find("--spawn"), std::string::npos);
}

TEST(CriticalPath, EmptyTrace) {
  TraceData Data = roundTrip({});
  CriticalPath P = criticalPath(buildCausal(Data), Data);
  EXPECT_EQ(P.TotalUnits, 0u);
  EXPECT_TRUE(P.Steps.empty());
  EXPECT_NE(renderCriticalPath(P, Data).find("empty trace"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Abnormal-end and truncated traces still analyse
//===----------------------------------------------------------------------===//

TEST(Causal, AbnormalEndTraceProducesTimeline) {
  TraceWriter W;
  for (const Event &E : contendedTrace())
    W.event(E);
  W.finishAbnormal(/*Signal=*/11, /*Policy=*/0);
  TraceData Data;
  std::string Error;
  ASSERT_TRUE(parseTrace(W.buffer(), Data, Error)) << Error;
  ASSERT_TRUE(Data.AbnormalEnd);
  CausalReport R = buildCausal(Data);
  EXPECT_EQ(R.totalBlockedUnits(), 3u); // analysis unaffected by the crash
  std::string Text = renderTimeline(R, Data);
  EXPECT_NE(Text.find("abnormal end (signal 11)"), std::string::npos) << Text;
}

TEST(Causal, TruncatedTraceStillProducesTimeline) {
  TraceWriter W;
  for (const Event &E : contendedTrace())
    W.event(E);
  const std::string &Full = W.buffer();
  // Cut inside the end record: batch parsing fails, the tail parser
  // recovers every whole record, and the analysis covers the prefix.
  TailParser P;
  P.push(std::string_view(Full).substr(0, Full.size() - 1));
  EXPECT_FALSE(P.done());
  EXPECT_FALSE(P.corrupt());
  ASSERT_EQ(P.data().Events.size(), 10u);
  CausalReport R = buildCausal(P.data());
  EXPECT_EQ(R.totalBlockedUnits(), 3u);
  EXPECT_FALSE(renderTimeline(R, P.data()).empty());
}

//===----------------------------------------------------------------------===//
// Tail parser: batch agreement on every byte prefix, resumability
//===----------------------------------------------------------------------===//

std::string sampleTraceBytes() {
  TraceWriter W;
  for (const Event &E : contendedTrace())
    W.event(E);
  rt::StatsSnapshot S;
  S.DynamicReads = 4;
  S.DynamicWrites = 3;
  S.LockChecks = 2;
  W.stats(S);
  return W.buffer(); // finished: ends with the end record
}

TEST(TraceTail, AgreesWithBatchOnEveryPrefix) {
  const std::string Bytes = sampleTraceBytes();
  for (size_t L = 0; L <= Bytes.size(); ++L) {
    std::string_view Prefix(Bytes.data(), L);
    TraceData Batch;
    std::string BatchError;
    bool BatchOk = parseTrace(Prefix, Batch, BatchError);

    TailParser P;
    P.push(Prefix);
    if (BatchOk) {
      EXPECT_TRUE(P.done()) << "prefix " << L;
      EXPECT_TRUE(P.diagnosis().empty());
    } else {
      EXPECT_FALSE(P.done()) << "prefix " << L;
      EXPECT_EQ(P.diagnosis(), BatchError) << "prefix " << L;
    }
    EXPECT_EQ(P.data().Events.size(), Batch.Events.size()) << "prefix " << L;
    EXPECT_EQ(P.data().Samples.size(), Batch.Samples.size()) << "prefix " << L;
  }
}

TEST(TraceTail, ResumableAtEverySplitPoint) {
  const std::string Bytes = sampleTraceBytes();
  TraceData Batch;
  std::string Error;
  ASSERT_TRUE(parseTrace(Bytes, Batch, Error));
  for (size_t L = 0; L <= Bytes.size(); ++L) {
    TailParser P;
    P.push(std::string_view(Bytes.data(), L));
    P.push(std::string_view(Bytes.data() + L, Bytes.size() - L));
    ASSERT_TRUE(P.done()) << "split at " << L << ": " << P.diagnosis();
    EXPECT_EQ(P.data().Events.size(), Batch.Events.size());
    ASSERT_EQ(P.data().Samples.size(), Batch.Samples.size());
    EXPECT_EQ(P.data().Samples.back(), Batch.Samples.back());
    EXPECT_EQ(P.recordCount(), 11u); // 10 events + 1 stats record
  }
}

TEST(TraceTail, CorruptionIsSticky) {
  std::string Bytes = sampleTraceBytes();
  Bytes[12] = 0x3f; // clobber the first record's tag: unknown tag 63
  TailParser P;
  P.push(Bytes);
  EXPECT_TRUE(P.corrupt());
  EXPECT_NE(P.diagnosis().find("unknown record tag"), std::string::npos);
  P.push("more bytes");
  EXPECT_TRUE(P.corrupt()); // does not resurrect
}

TEST(TraceTail, TrailingBytesAfterEndAreCorrupt) {
  TailParser P;
  P.push(sampleTraceBytes());
  ASSERT_TRUE(P.done());
  P.push("x");
  EXPECT_TRUE(P.corrupt());
}

//===----------------------------------------------------------------------===//
// Self-validated HTML report
//===----------------------------------------------------------------------===//

TEST(ReportHtml, RendersAndSelfValidates) {
  TraceData Data = roundTrip(contendedTrace(), /*WithStats=*/true);
  CausalReport R = buildCausal(Data);
  std::string Html = renderHtmlReport(Data, R, "unit test");
  std::string Error;
  EXPECT_TRUE(validateHtmlReport(Html, Error)) << Error;
  for (const char *Id : {"id=\"summary\"", "id=\"timeline\"",
                         "id=\"critical-path\"", "id=\"hot-sites\"",
                         "id=\"violations\""})
    EXPECT_NE(Html.find(Id), std::string::npos) << Id;
}

TEST(ReportHtml, TruncationNoteSurfaces) {
  TraceData Data = roundTrip(contendedTrace());
  CausalReport R = buildCausal(Data);
  std::string Html =
      renderHtmlReport(Data, R, "t", "cut mid event record; partial");
  std::string Error;
  EXPECT_TRUE(validateHtmlReport(Html, Error)) << Error;
  EXPECT_NE(Html.find("cut mid event record; partial"), std::string::npos);
}

TEST(ReportHtml, ValidatorRejectsTampering) {
  TraceData Data = roundTrip(contendedTrace());
  CausalReport R = buildCausal(Data);
  std::string Html = renderHtmlReport(Data, R, "t");
  std::string Error;

  std::string MissingSection = Html;
  size_t At = MissingSection.find("id=\"violations\"");
  ASSERT_NE(At, std::string::npos);
  MissingSection.replace(At, 15, "id=\"elsewhere!\"");
  EXPECT_FALSE(validateHtmlReport(MissingSection, Error));

  std::string ExternalRef = Html;
  ExternalRef.insert(ExternalRef.find("</body>"),
                     "<img src=\"http://example.com/x.png\">");
  EXPECT_FALSE(validateHtmlReport(ExternalRef, Error));

  std::string Unbalanced = Html;
  Unbalanced.insert(Unbalanced.find("</body>"), "<div>");
  EXPECT_FALSE(validateHtmlReport(Unbalanced, Error));
}

//===----------------------------------------------------------------------===//
// Request-level view (sharc-span, DESIGN.md §16)
//===----------------------------------------------------------------------===//

void pushSpan(TraceData &Data, uint64_t Req, SpanStage Stage, bool Begin,
              uint64_t TimeNs, uint64_t Arg = 0, uint32_t Tid = 2) {
  SpanRecord S;
  S.Tid = Tid;
  S.Req = Req;
  S.Stage = Stage;
  S.Begin = Begin;
  S.TimeNs = TimeNs;
  S.Arg = Arg;
  Data.Spans.push_back(S);
  Data.SpanPos.push_back(0);
}

/// Appends a full seven-stage request whose pipeline runs sequentially
/// from \p T0: per-stage durations in \p Dur, with the lock sections
/// nested inside the handler (Dur[Handler] is the handler's exclusive
/// time, as in the real server).
void addRequest(TraceData &Data, uint64_t Req, uint64_t T0,
                const uint64_t (&Dur)[NumSpanStages], uint64_t Lock = 0x10,
                uint64_t Client = 5, uint64_t Op = 1) {
  auto D = [&](SpanStage S) { return Dur[static_cast<unsigned>(S)]; };
  uint64_t AcceptE = T0 + D(SpanStage::Accept);
  uint64_t RingE = AcceptE + D(SpanStage::RingWait);
  uint64_t WaitE = RingE + D(SpanStage::LockWait);
  uint64_t HoldE = WaitE + D(SpanStage::LockHold);
  uint64_t HandlerE = HoldE + D(SpanStage::Handler);
  uint64_t LogWaitE = HandlerE + D(SpanStage::LogWait);
  uint64_t LoggerE = LogWaitE + D(SpanStage::Logger);
  pushSpan(Data, Req, SpanStage::Accept, true, T0, Client, 1);
  pushSpan(Data, Req, SpanStage::Accept, false, AcceptE, 0, 1);
  pushSpan(Data, Req, SpanStage::RingWait, true, AcceptE, 0, 1);
  pushSpan(Data, Req, SpanStage::RingWait, false, RingE);
  pushSpan(Data, Req, SpanStage::Handler, true, RingE, Op);
  pushSpan(Data, Req, SpanStage::LockWait, true, RingE, Lock);
  pushSpan(Data, Req, SpanStage::LockWait, false, WaitE, 0);
  pushSpan(Data, Req, SpanStage::LockHold, true, WaitE, Lock);
  pushSpan(Data, Req, SpanStage::LockHold, false, HoldE, 0);
  pushSpan(Data, Req, SpanStage::Handler, false, HandlerE);
  pushSpan(Data, Req, SpanStage::LogWait, true, HandlerE);
  pushSpan(Data, Req, SpanStage::LogWait, false, LogWaitE, 0, 4);
  pushSpan(Data, Req, SpanStage::Logger, true, LogWaitE, 0, 4);
  pushSpan(Data, Req, SpanStage::Logger, false, LoggerE, 0, 4);
}

TEST(Requests, BuildGroupsStagesAndCompleteness) {
  TraceData Data;
  uint64_t Dur[NumSpanStages] = {100, 200, 5000, 300, 400, 600, 700};
  addRequest(Data, 11, 1000, Dur, /*Lock=*/0x99, /*Client=*/42, /*Op=*/3);
  // Request 12 is cut mid-pipeline: no Logger end.
  addRequest(Data, 12, 2000, Dur);
  Data.Spans.pop_back();
  Data.SpanPos.pop_back();

  RequestsReport R = buildRequests(Data);
  ASSERT_EQ(R.Requests.size(), 2u);
  EXPECT_EQ(R.Complete, 1u);
  EXPECT_EQ(R.Incomplete, 1u);

  const RequestView &V = R.Requests[0];
  EXPECT_EQ(V.Req, 11u);
  EXPECT_EQ(V.Client, 42u);
  EXPECT_EQ(V.Op, 3u);
  EXPECT_EQ(V.Lock, 0x99u);
  EXPECT_TRUE(V.complete());
  EXPECT_EQ(V.stageNs(SpanStage::Accept), 100u);
  EXPECT_EQ(V.stageNs(SpanStage::RingWait), 200u);
  // The handler envelope includes the nested lock sections...
  EXPECT_EQ(V.stageNs(SpanStage::Handler), 5000u + 300u + 400u);
  // ...but its exclusive time subtracts them back out.
  EXPECT_EQ(V.exclusiveNs(SpanStage::Handler), 5000u);
  EXPECT_EQ(V.dominantStage(), SpanStage::Handler);
  EXPECT_EQ(V.totalNs(), 100u + 200u + 300u + 400u + 5000u + 600u + 700u);

  EXPECT_FALSE(R.Requests[1].complete());
  EXPECT_FALSE(R.Requests[1].has(SpanStage::Logger));
}

TEST(Requests, TailNamesLockHolderFromOverlappingHold) {
  // Victim request 2 waits on lock 0x10 from t=100 to t=600 while
  // request 1 holds it from t=50 to t=550: the overlapping hold IS the
  // blocker, and the attribution must say so by request id.
  TraceData Data;
  uint64_t HolderDur[NumSpanStages] = {10, 10, 10, 5, 500, 10, 10};
  addRequest(Data, 1, 25, HolderDur); // LockHold [50, 550)
  uint64_t VictimDur[NumSpanStages] = {10, 10, 10, 500, 5, 10, 10};
  addRequest(Data, 2, 80, VictimDur); // LockWait [100, 600)

  RequestsReport R = buildRequests(Data);
  ASSERT_EQ(R.Complete, 2u);
  std::vector<TailEntry> Tail = tailRequests(R, Data, 100.0);
  ASSERT_EQ(Tail.size(), 2u);
  const TailEntry *Victim = nullptr;
  for (const TailEntry &E : Tail)
    if (E.Req == 2)
      Victim = &E;
  ASSERT_NE(Victim, nullptr);
  EXPECT_EQ(Victim->Dominant, SpanStage::LockWait);
  EXPECT_EQ(Victim->C, TailEntry::Cause::LockHolder);
  EXPECT_TRUE(Victim->HasHolder);
  EXPECT_EQ(Victim->HolderReq, 1u);
  EXPECT_NE(Victim->Detail.find("held by req 1"), std::string::npos)
      << Victim->Detail;

  // When the trace carries a lock profile naming the lock's site, the
  // cause sentence joins it in.
  LockProfileRecord L;
  L.Lock = 0x10;
  L.File = "session.mc";
  L.Line = 33;
  Data.Locks.push_back(L);
  Tail = tailRequests(R, Data, 100.0);
  for (const TailEntry &E : Tail)
    if (E.Req == 2) {
      EXPECT_NE(E.Detail.find("holder site session.mc:33"),
                std::string::npos)
          << E.Detail;
    }
}

TEST(Requests, TailBlamesNoHolderForAWaitTheHoldsDoNotCover) {
  // Request 2 waits from t=100 to t=3100, but the only hold on the lock
  // ends at t=105: for the rest of the wait the lock was free and the
  // waiter was descheduled, so naming request 1 would be wrong.
  TraceData Data;
  uint64_t HolderDur[NumSpanStages] = {10, 10, 10, 5, 80, 10, 10};
  addRequest(Data, 1, 0, HolderDur); // LockHold [25, 105)
  uint64_t VictimDur[NumSpanStages] = {10, 10, 10, 3000, 5, 10, 10};
  addRequest(Data, 2, 80, VictimDur); // LockWait [100, 3100)

  RequestsReport R = buildRequests(Data);
  std::vector<TailEntry> Tail = tailRequests(R, Data, 100.0);
  ASSERT_FALSE(Tail.empty());
  EXPECT_EQ(Tail[0].Req, 2u);
  EXPECT_EQ(Tail[0].Dominant, SpanStage::LockWait);
  EXPECT_EQ(Tail[0].C, TailEntry::Cause::LockWaiter);
  EXPECT_FALSE(Tail[0].HasHolder);
}

TEST(Requests, TailDistinguishesQueueWaitAndCheckCost) {
  TraceData Data;
  uint64_t QueueDur[NumSpanStages] = {10, 9000, 10, 5, 5, 10, 10};
  addRequest(Data, 1, 0, QueueDur);
  uint64_t CpuDur[NumSpanStages] = {10, 10, 8000, 5, 5, 10, 10};
  addRequest(Data, 2, 100000, CpuDur);

  RequestsReport R = buildRequests(Data);
  std::vector<TailEntry> Tail = tailRequests(R, Data, 100.0);
  ASSERT_EQ(Tail.size(), 2u);
  std::map<uint64_t, const TailEntry *> ByReq;
  for (const TailEntry &E : Tail)
    ByReq[E.Req] = &E;
  EXPECT_EQ(ByReq[1]->C, TailEntry::Cause::QueueWait);
  EXPECT_NE(ByReq[1]->Detail.find("queue wait"), std::string::npos);
  // Handler-dominant with no site tables: plain handler CPU...
  EXPECT_EQ(ByReq[2]->C, TailEntry::Cause::HandlerCpu);

  // ...and with a profiled check site, the hottest site is cited.
  SiteProfileRecord S;
  S.Kind = CheckKind::DynamicRead;
  S.File = "worker.mc";
  S.Line = 88;
  S.LValue = "*S->sdata";
  S.Cycles = 123456;
  Data.Sites.push_back(S);
  Tail = tailRequests(R, Data, 100.0);
  for (const TailEntry &E : Tail)
    if (E.Req == 2) {
      EXPECT_EQ(E.C, TailEntry::Cause::CheckCost);
      EXPECT_NE(E.Detail.find("worker.mc:88"), std::string::npos) << E.Detail;
    }
}

TEST(Requests, RenderListsStageTableAndCauses) {
  TraceData Data;
  uint64_t Dur[NumSpanStages] = {10, 20, 3000, 30, 40, 50, 60};
  for (uint64_t Req = 1; Req <= 10; ++Req)
    addRequest(Data, Req, Req * 10000, Dur);
  RequestsReport R = buildRequests(Data);
  std::string Text = renderRequests(R, Data, 10.0);
  for (const char *Name : {"accept", "ring-wait", "handler", "lock-wait",
                           "lock-hold", "log-wait", "logger", "total"})
    EXPECT_NE(Text.find(Name), std::string::npos) << Name << "\n" << Text;
  EXPECT_NE(Text.find("tail anatomy: slowest 1 of 10"), std::string::npos)
      << Text;
  EXPECT_NE(Text.find("cause:"), std::string::npos) << Text;
}

TEST(Requests, DigestIgnoresScheduleVariesWithLoad) {
  // The digest pins what the load seed fixes (ids, clients, ops, which
  // boundaries exist) and none of what the scheduler varies (timestamps,
  // role ids, span interleaving).
  TraceData A;
  uint64_t DurA[NumSpanStages] = {10, 20, 30, 40, 50, 60, 70};
  addRequest(A, 1, 100, DurA, 0x10, 7, 2);
  addRequest(A, 2, 5000, DurA, 0x10, 8, 1);

  TraceData B; // same requests: different times, tids, and span order
  uint64_t DurB[NumSpanStages] = {99, 1, 77, 3, 12, 500, 4};
  addRequest(B, 2, 90000, DurB, 0x20, 8, 1);
  addRequest(B, 1, 333, DurB, 0x20, 7, 2);
  for (SpanRecord &S : B.Spans)
    S.Tid += 5;

  EXPECT_EQ(requestTreeDigest(buildRequests(A)),
            requestTreeDigest(buildRequests(B)));

  TraceData C = A; // one op kind differs: different load, different digest
  for (SpanRecord &S : C.Spans)
    if (S.Req == 2 && S.Stage == SpanStage::Handler && S.Begin)
      S.Arg = 9;
  EXPECT_NE(requestTreeDigest(buildRequests(A)),
            requestTreeDigest(buildRequests(C)));
}

} // namespace

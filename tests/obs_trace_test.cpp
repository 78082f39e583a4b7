//===-- tests/obs_trace_test.cpp - obs layer unit tests -------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The observability layer: varint coding, the .strc trace format
// (round-trip and rejection paths), the lock-free Collector under
// concurrent producers, the JSON writer/parser/validators, and the
// trace summariser.
//
//===----------------------------------------------------------------------===//

#include "obs/ChromeTrace.h"
#include "obs/Collector.h"
#include "obs/Json.h"
#include "obs/MetricsJson.h"
#include "obs/Summary.h"
#include "obs/TraceFile.h"
#include "obs/TraceTail.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <thread>
#include <vector>

using namespace sharc;
using namespace sharc::obs;

namespace {

//===----------------------------------------------------------------------===//
// Varints
//===----------------------------------------------------------------------===//

TEST(ObsVarint, RoundTripExtremes) {
  for (uint64_t V : {uint64_t(0), uint64_t(1), uint64_t(127), uint64_t(128),
                     uint64_t(16383), uint64_t(16384), uint64_t(1) << 32,
                     UINT64_MAX - 1, UINT64_MAX}) {
    std::string Buf;
    appendVarint(Buf, V);
    size_t Pos = 0;
    uint64_t Out = 0;
    ASSERT_TRUE(readVarint(Buf, Pos, Out)) << V;
    EXPECT_EQ(Out, V);
    EXPECT_EQ(Pos, Buf.size());
  }
}

TEST(ObsVarint, ZigzagRoundTripExtremes) {
  for (int64_t V : {int64_t(0), int64_t(-1), int64_t(1), int64_t(-64),
                    int64_t(64), INT64_MIN, INT64_MAX}) {
    std::string Buf;
    appendZigzag(Buf, V);
    size_t Pos = 0;
    int64_t Out = 0;
    ASSERT_TRUE(readZigzag(Buf, Pos, Out)) << V;
    EXPECT_EQ(Out, V);
  }
}

TEST(ObsVarint, TruncatedRejected) {
  std::string Buf;
  appendVarint(Buf, UINT64_MAX);
  for (size_t Cut = 0; Cut < Buf.size(); ++Cut) {
    size_t Pos = 0;
    uint64_t Out = 0;
    EXPECT_FALSE(readVarint(std::string_view(Buf).substr(0, Cut), Pos, Out));
  }
}

//===----------------------------------------------------------------------===//
// Trace format
//===----------------------------------------------------------------------===//

std::vector<Event> allKindsEvents() {
  std::vector<Event> Events;
  for (unsigned K = 0; K != NumEventKinds; ++K) {
    Event Ev;
    Ev.K = static_cast<EventKind>(K);
    Ev.Tid = 7 * K + 1;
    Ev.Addr = (uint64_t(K) << 32) | 0xABCD;
    Ev.Value = K % 2 ? -int64_t(K) * 1000 : int64_t(K) * 1000;
    Ev.Extra = K == unsigned(EventKind::Conflict)
                   ? makeConflictExtra(ConflictKind::ReadConflict, 12, 34)
                   : 0;
    Events.push_back(Ev);
  }
  // Extreme field values survive the varint coding.
  Events.push_back({EventKind::Write, UINT32_MAX, UINT64_MAX, INT64_MIN,
                    UINT64_MAX});
  Events.push_back({EventKind::Read, 0, 0, INT64_MAX, 0});
  return Events;
}

rt::StatsSnapshot sampleStats() {
  rt::StatsSnapshot S;
  S.DynamicReads = 11;
  S.DynamicWrites = 22;
  S.DynamicReadBytes = 88;
  S.DynamicWriteBytes = 176;
  S.LockChecks = 5;
  S.SharingCasts = 3;
  S.ReadConflicts = 1;
  S.WriteConflicts = 2;
  S.ShadowBytes = 4096;
  S.PeakHeapPayloadBytes = UINT64_MAX;
  return S;
}

TEST(ObsTraceFile, RoundTripAllKinds) {
  std::vector<Event> Events = allKindsEvents();
  TraceWriter W;
  for (const Event &Ev : Events)
    W.event(Ev);
  rt::StatsSnapshot S = sampleStats();
  W.stats(S);

  TraceData Data;
  std::string Error;
  ASSERT_TRUE(parseTrace(W.buffer(), Data, Error)) << Error;
  EXPECT_EQ(Data.Events, Events);
  ASSERT_EQ(Data.Samples.size(), 1u);
  EXPECT_EQ(Data.Samples[0], S);
  ASSERT_EQ(Data.SamplePos.size(), 1u);
  EXPECT_EQ(Data.SamplePos[0], Events.size()); // after every event
}

TEST(ObsTraceFile, EmptyTraceRoundTrips) {
  TraceWriter W;
  TraceData Data;
  std::string Error;
  ASSERT_TRUE(parseTrace(W.buffer(), Data, Error)) << Error;
  EXPECT_TRUE(Data.Events.empty());
  EXPECT_TRUE(Data.Samples.empty());
}

TEST(ObsTraceFile, FinishIsIdempotent) {
  TraceWriter W;
  W.event({EventKind::Read, 1, 2, 3, 0});
  W.finish();
  std::string First = W.buffer();
  W.finish();
  EXPECT_EQ(W.buffer(), First);
  // Events after finish are dropped, not appended.
  W.event({EventKind::Write, 1, 2, 3, 0});
  EXPECT_EQ(W.buffer(), First);
}

TEST(ObsTraceFile, EveryTruncationRejected) {
  TraceWriter W;
  for (const Event &Ev : allKindsEvents())
    W.event(Ev);
  W.stats(sampleStats());
  const std::string &Full = W.buffer();
  TraceData Data;
  std::string Error;
  for (size_t Cut = 0; Cut < Full.size(); ++Cut) {
    EXPECT_FALSE(
        parseTrace(std::string_view(Full).substr(0, Cut), Data, Error))
        << "prefix of " << Cut << " bytes accepted";
  }
  EXPECT_TRUE(parseTrace(Full, Data, Error)) << Error;
}

TEST(ObsTraceFile, BadMagicAndVersionRejected) {
  TraceWriter W;
  W.event({EventKind::Read, 1, 2, 3, 0});
  std::string Bad = W.buffer();
  Bad[0] = 'X';
  TraceData Data;
  std::string Error;
  EXPECT_FALSE(parseTrace(Bad, Data, Error));
  EXPECT_NE(Error.find("magic"), std::string::npos) << Error;

  std::string WrongVersion = W.buffer();
  WrongVersion[8] = char(TraceVersion + 1);
  EXPECT_FALSE(parseTrace(WrongVersion, Data, Error));
  EXPECT_NE(Error.find("version"), std::string::npos) << Error;
}

TEST(ObsTraceFile, UnknownTagAndTrailingBytesRejected) {
  TraceWriter W;
  std::string UnknownTag = W.buffer();
  UnknownTag.insert(12, 1, char(0x30)); // between header and end record
  TraceData Data;
  std::string Error;
  EXPECT_FALSE(parseTrace(UnknownTag, Data, Error));

  std::string Trailing = W.buffer();
  Trailing += 'x';
  EXPECT_FALSE(parseTrace(Trailing, Data, Error));
}

TEST(ObsTraceFile, RecordCountMismatchRejected) {
  // An end record claiming a different total is a consistency failure.
  TraceWriter A, B;
  A.event({EventKind::Read, 1, 2, 3, 0});
  A.event({EventKind::Write, 1, 2, 3, 0});
  B.event({EventKind::Read, 1, 2, 3, 0});
  // Splice A's events in front of B's end record (which claims 1).
  std::string Forged = A.buffer().substr(0, A.buffer().size() - 2);
  Forged += B.buffer().substr(B.buffer().size() - 2);
  TraceData Data;
  std::string Error;
  EXPECT_FALSE(parseTrace(Forged, Data, Error));
}

//===----------------------------------------------------------------------===//
// Profile records (version-2 tags 0x41..0x43)
//===----------------------------------------------------------------------===//

std::vector<SiteProfileRecord> sampleSiteRecords() {
  std::vector<SiteProfileRecord> Out;
  // One per check kind, with distinct field values.
  for (unsigned K = 0; K != NumCheckKinds; ++K) {
    SiteProfileRecord R;
    R.Tid = K + 1;
    R.Kind = static_cast<CheckKind>(K);
    R.Line = 10 * K + 3;
    R.File = "worker.mc";
    R.LValue = "*S->sdata";
    R.Count = 100 * K + 7;
    R.Bytes = 8 * R.Count;
    R.Cycles = 1000 * K + 13;
    R.Samples = K + 1;
    Out.push_back(R);
  }
  // An unknown site (empty strings, line 0) with extreme counters.
  SiteProfileRecord X;
  X.Tid = UINT32_MAX;
  X.Kind = CheckKind::SharingCast;
  X.Count = UINT64_MAX;
  X.Bytes = UINT64_MAX;
  X.Cycles = UINT64_MAX;
  X.Samples = UINT64_MAX;
  Out.push_back(X);
  return Out;
}

LockProfileRecord sampleLockRecord() {
  LockProfileRecord R;
  R.Tid = 3;
  R.Lock = uint64_t(0xDEAD) << 32 | 0xBEEF;
  R.Line = 27;
  R.File = "locked_counter.mc";
  R.Acquires = 41;
  R.Contended = 5;
  R.WaitCycles = 123456789;
  R.HoldCycles = UINT64_MAX;
  for (unsigned B = 0; B != NumHistBuckets; ++B) {
    R.WaitHist[B] = B * B + 1;
    R.HoldHist[B] = UINT64_MAX - B;
  }
  return R;
}

SelfOverheadRecord sampleOverheadRecord() {
  SelfOverheadRecord R;
  R.Tid = 9;
  R.Ops = 1 << 20;
  R.Cycles = 987654321;
  R.Samples = 1 << 14;
  R.DrainCycles = 4242;
  R.TableBytes = 64 * 1024;
  return R;
}

TEST(ObsTraceFile, ProfileRecordsRoundTrip) {
  TraceWriter W;
  std::vector<Event> Events = allKindsEvents();
  for (const Event &Ev : Events)
    W.event(Ev);
  std::vector<SiteProfileRecord> Sites = sampleSiteRecords();
  for (const SiteProfileRecord &R : Sites)
    W.siteProfile(R);
  LockProfileRecord Lock = sampleLockRecord();
  W.lockProfile(Lock);
  SelfOverheadRecord Overhead = sampleOverheadRecord();
  W.selfOverhead(Overhead);
  rt::StatsSnapshot S = sampleStats();
  W.stats(S);

  TraceData Data;
  std::string Error;
  ASSERT_TRUE(parseTrace(W.buffer(), Data, Error)) << Error;
  EXPECT_EQ(Data.Events, Events);
  EXPECT_EQ(Data.Sites, Sites);
  ASSERT_EQ(Data.Locks.size(), 1u);
  EXPECT_EQ(Data.Locks[0], Lock);
  ASSERT_EQ(Data.Overheads.size(), 1u);
  EXPECT_EQ(Data.Overheads[0], Overhead);
  ASSERT_EQ(Data.Samples.size(), 1u);
  EXPECT_EQ(Data.Samples[0], S);
}

TEST(ObsTraceFile, ProfileEveryTruncationRejected) {
  // A trace containing all three profile record shapes must reject every
  // proper prefix, exactly like the event-only trace does: mid-string
  // cuts, mid-histogram cuts, and a chopped end record all count.
  TraceWriter W;
  W.event({EventKind::Read, 1, 2, 3, 0});
  for (const SiteProfileRecord &R : sampleSiteRecords())
    W.siteProfile(R);
  W.lockProfile(sampleLockRecord());
  W.selfOverhead(sampleOverheadRecord());
  const std::string &Full = W.buffer();
  TraceData Data;
  std::string Error;
  for (size_t Cut = 0; Cut < Full.size(); ++Cut) {
    EXPECT_FALSE(
        parseTrace(std::string_view(Full).substr(0, Cut), Data, Error))
        << "prefix of " << Cut << " bytes accepted";
  }
  EXPECT_TRUE(parseTrace(Full, Data, Error)) << Error;
}

TEST(ObsTraceFile, OversizedProfileStringRejected) {
  // A corrupt site record claiming a >1 MiB file name must not allocate;
  // hand-encode the record so the length lie survives the writer.
  std::string Buf(TraceMagic, sizeof(TraceMagic));
  Buf += std::string("\x02\x00\x00\x00", 4); // version 2 LE
  Buf += char(SiteProfileTag);
  appendVarint(Buf, 1);                // Tid
  appendVarint(Buf, 0);                // Kind
  appendVarint(Buf, 10);               // Line
  appendVarint(Buf, (1 << 20) + 1);    // File length: over the cap
  Buf += "x";                          // ...with almost no bytes behind it
  TraceData Data;
  std::string Error;
  EXPECT_FALSE(parseTrace(Buf, Data, Error));
}

TEST(ObsTraceFile, FileRoundTrip) {
  std::string Path = testing::TempDir() + "/obs_trace_test.strc";
  TraceWriter W;
  std::vector<Event> Events = allKindsEvents();
  for (const Event &Ev : Events)
    W.event(Ev);
  std::string Error;
  ASSERT_TRUE(W.writeToFile(Path, Error)) << Error;
  TraceData Data;
  ASSERT_TRUE(loadTraceFile(Path, Data, Error)) << Error;
  EXPECT_EQ(Data.Events, Events);
  EXPECT_FALSE(loadTraceFile(Path + ".missing", Data, Error));
}

TEST(ObsEvent, ConflictExtraPacking) {
  uint64_t Extra =
      makeConflictExtra(ConflictKind::LockViolation, 0xFFFFFF, 0x123456);
  EXPECT_EQ(conflictKindOf(Extra), ConflictKind::LockViolation);
  EXPECT_EQ(conflictWhoLine(Extra), 0xFFFFFFu);
  EXPECT_EQ(conflictLastLine(Extra), 0x123456u);
}

//===----------------------------------------------------------------------===//
// Collector: 8 concurrent producers, no lost or torn records
//===----------------------------------------------------------------------===//

TEST(ObsCollector, ConcurrentWritersLoseNothing) {
  constexpr unsigned NumThreads = 8;
  constexpr uint64_t PerThread = 20000; // several ring generations
  VectorSink Downstream;
  {
    Collector C(Downstream, 256); // small ring to force producer drains
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&C, T] {
        for (uint64_t I = 0; I != PerThread; ++I) {
          // Tid tags the producer; Addr/Value/Extra are derived from
          // (T, I) so a torn record is detectable field-by-field.
          Event Ev;
          Ev.K = I % 2 ? EventKind::Write : EventKind::Read;
          Ev.Tid = T;
          Ev.Addr = (uint64_t(T) << 32) | I;
          Ev.Value = int64_t(I) - int64_t(T);
          Ev.Extra = ~Ev.Addr;
          C.event(Ev);
        }
      });
    for (std::thread &T : Threads)
      T.join();
    C.flush();
  }

  ASSERT_EQ(Downstream.Events.size(), size_t(NumThreads) * PerThread);
  // Per-producer: every sequence number exactly once, in program order,
  // all fields consistent.
  std::vector<uint64_t> Next(NumThreads, 0);
  for (const Event &Ev : Downstream.Events) {
    ASSERT_LT(Ev.Tid, NumThreads);
    uint64_t I = Next[Ev.Tid]++;
    ASSERT_EQ(Ev.Addr, (uint64_t(Ev.Tid) << 32) | I) << "lost or reordered";
    ASSERT_EQ(Ev.K, I % 2 ? EventKind::Write : EventKind::Read) << "torn";
    ASSERT_EQ(Ev.Value, int64_t(I) - int64_t(Ev.Tid)) << "torn";
    ASSERT_EQ(Ev.Extra, ~Ev.Addr) << "torn";
  }
  for (unsigned T = 0; T != NumThreads; ++T)
    EXPECT_EQ(Next[T], PerThread);
}

TEST(ObsCollector, StatsDrainsPendingEvents) {
  VectorSink Downstream;
  Collector C(Downstream, 64);
  C.event({EventKind::Read, 1, 2, 3, 0});
  C.stats(sampleStats());
  // The snapshot must come after the event it follows.
  ASSERT_EQ(Downstream.Events.size(), 1u);
  ASSERT_EQ(Downstream.Samples.size(), 1u);
  EXPECT_EQ(C.ringCount(), 1u);
}

//===----------------------------------------------------------------------===//
// JSON writer / parser / validators
//===----------------------------------------------------------------------===//

TEST(ObsJson, WriterParserRoundTrip) {
  JsonWriter W;
  W.beginObject();
  W.key("name");
  W.value("quote\"back\\slash\ncontrol\x01");
  W.key("num");
  W.value(42.5);
  W.key("big");
  W.value(UINT64_MAX);
  W.key("neg");
  W.value(int64_t(-7));
  W.key("flag");
  W.value(true);
  W.key("nothing");
  W.null();
  W.key("arr");
  W.beginArray();
  W.value(1);
  W.value(2);
  W.endArray();
  W.endObject();

  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(W.str(), Doc, Error)) << Error << "\n" << W.str();
  EXPECT_EQ(Doc.get("name")->Str, "quote\"back\\slash\ncontrol\x01");
  EXPECT_EQ(Doc.get("num")->Num, 42.5);
  EXPECT_TRUE(Doc.get("flag")->B);
  EXPECT_EQ(Doc.get("nothing")->T, JsonValue::Type::Null);
  ASSERT_EQ(Doc.get("arr")->Arr.size(), 2u);
  EXPECT_EQ(Doc.get("arr")->Arr[1].Num, 2);
  EXPECT_EQ(Doc.get("absent"), nullptr);
}

TEST(ObsJson, ParserRejectsGarbage) {
  JsonValue Doc;
  std::string Error;
  EXPECT_FALSE(parseJson("", Doc, Error));
  EXPECT_FALSE(parseJson("{", Doc, Error));
  EXPECT_FALSE(parseJson("{} x", Doc, Error));
  EXPECT_FALSE(parseJson("{\"a\":01}", Doc, Error));
  EXPECT_FALSE(parseJson("[1,]", Doc, Error));
  EXPECT_FALSE(parseJson("'single'", Doc, Error));
  EXPECT_TRUE(parseJson(" { \"a\" : [ 1 , -2.5e3 ] } ", Doc, Error)) << Error;
}

TEST(ObsJson, BenchSchemaValidation) {
  JsonValue Doc;
  std::string Error;
  std::string Host = "\"host\":{\"cpus\":8,\"compiler\":\"gcc 12.2.0\","
                     "\"build\":\"release\",\"git_rev\":\"abc1234\"}";
  std::string Good = "{\"schema\":\"sharc-bench-v1\",\"bench\":\"b\","
                     "\"scale\":1,\"reps\":2," +
                     Host +
                     ",\"rows\":[{\"name\":\"r\","
                     "\"metrics\":{\"sec\":0.5}}]}";
  ASSERT_TRUE(parseJson(Good, Doc, Error)) << Error;
  EXPECT_TRUE(validateBenchJson(Doc, Error)) << Error;

  std::string WrongSchema = Good;
  WrongSchema.replace(WrongSchema.find("bench-v1"), 8, "bench-v9");
  ASSERT_TRUE(parseJson(WrongSchema, Doc, Error));
  EXPECT_FALSE(validateBenchJson(Doc, Error));

  std::string NoRows = "{\"schema\":\"sharc-bench-v1\",\"bench\":\"b\","
                       "\"scale\":1,\"reps\":2," +
                       Host + ",\"rows\":[]}";
  ASSERT_TRUE(parseJson(NoRows, Doc, Error));
  EXPECT_FALSE(validateBenchJson(Doc, Error));

  std::string BadMetric = "{\"schema\":\"sharc-bench-v1\",\"bench\":\"b\","
                          "\"scale\":1,\"reps\":2," +
                          Host +
                          ",\"rows\":[{\"name\":\"r\","
                          "\"metrics\":{\"sec\":\"fast\"}}]}";
  ASSERT_TRUE(parseJson(BadMetric, Doc, Error));
  EXPECT_FALSE(validateBenchJson(Doc, Error));
}

TEST(ObsJson, BenchSchemaRequiresHostMetadata) {
  // Reports without the provenance block (or with a mistyped field) are
  // not comparable across machines and must be rejected.
  JsonValue Doc;
  std::string Error;
  std::string NoHost = "{\"schema\":\"sharc-bench-v1\",\"bench\":\"b\","
                       "\"scale\":1,\"reps\":2,\"rows\":[{\"name\":\"r\","
                       "\"metrics\":{\"sec\":0.5}}]}";
  ASSERT_TRUE(parseJson(NoHost, Doc, Error)) << Error;
  EXPECT_FALSE(validateBenchJson(Doc, Error));
  EXPECT_NE(Error.find("host"), std::string::npos) << Error;

  std::string BadCpus =
      "{\"schema\":\"sharc-bench-v1\",\"bench\":\"b\",\"scale\":1,"
      "\"reps\":2,\"host\":{\"cpus\":\"eight\",\"compiler\":\"gcc\","
      "\"build\":\"release\",\"git_rev\":\"abc\"},"
      "\"rows\":[{\"name\":\"r\",\"metrics\":{\"sec\":0.5}}]}";
  ASSERT_TRUE(parseJson(BadCpus, Doc, Error)) << Error;
  EXPECT_FALSE(validateBenchJson(Doc, Error));

  std::string NoGitRev =
      "{\"schema\":\"sharc-bench-v1\",\"bench\":\"b\",\"scale\":1,"
      "\"reps\":2,\"host\":{\"cpus\":8,\"compiler\":\"gcc\","
      "\"build\":\"release\"},"
      "\"rows\":[{\"name\":\"r\",\"metrics\":{\"sec\":0.5}}]}";
  ASSERT_TRUE(parseJson(NoGitRev, Doc, Error)) << Error;
  EXPECT_FALSE(validateBenchJson(Doc, Error));
}

TEST(ObsJson, MetricsSchemaValidation) {
  std::string Good =
      "{\"schema\":\"sharc-metrics-v1\",\"source\":\"a.mc\",\"seed\":1,"
      "\"steps\":10,\"accesses\":4,\"threads_spawned\":1,"
      "\"violations\":{\"total\":0,\"read_conflicts\":0}}";
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(Good, Doc, Error)) << Error;
  EXPECT_TRUE(validateMetricsJson(Doc, Error)) << Error;

  std::string NoViolations =
      "{\"schema\":\"sharc-metrics-v1\",\"source\":\"a.mc\",\"seed\":1,"
      "\"steps\":10,\"accesses\":4,\"threads_spawned\":1}";
  ASSERT_TRUE(parseJson(NoViolations, Doc, Error));
  EXPECT_FALSE(validateMetricsJson(Doc, Error));

  std::string BadTotal =
      "{\"schema\":\"sharc-metrics-v1\",\"source\":\"a.mc\",\"seed\":1,"
      "\"steps\":10,\"accesses\":4,\"threads_spawned\":1,"
      "\"violations\":{\"total\":\"none\"}}";
  ASSERT_TRUE(parseJson(BadTotal, Doc, Error));
  EXPECT_FALSE(validateMetricsJson(Doc, Error));
}

TEST(ObsStats, DeltaSaturatesPerField) {
  rt::StatsSnapshot A = sampleStats();
  rt::StatsSnapshot B = A;
  B.DynamicReads += 5;
  B.DynamicWrites += 1;
  B.LockChecks = 2; // went "backwards" (e.g. swapped arguments)
  rt::StatsSnapshot D = B - A;
  EXPECT_EQ(D.DynamicReads, 5u);
  EXPECT_EQ(D.DynamicWrites, 1u);
  EXPECT_EQ(D.LockChecks, 0u); // saturates, never wraps
  EXPECT_EQ(D.SharingCasts, 0u);
  EXPECT_EQ(D.ShadowBytes, 0u);
  // Self-difference is all-zero.
  EXPECT_EQ(A - A, rt::StatsSnapshot());
}

TEST(ObsJson, StatsToJsonIsValidAndComplete) {
  rt::StatsSnapshot S = sampleStats();
  std::string Text = statsToJson(S);
  JsonValue Doc;
  std::string Error;
  ASSERT_TRUE(parseJson(Text, Doc, Error)) << Error << "\n" << Text;
  EXPECT_EQ(Doc.get("schema")->Str, "sharc-stats-v1");
  const JsonValue *Stats = Doc.get("stats");
  ASSERT_NE(Stats, nullptr);
  EXPECT_EQ(Stats->get("dynamic_reads")->Num, 11);
  EXPECT_EQ(Stats->get("lock_checks")->Num, 5);
  EXPECT_EQ(Stats->get("total_conflicts")->Num, 3); // 1 read + 2 write
}

//===----------------------------------------------------------------------===//
// Summary
//===----------------------------------------------------------------------===//

TraceData smallTrace() {
  TraceData Data;
  auto Push = [&](EventKind K, uint32_t Tid, uint64_t Addr, int64_t V = 0,
                  uint64_t Extra = 0) {
    Data.Events.push_back({K, Tid, Addr, V, Extra});
  };
  Push(EventKind::ThreadStart, 1, 0);
  Push(EventKind::Read, 1, 16);
  Push(EventKind::Write, 1, 17); // same 16-byte granule as the read
  Push(EventKind::LockAcquire, 1, 100);
  Push(EventKind::LockRelease, 1, 100);
  Push(EventKind::SpawnEdge, 1, 900);
  Push(EventKind::ThreadStart, 2, 900);
  Push(EventKind::Read, 2, 48);
  Push(EventKind::LockAcquire, 2, 100);
  Push(EventKind::LockRelease, 2, 100);
  Push(EventKind::SharedLockAcquire, 2, 200);
  Push(EventKind::SharedLockRelease, 2, 200);
  Push(EventKind::Conflict, 2, 48, 1,
       makeConflictExtra(ConflictKind::WriteConflict, 9, 4));
  Push(EventKind::ThreadExit, 2, 0);
  Push(EventKind::ThreadExit, 1, 0);
  return Data;
}

TEST(ObsSummary, AggregatesSmallTrace) {
  TraceData Data = smallTrace();
  TraceSummary Sum = summarize(Data);
  EXPECT_EQ(Sum.TotalEvents, Data.Events.size());
  EXPECT_EQ(Sum.conflictCount(), 1u);
  EXPECT_EQ(Sum.accessCount(), 3u);
  EXPECT_EQ(Sum.ConflictsByKind[unsigned(ConflictKind::WriteConflict)], 1u);

  ASSERT_EQ(Sum.Threads.size(), 2u);
  EXPECT_EQ(Sum.Threads[0].Tid, 1u);
  EXPECT_EQ(Sum.Threads[0].Reads, 1u);
  EXPECT_EQ(Sum.Threads[0].Writes, 1u);
  EXPECT_EQ(Sum.Threads[1].Conflicts, 1u);

  // Lock 100 acquired by both threads; lock 200 shared-acquired once.
  ASSERT_GE(Sum.Locks.size(), 2u);
  EXPECT_EQ(Sum.Locks[0].Addr, 100u);
  EXPECT_EQ(Sum.Locks[0].Acquires, 2u);
  EXPECT_EQ(Sum.Locks[0].DistinctTids, 2u);

  // Hot granules: addr 16 and 17 coalesce.
  ASSERT_FALSE(Sum.HotGranules.empty());
  EXPECT_EQ(Sum.HotGranules[0].Addr, 16u);
  EXPECT_EQ(Sum.HotGranules[0].Accesses, 2u);

  ASSERT_EQ(Sum.Conflicts.size(), 1u);
  EXPECT_EQ(Sum.Conflicts[0].Pos, 12u);

  std::string Text = renderSummary(Sum, Data);
  EXPECT_NE(Text.find("conflicts: 1"), std::string::npos) << Text;
  EXPECT_NE(Text.find("write-conflict"), std::string::npos) << Text;
}

//===----------------------------------------------------------------------===//
// Chrome trace-event export
//===----------------------------------------------------------------------===//

TEST(ObsChrome, RenderedExportSelfValidates) {
  TraceData Data = smallTrace();
  // Give thread 2 a LockWait..LockAcquire wait interval so the export
  // contains an "X" wait slice alongside the hold slices.
  for (size_t I = 0; I != Data.Events.size(); ++I) {
    if (Data.Events[I].K == EventKind::LockAcquire &&
        Data.Events[I].Tid == 2) {
      Data.Events.insert(Data.Events.begin() + I,
                         {EventKind::LockWait, 2, 100, 0, 0});
      break;
    }
  }
  std::string Text = renderChromeTrace(Data);
  std::string Error;
  EXPECT_TRUE(validateChromeJson(Text, Error)) << Error << "\n" << Text;

  JsonValue Doc;
  ASSERT_TRUE(parseJson(Text, Doc, Error)) << Error;
  const JsonValue *Events = Doc.get("traceEvents");
  ASSERT_NE(Events, nullptr);
  EXPECT_FALSE(Events->Arr.empty());
}

TEST(ObsChrome, ValidatorRejectsNonConformingDocuments) {
  std::string Error;
  EXPECT_FALSE(validateChromeJson("[]", Error));
  EXPECT_FALSE(validateChromeJson("{\"traceEvents\":0}", Error));
  // An "X" slice without dur violates the slice contract.
  EXPECT_FALSE(validateChromeJson(
      "{\"traceEvents\":[{\"name\":\"n\",\"ph\":\"X\",\"cat\":\"c\","
      "\"ts\":1,\"pid\":1,\"tid\":1}]}",
      Error));
  EXPECT_TRUE(validateChromeJson(
      "{\"traceEvents\":[{\"name\":\"n\",\"ph\":\"X\",\"cat\":\"c\","
      "\"ts\":1,\"pid\":1,\"tid\":1,\"dur\":2}]}",
      Error))
      << Error;
}

TEST(ObsCollector, ForwardsProfileRecordsAfterPendingEvents) {
  VectorSink Downstream;
  Collector C(Downstream, 64);
  C.event({EventKind::Read, 1, 2, 3, 0});
  SiteProfileRecord Site = sampleSiteRecords()[0];
  C.siteProfile(Site);
  C.lockProfile(sampleLockRecord());
  C.selfOverhead(sampleOverheadRecord());
  // Profile records drain buffered events first so a downstream trace
  // writer keeps per-thread program order.
  ASSERT_EQ(Downstream.Events.size(), 1u);
  ASSERT_EQ(Downstream.Sites.size(), 1u);
  EXPECT_EQ(Downstream.Sites[0], Site);
  EXPECT_EQ(Downstream.Locks.size(), 1u);
  EXPECT_EQ(Downstream.Overheads.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Span records (version-4 tags 0x45/0x46) and extension records
//===----------------------------------------------------------------------===//

std::vector<SpanRecord> sampleSpans() {
  std::vector<SpanRecord> Out;
  // One begin/end pair per stage, every field distinct so torn or
  // reordered decoding is detectable.
  for (unsigned K = 0; K != NumSpanStages; ++K) {
    SpanRecord B;
    B.Tid = K + 1;
    B.Req = 1000 + K;
    B.Stage = static_cast<SpanStage>(K);
    B.Begin = true;
    B.TimeNs = 10000 * K + 5;
    B.Arg = (uint64_t(K) << 32) | 0x5A5A;
    Out.push_back(B);
    SpanRecord E = B;
    E.Begin = false;
    E.TimeNs += 777;
    E.Arg = ~B.Arg;
    Out.push_back(E);
  }
  // Extreme field values survive the varint coding.
  SpanRecord X;
  X.Tid = UINT32_MAX;
  X.Req = UINT64_MAX;
  X.Stage = SpanStage::Logger;
  X.Begin = false;
  X.TimeNs = UINT64_MAX;
  X.Arg = UINT64_MAX;
  Out.push_back(X);
  return Out;
}

TEST(ObsTraceFile, SpanRecordsRoundTrip) {
  TraceWriter W;
  W.event({EventKind::Read, 1, 2, 3, 0});
  std::vector<SpanRecord> Spans = sampleSpans();
  for (const SpanRecord &S : Spans)
    W.span(S);
  W.event({EventKind::Write, 1, 2, 3, 0});

  TraceData Data;
  std::string Error;
  ASSERT_TRUE(parseTrace(W.buffer(), Data, Error)) << Error;
  EXPECT_EQ(Data.Version, TraceVersion);
  EXPECT_EQ(Data.Spans, Spans);
  // All spans landed between the two events.
  ASSERT_EQ(Data.SpanPos.size(), Spans.size());
  for (size_t Pos : Data.SpanPos)
    EXPECT_EQ(Pos, 1u);
}

TEST(ObsTraceFile, SpanEveryTruncationRejected) {
  TraceWriter W;
  for (const SpanRecord &S : sampleSpans())
    W.span(S);
  const std::string &Full = W.buffer();
  TraceData Data;
  std::string Error;
  for (size_t Cut = 0; Cut < Full.size(); ++Cut) {
    EXPECT_FALSE(
        parseTrace(std::string_view(Full).substr(0, Cut), Data, Error))
        << "prefix of " << Cut << " bytes accepted";
  }
  EXPECT_TRUE(parseTrace(Full, Data, Error)) << Error;
}

TEST(ObsTraceFile, UnknownSpanStageRejected) {
  // A span naming a stage outside the pinned set is corruption, like an
  // unknown event kind; hand-encode since the writer can't produce one.
  std::string Buf(TraceMagic, sizeof(TraceMagic));
  Buf += std::string("\x04\x00\x00\x00", 4); // version 4 LE
  Buf += char(SpanBeginTag);
  appendVarint(Buf, 1);             // Tid
  appendVarint(Buf, 2);             // Req
  appendVarint(Buf, NumSpanStages); // Stage: one past the end
  appendVarint(Buf, 3);             // TimeNs
  appendVarint(Buf, 4);             // Arg
  Buf += char(EndRecordTag);
  appendVarint(Buf, 1);
  TraceData Data;
  std::string Error;
  EXPECT_FALSE(parseTrace(Buf, Data, Error));
  EXPECT_NE(Error.find("span"), std::string::npos) << Error;
}

TEST(ObsTraceFile, ExtensionRecordsSkipNotReject) {
  // Future record families land in the 0x60..0x7e self-describing range:
  // readers skip them with a tally instead of failing the parse. The end
  // record's declared count includes skipped records, so the whole trace
  // is hand-encoded rather than spliced into a writer buffer.
  std::string Buf(TraceMagic, sizeof(TraceMagic));
  Buf += std::string("\x04\x00\x00\x00", 4); // version 4 LE
  Buf += char(ExtensionTagFirst);
  appendVarint(Buf, 3);
  Buf += "abc";
  Buf += char(ExtensionTagLast);
  appendVarint(Buf, 0); // empty payload is fine
  Buf += char(EndRecordTag);
  appendVarint(Buf, 2);

  TraceData Data;
  std::string Error;
  ASSERT_TRUE(parseTrace(Buf, Data, Error)) << Error;
  EXPECT_EQ(Data.SkippedUnknown, 2u);
  ASSERT_EQ(Data.SkippedTags.size(), 2u);
  EXPECT_EQ(Data.SkippedTags[0], ExtensionTagFirst);
  EXPECT_EQ(Data.SkippedTags[1], ExtensionTagLast);

  std::string Text = renderSummary(summarize(Data), Data);
  EXPECT_NE(Text.find("warning: skipped 2 unknown extension record"),
            std::string::npos)
      << Text;

  // Truncation inside an extension record still rejects.
  for (size_t Cut = 12; Cut < Buf.size(); ++Cut)
    EXPECT_FALSE(parseTrace(std::string_view(Buf).substr(0, Cut), Data, Error))
        << "prefix of " << Cut << " bytes accepted";

  // A payload-length lie past the cap must not allocate.
  std::string Oversized(TraceMagic, sizeof(TraceMagic));
  Oversized += std::string("\x04\x00\x00\x00", 4);
  Oversized += char(ExtensionTagFirst);
  appendVarint(Oversized, (1 << 20) + 1);
  Oversized += "x";
  EXPECT_FALSE(parseTrace(Oversized, Data, Error));
}

TEST(ObsTraceFile, OlderVersionHeadersStillParse) {
  // v4 readers accept every version back to MinTraceVersion: a span-free
  // buffer is valid under any of them, and the parsed Version is kept so
  // analyses can report what they were given.
  TraceWriter W;
  W.event({EventKind::Read, 1, 2, 3, 0});
  W.stats(sampleStats());
  for (uint32_t V = MinTraceVersion; V != TraceVersion; ++V) {
    std::string Buf = W.buffer();
    Buf[8] = char(V);
    TraceData Data;
    std::string Error;
    ASSERT_TRUE(parseTrace(Buf, Data, Error)) << "v" << V << ": " << Error;
    EXPECT_EQ(Data.Version, V);
    EXPECT_EQ(Data.Events.size(), 1u);
  }
}

TEST(ObsTraceFile, SpansInterleaveInDump) {
  TraceWriter W;
  W.event({EventKind::Read, 1, 2, 3, 0});
  SpanRecord S;
  S.Tid = 2;
  S.Req = 42;
  S.Stage = SpanStage::Handler;
  S.Begin = true;
  S.TimeNs = 500;
  W.span(S);
  W.event({EventKind::Write, 1, 2, 3, 0});
  TraceData Data;
  std::string Error;
  ASSERT_TRUE(parseTrace(W.buffer(), Data, Error)) << Error;
  std::string Dump = renderDump(Data);
  size_t SpanAt = Dump.find("span-begin stage=handler req=42");
  ASSERT_NE(SpanAt, std::string::npos) << Dump;
  // The span prints after the read it follows and before the write.
  EXPECT_LT(Dump.find("read"), SpanAt) << Dump;
  EXPECT_GT(Dump.find("write"), SpanAt) << Dump;
}

TEST(ObsTraceFile, IncrementalDumpEqualsBatchAtEveryChunking) {
  // `sharc-trace tail` prints renderDumpFrom over a TailParser fed the
  // file as it grows. Whatever the chunking, its output must be the
  // batch dump: samples and spans that share a position with (or trail)
  // the last decoded event keep dump's order.
  TraceWriter W;
  SpanRecord S;
  S.Req = 7;
  W.span(S);
  W.event({EventKind::Read, 1, 2, 3, 0});
  W.stats(sampleStats());
  S.Begin = false;
  W.span(S);
  W.stats(sampleStats());
  W.event({EventKind::Write, 1, 2, 3, 0});
  W.span(S);
  W.stats(sampleStats());
  std::string Buf = W.buffer();
  TraceData Data;
  std::string Error;
  ASSERT_TRUE(parseTrace(Buf, Data, Error)) << Error;
  std::string Batch = renderDump(Data);
  for (size_t Chunk = 1; Chunk <= Buf.size(); ++Chunk) {
    TailParser P;
    DumpCursor At;
    std::string Out;
    for (size_t Pos = 0; Pos < Buf.size(); Pos += Chunk) {
      P.push(std::string_view(Buf).substr(Pos, Chunk));
      Out += renderDumpFrom(P.data(), At, /*Final=*/false);
    }
    ASSERT_TRUE(P.done());
    Out += renderDumpFrom(P.data(), At, /*Final=*/true);
    EXPECT_EQ(Out, Batch) << "chunk size " << Chunk;
  }
}

TEST(ObsCollector, SpansShareRingsWithoutLeakingSentinel) {
  // Spans ride the same per-thread rings as events, packed under a
  // sentinel kind bit. Concurrent mixed producers must lose nothing, and
  // the sentinel must never escape as an EventKind downstream.
  constexpr unsigned NumThreads = 4;
  constexpr uint64_t PerThread = 500;
  VectorSink Downstream;
  {
    Collector C(Downstream, 64); // small ring to force producer drains
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&C, T] {
        for (uint64_t I = 0; I != PerThread; ++I) {
          SpanRecord S;
          S.Tid = T;
          S.Req = (uint64_t(T) << 32) | I;
          S.Stage = static_cast<SpanStage>(I % NumSpanStages);
          S.Begin = I % 2 == 0;
          S.TimeNs = UINT64_MAX - I;
          S.Arg = ~S.Req;
          C.span(S);
          Event Ev;
          Ev.K = EventKind::Read;
          Ev.Tid = T;
          Ev.Addr = I;
          C.event(Ev);
        }
      });
    for (std::thread &T : Threads)
      T.join();
    C.flush();
  }

  ASSERT_EQ(Downstream.Spans.size(), size_t(NumThreads) * PerThread);
  ASSERT_EQ(Downstream.Events.size(), size_t(NumThreads) * PerThread);
  for (const Event &Ev : Downstream.Events)
    ASSERT_LT(unsigned(Ev.K), NumEventKinds) << "sentinel leaked";
  // Per-producer program order and field integrity.
  std::vector<uint64_t> Next(NumThreads, 0);
  for (const SpanRecord &S : Downstream.Spans) {
    ASSERT_LT(S.Tid, NumThreads);
    uint64_t I = Next[S.Tid]++;
    ASSERT_EQ(S.Req, (uint64_t(S.Tid) << 32) | I) << "lost or reordered";
    ASSERT_EQ(S.Stage, static_cast<SpanStage>(I % NumSpanStages)) << "torn";
    ASSERT_EQ(S.Begin, I % 2 == 0) << "torn";
    ASSERT_EQ(S.TimeNs, UINT64_MAX - I) << "torn";
    ASSERT_EQ(S.Arg, ~S.Req) << "torn";
  }
  for (unsigned T = 0; T != NumThreads; ++T)
    EXPECT_EQ(Next[T], PerThread);
}

TEST(ObsChrome, RequestSpansExportAsAsyncEvents) {
  TraceData Data = smallTrace();
  SpanRecord B;
  B.Tid = 2;
  B.Req = 7;
  B.Stage = SpanStage::Handler;
  B.Begin = true;
  B.TimeNs = 1000;
  Data.Spans.push_back(B);
  SpanRecord E = B;
  E.Begin = false;
  E.TimeNs = 5000;
  Data.Spans.push_back(E);
  Data.SpanPos.assign(2, Data.Events.size());

  std::string Text = renderChromeTrace(Data);
  std::string Error;
  EXPECT_TRUE(validateChromeJson(Text, Error)) << Error << "\n" << Text;
  EXPECT_NE(Text.find("sharc requests"), std::string::npos) << Text;
  EXPECT_NE(Text.find("req7"), std::string::npos) << Text;

  // Async begin/end events without a string id violate the contract.
  EXPECT_FALSE(validateChromeJson(
      "{\"traceEvents\":[{\"name\":\"n\",\"ph\":\"b\",\"cat\":\"c\","
      "\"ts\":1,\"pid\":1,\"tid\":1}]}",
      Error));
}

TEST(ObsSummary, ScheduleMatchesFuzzerMapping) {
  TraceData Data = smallTrace();
  std::string Sched = renderSchedule(Data);
  // Spawn edges lower to releases, shared ops to plain acquire/release,
  // addresses scale by 8; conflicts and refcount events vanish.
  EXPECT_NE(Sched.find("release 1 7200\n"), std::string::npos) << Sched;
  EXPECT_NE(Sched.find("start 2 7200\n"), std::string::npos) << Sched;
  EXPECT_NE(Sched.find("acquire 2 1600\n"), std::string::npos) << Sched;
  EXPECT_EQ(Sched.find("conflict"), std::string::npos);
  // One line per replayable event: everything except the conflict.
  size_t Lines = 0;
  for (char C : Sched)
    Lines += C == '\n';
  EXPECT_EQ(Lines, Data.Events.size() - 1);
}

} // namespace

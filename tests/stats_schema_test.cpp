//===-- tests/stats_schema_test.cpp - The counter schema table ------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// rt::StatTable is the only description of the runtime's counters. For
// each row, a snapshot with only that counter set must come out of every
// projection once, under the row's name, and in the row's place: the
// .strc stats record, the sharc-stats-v1 JSON, the Prometheus series,
// the atomic RuntimeStats, the saturating difference and the profile's
// exact-totals check.
//
//===----------------------------------------------------------------------===//

#include "obs/MetricsJson.h"
#include "obs/Profile.h"
#include "obs/PromText.h"
#include "obs/TraceFile.h"
#include "rt/LiveStats.h"
#include "rt/Stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

using namespace sharc;

namespace {

size_t countOf(const std::string &Text, const std::string &Needle) {
  size_t N = 0;
  for (size_t P = Text.find(Needle); P != std::string::npos;
       P = Text.find(Needle, P + 1))
    ++N;
  return N;
}

std::string seriesOf(const char *Family, const char *LabelKey,
                     const char *LabelValue) {
  std::string Key = Family;
  if (LabelKey)
    Key += std::string("{") + LabelKey + "=\"" + LabelValue + "\"}";
  return Key;
}

std::string seriesOf(const rt::StatRow &Row) {
  return seriesOf(Row.Family, Row.LabelKey, Row.LabelValue);
}

class StatRowTest : public testing::TestWithParam<unsigned> {
protected:
  const rt::StatRow &Row = rt::StatTable[GetParam()];
  /// Multi-byte as a varint, and distinct per row.
  const uint64_t Value = 1000 + GetParam();

  rt::StatsSnapshot only() const {
    rt::StatsSnapshot S;
    S.*Row.Field = Value;
    return S;
  }
};

TEST_P(StatRowTest, RowIsCompleteAndInDeclarationOrder) {
  ASSERT_NE(Row.Field, nullptr);
  ASSERT_NE(Row.Key, nullptr);
  ASSERT_NE(Row.Family, nullptr);
  EXPECT_EQ(Row.LabelKey == nullptr, Row.LabelValue == nullptr);
  // Row I names the I-th member: the order the .strc record and the
  // JSON keys have always had.
  static_assert(sizeof(rt::StatsSnapshot) == rt::NumStats * sizeof(uint64_t));
  rt::StatsSnapshot S = only();
  uint64_t Slots[rt::NumStats];
  std::memcpy(Slots, &S, sizeof(Slots));
  for (unsigned I = 0; I != rt::NumStats; ++I)
    EXPECT_EQ(Slots[I], I == GetParam() ? Value : 0)
        << Row.Key << " in slot " << I;
}

TEST_P(StatRowTest, RuntimeStatsSnapshotsIntoTheRow) {
  rt::RuntimeStats Stats;
  Stats[rt::Stat(GetParam())].store(Value);
  EXPECT_EQ(Stats.snapshot(), only()) << Row.Key;
}

TEST_P(StatRowTest, SurvivesTheTraceRoundTripInItsPlace) {
  obs::TraceWriter W;
  W.stats(only());
  const std::string &Bytes = W.buffer();
  // Header, then the stats record: the tag and one varint per row.
  std::string Record(1, char(obs::StatsRecordTag));
  for (unsigned I = 0; I != rt::NumStats; ++I)
    obs::appendVarint(Record, I == GetParam() ? Value : 0);
  ASSERT_GT(Bytes.size(), 12 + Record.size());
  EXPECT_EQ(Bytes.substr(12, Record.size()), Record) << Row.Key;

  obs::TraceData Data;
  std::string Error;
  ASSERT_TRUE(obs::parseTrace(Bytes, Data, Error)) << Error;
  ASSERT_EQ(Data.Samples.size(), 1u);
  EXPECT_EQ(Data.Samples[0], only()) << Row.Key;
}

TEST_P(StatRowTest, AppearsOnceInTheStatsJson) {
  std::string Json = obs::statsToJson(only());
  std::string Key = std::string("\"") + Row.Key + "\":";
  EXPECT_EQ(countOf(Json, Key), 1u) << Json;
  EXPECT_EQ(countOf(Json, Key + std::to_string(Value)), 1u) << Json;
}

TEST_P(StatRowTest, AppearsOnceInTheExposition) {
  live::LiveSnapshot Snap;
  Snap.Stats = only();
  std::string Text = live::renderPrometheus(Snap, /*Scrapes=*/1);
  obs::PromDoc Doc;
  std::string Error;
  ASSERT_TRUE(obs::parsePromText(Text, Doc, Error)) << Error << "\n" << Text;
  unsigned Hits = 0;
  for (const obs::PromDoc::Sample &S : Doc.Samples)
    if (S.Key == seriesOf(Row)) {
      ++Hits;
      EXPECT_EQ(S.ValueText, std::to_string(Value)) << S.Key;
    }
  EXPECT_EQ(Hits, 1u) << seriesOf(Row) << "\n" << Text;
}

TEST_P(StatRowTest, DifferenceSaturates) {
  rt::StatsSnapshot S = only(), Zero;
  EXPECT_EQ(S - Zero, S);
  EXPECT_EQ(Zero - S, Zero) << Row.Key << " wrapped";
  EXPECT_EQ(S - S, Zero);
}

TEST_P(StatRowTest, ProfileTotalsCheckTheCheckCounters) {
  // No site records: every check counter of the final sample that is
  // nonzero disagrees with the profile, and only those do.
  obs::TraceData Data;
  Data.Samples.push_back(only());
  std::string Text = obs::renderProfile(obs::buildProfile(Data), Data);
  std::string Name = Row.Key;
  std::replace(Name.begin(), Name.end(), '_', ' ');
  std::string Mismatch = "MISMATCH: profile counts 0 " + Name +
                         ", final stats sample says " +
                         std::to_string(Value) + "\n";
  EXPECT_EQ(countOf(Text, Mismatch), Row.Check ? 1u : 0u) << Text;
  EXPECT_EQ(countOf(Text, "totals: exact match"), Row.Check ? 0u : 1u)
      << Text;
}

INSTANTIATE_TEST_SUITE_P(StatTable, StatRowTest,
                         testing::Range(0u, rt::NumStats));

TEST(StatTableTest, EveryRowIsOneSeries) {
  std::vector<std::string> Series;
  live::forEachStatMetric(rt::StatsSnapshot(), [&](const char *Family,
                                                   const char *LabelKey,
                                                   const char *LabelValue,
                                                   uint64_t) {
    Series.push_back(seriesOf(Family, LabelKey, LabelValue));
  });
  ASSERT_EQ(Series.size(), rt::NumStats);
  for (const rt::StatRow &Row : rt::StatTable)
    EXPECT_EQ(std::count(Series.begin(), Series.end(), seriesOf(Row)), 1)
        << seriesOf(Row);
}

} // namespace

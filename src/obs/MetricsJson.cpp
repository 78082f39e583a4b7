#include "obs/MetricsJson.h"

namespace sharc::obs {

void appendStatsJson(JsonWriter &W, const rt::StatsSnapshot &S) {
  W.beginObject();
  for (const rt::StatRow &R : rt::StatTable) {
    W.key(R.Key);
    W.value(S.*R.Field);
  }
  W.key("total_conflicts");
  W.value(S.totalConflicts());
  W.key("dynamic_accesses");
  W.value(S.dynamicAccesses());
  W.key("metadata_bytes");
  W.value(S.metadataBytes());
  W.endObject();
}

std::string statsToJson(const rt::StatsSnapshot &S) {
  JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value("sharc-stats-v1");
  W.key("stats");
  appendStatsJson(W, S);
  W.endObject();
  std::string Out = W.take();
  Out.push_back('\n');
  return Out;
}

} // namespace sharc::obs

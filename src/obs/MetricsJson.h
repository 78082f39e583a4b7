// JSON export for rt::StatsSnapshot — the machine-readable face of the
// counters behind Table 1 (DESIGN.md §10).
#ifndef SHARC_OBS_METRICSJSON_H
#define SHARC_OBS_METRICSJSON_H

#include "obs/Json.h"
#include "rt/Stats.h"

#include <string>

namespace sharc::obs {

/// Writes S as a JSON object value (the writer must be positioned where
/// a value is expected, e.g. after key()).
void appendStatsJson(JsonWriter &W, const rt::StatsSnapshot &S);

/// Standalone document: the snapshot plus its derived totals.
std::string statsToJson(const rt::StatsSnapshot &S);

} // namespace sharc::obs

#endif // SHARC_OBS_METRICSJSON_H

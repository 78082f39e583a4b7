//===-- sharcbench/harness/main.cpp - sharc-bench entry point -------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
//   sharc-bench --workload table1|serve|minic|rt_scaling --seed N
//               --seconds S --trace 0|1 [--small]
//
// Runs one workload for S seconds and prints, as the last line of
// standard output, one JSON object:
//
//   {"correct": ..., "attempted": N, "failed": N,
//    "metrics": {"name": {"value": X, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run emits the per-layer ledger instead. Progress and
// failure reasons go to standard error. run.py builds this binary and
// checks the metric set against BENCHMARK.json.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace sharcbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: sharc-bench --workload table1|serve|minic|rt_scaling "
               "--seed N --seconds S --trace 0|1 [--small]\n");
  return 2;
}

bool parseU64(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || End == S || *End)
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  RunContext Ctx;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    const char *V = I + 1 < Argc ? Argv[I + 1] : nullptr;
    uint64_t N = 0;
    if (A == "--small") {
      Ctx.Small = true;
    } else if (!V) {
      return usage();
    } else if (A == "--workload") {
      Ctx.Workload = V;
      HaveWorkload = true;
      ++I;
    } else if (A == "--seed" && parseU64(V, N)) {
      Ctx.Seed = N;
      ++I;
    } else if (A == "--seconds" && parseU64(V, N) && N > 0) {
      Ctx.Seconds = double(N);
      ++I;
    } else if (A == "--trace" && parseU64(V, N) && N <= 1) {
      Ctx.Trace = N == 1;
      ++I;
    } else {
      return usage();
    }
  }
  if (!HaveWorkload)
    return usage();

  StealMeter Steal;
  Report R;
  if (Ctx.Workload == "table1")
    runTable1(Ctx, R);
  else if (Ctx.Workload == "serve")
    runServe(Ctx, R);
  else if (Ctx.Workload == "minic")
    runMinic(Ctx, R);
  else if (Ctx.Workload == "rt_scaling")
    runRtScaling(Ctx, R);
  else
    return usage();

  if (!Ctx.Trace)
    R.metric("peak_rss_mb", peakRssMb(), "MB");
  double StealPct = Steal.pct();
  if (Ctx.Trace) {
    R.metric("host.steal_pct", StealPct, "%");
    R.metric("host.nproc", hostCpus(), "count");
  }
  for (const std::string &P : R.Problems)
    std::fprintf(stderr, "sharc-bench: FAILED: %s\n", P.c_str());

  bool Correct = R.Failed == 0 && R.Attempted > 0;
  for (const auto &[Name, VU] : R.Metrics)
    if (!std::isfinite(VU.first)) {
      std::fprintf(stderr, "sharc-bench: metric %s is not finite\n",
                   Name.c_str());
      Correct = false;
    }
  // Stamp the run (not a metric): what a reader needs to explain it.
  std::printf("# sharc-bench workload=%s seed=%llu seconds=%g trace=%d "
              "nproc=%u steal_pct=%.2f\n",
              Ctx.Workload.c_str(), (unsigned long long)Ctx.Seed, Ctx.Seconds,
              Ctx.Trace ? 1 : 0, hostCpus(), StealPct);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false", (unsigned long long)R.Attempted,
              (unsigned long long)R.Failed);
  bool First = true;
  for (const auto &[Name, VU] : R.Metrics) {
    double V = std::isfinite(VU.first) ? VU.first : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), V, VU.second.c_str());
    First = false;
  }
  std::printf("}}\n");
  // A wrong answer is reported in the JSON ("correct": false), not in
  // the exit status, so the caller always gets the numbers.
  return 0;
}

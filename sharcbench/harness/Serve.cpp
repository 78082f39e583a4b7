//===-- sharcbench/harness/Serve.cpp - The high-traffic scenario ----------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Workload `serve`: an in-process serve::Server over SimTransport with two
// workers, driven by serve::runOpenLoop on schedules from
// serve::buildSchedule. Clients repeat (20 requests each), so the locked
// session cache is hit.
//
//   Phase B (saturation): the whole schedule arrives at once, far above
//     capacity; checked (SharcPolicy) and orig (UncheckedPolicy) runs of
//     the same schedule alternate in pairs. Wall per request gives the
//     slowdown; completed/wall gives capacity.
//   Phase A (fixed rate, traced run only): an open-loop Poisson rate of
//     ~1/3 of checked capacity on a 4-CPU host; latency is timed by the
//     server from each request's scheduled arrival, so a stalled
//     generator cannot hide queueing (no coordinated omission).
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Traced.h"
#include "rt/Sharc.h"
#include "serve/LoadGen.h"
#include "serve/Server.h"

#include <algorithm>
#include <bit>
#include <cstdio>

using namespace sharc;
using namespace sharc::serve;

namespace sharcbench {
namespace {

constexpr uint64_t FixedRatePerSec = 15000;

struct RunOut {
  LoadResult Load;
  ServeStats Stats;
  double WallNs = 0;
  double CpuNs = 0;
  uint64_t Violations = 0;
  rt::StatsSnapshot Rt;
};

/// One serve run. Checked runs bring up a runtime configured as
/// \p Config (outside the timed region) and tear it down after.
template <typename P>
RunOut serveOnce(const std::vector<Arrival> &Schedule, const LoadConfig &Load,
                 const rt::RuntimeConfig &Config = rt::RuntimeConfig(),
                 obs::Sink *Trace = nullptr) {
  RunOut Out;
  if (P::Checked)
    rt::Runtime::init(Config);
  {
    SimTransport Net;
    SteadyClock::time_point Epoch = SteadyClock::now();
    uint64_t W0 = wallNs(), C0 = processCpuNs();
    Server<P> Srv(ServeParams(), Net, Epoch);
    Srv.setTrace(Trace);
    Srv.start();
    Out.Load = runOpenLoop(Net, Schedule, Load, Epoch);
    Srv.stop();
    Out.CpuNs = double(processCpuNs() - C0);
    Out.WallNs = double(wallNs() - W0);
    Out.Stats = Srv.takeStats();
  }
  if (P::Checked) {
    Out.Rt = rt::Runtime::get().getStats();
    Out.Violations = Out.Rt.totalConflicts();
    rt::Runtime::shutdown();
  }
  return Out;
}

/// Quantile \p Q of \p H in microseconds, interpolated linearly inside
/// the log-linear bucket that holds it (the histogram itself only
/// reports bucket edges).
double quantileUs(const Histogram &H, double Q) {
  if (H.count() == 0)
    return 0;
  uint64_t Hi = H.percentile(Q);
  // Rank-space extent of Hi's bucket: [QLo, QHi).
  auto Sup = [&](bool Inclusive) {
    double A = 0, B = 1;
    for (int I = 0; I != 50; ++I) {
      double M = (A + B) / 2;
      uint64_t V = H.percentile(M);
      if (Inclusive ? V <= Hi : V < Hi)
        A = M;
      else
        B = M;
    }
    return A;
  };
  double QLo = Sup(false), QHi = Sup(true);
  // Lower edge of Hi's own bucket (unit buckets below SubCount, then
  // SubCount buckets per octave), so the result never falls into empty
  // buckets below it.
  uint64_t Lo = Hi;
  if (Hi >= Histogram::SubCount) {
    unsigned Shift =
        63 - unsigned(std::countl_zero(Hi)) - Histogram::SubBits;
    Lo = (Hi >> Shift) << Shift;
  }
  if (Lo >= Hi || QHi <= QLo)
    return double(Hi) / 1000.0;
  double F = std::clamp((Q - QLo) / (QHi - QLo), 0.0, 1.0);
  return (double(Lo) + F * double(Hi - Lo)) / 1000.0;
}

struct Phase {
  std::vector<double> WallNs, CpuNs, Capacity, HandlerUs, HandlerP50Us, LagMs,
      PeakInflight;
  Histogram Latency;
  Histogram Stages[obs::NumSpanStages];
  uint64_t Hits = 0, Misses = 0, WrappedGauges = 0;
  rt::StatsSnapshot Rt;

  void add(const RunOut &O) {
    WallNs.push_back(O.WallNs);
    CpuNs.push_back(O.CpuNs);
    Capacity.push_back(double(O.Stats.Completed) / (O.WallNs / 1e9));
    HandlerP50Us.push_back(quantileUs(
        O.Stats.StageNs[unsigned(obs::SpanStage::Handler)], 0.5));
    HandlerUs.push_back(O.Stats.Completed
                            ? double(O.Stats.ServiceNs) / 1000.0 /
                                  double(O.Stats.Completed)
                            : 0);
    LagMs.push_back(double(O.Load.MaxLagNs) / 1e6);
    // PeakInflight is a racy gauge (approximate by design); a reading
    // above everything offered is a wrapped counter, not a peak.
    if (O.Stats.PeakInflight <= O.Load.Offered)
      PeakInflight.push_back(double(O.Stats.PeakInflight));
    else
      ++WrappedGauges;
    Latency.merge(O.Stats.LatencyNs);
    for (unsigned S = 0; S != obs::NumSpanStages; ++S)
      Stages[S].merge(O.Stats.StageNs[S]);
    Hits += O.Stats.SessionHits;
    Misses += O.Stats.SessionMisses;
    Rt = O.Rt;
  }
};

/// Accounting identity and answer checks for one run; every offered
/// request is one attempted operation.
void account(const RunOut &O, uint64_t ExpectedChecksum, const char *What,
             Report &R) {
  uint64_t Offered = O.Load.Offered;
  uint64_t Done = O.Stats.Completed + O.Stats.TimedOut + O.Load.Dropped;
  bool RunOk = Done == Offered && O.Stats.Checksum == ExpectedChecksum &&
               O.Violations == 0 && O.Stats.Errors == 0;
  R.Attempted += Offered;
  uint64_t Bad = RunOk ? Offered - O.Stats.Completed : Offered;
  R.Failed += Bad;
  if (Bad && R.Problems.size() < 16)
    R.Problems.push_back(
        std::string(What) + ": offered " + std::to_string(Offered) +
        " completed " + std::to_string(O.Stats.Completed) + " timed_out " +
        std::to_string(O.Stats.TimedOut) + " dropped " +
        std::to_string(O.Load.Dropped) + " violations " +
        std::to_string(O.Violations) +
        (O.Stats.Checksum == ExpectedChecksum ? "" : " checksum mismatch"));
}

} // namespace

void runServe(const RunContext &Ctx, Report &R) {
  LoadConfig Sat, Fixed;
  Sat.Clients = Fixed.Clients = Ctx.Small ? 50 : 1000;
  Sat.RequestsPerClient = Fixed.RequestsPerClient = 20;
  Sat.RatePerSec = 100000000; // all at once: far above capacity
  Fixed.RatePerSec = FixedRatePerSec;
  Sat.Seed = mixSeed(Ctx.Seed, 1);
  Fixed.Seed = mixSeed(Ctx.Seed, 2);

  // Set-up: build both schedules and bring the runtime and a checked
  // server up and down.
  std::vector<Arrival> SatSchedule, FixedSchedule;
  SetupSampler Setup(Ctx, [&] {
    SatSchedule = buildSchedule(Sat);
    FixedSchedule = buildSchedule(Fixed);
    rt::Runtime::init();
    {
      SimTransport Net;
      Server<SharcPolicy> Srv(ServeParams(), Net, SteadyClock::now());
      Srv.start();
      Srv.stop();
    }
    rt::Runtime::shutdown();
  });

  // Reference answer: the order-independent checksum is a function of
  // the schedule alone, so an orig run of the schedule fixes it.
  uint64_t SatSum = serveOnce<UncheckedPolicy>(SatSchedule, Sat).Stats.Checksum;

  // Phase B: saturated pairs, first side alternating.
  double BudgetB = Ctx.Seconds * (Ctx.Trace ? 0.3 : 0.9);
  Phase Checked, Orig;
  uint64_t Start = wallNs();
  unsigned MinPairs = Ctx.Small ? 1 : 3;
  for (unsigned I = 0; I < MinPairs || RunContext::within(Start, BudgetB);
       ++I) {
    Setup.tick();
    RunOut C, O;
    if (I % 2 == 0) {
      C = serveOnce<SharcPolicy>(SatSchedule, Sat);
      O = serveOnce<UncheckedPolicy>(SatSchedule, Sat);
    } else {
      O = serveOnce<UncheckedPolicy>(SatSchedule, Sat);
      C = serveOnce<SharcPolicy>(SatSchedule, Sat);
    }
    account(C, SatSum, "saturated checked run", R);
    account(O, SatSum, "saturated orig run", R);
    Checked.add(C);
    Orig.add(O);
  }

  std::fprintf(stderr,
               "serve: saturated pairs=%zu checked=%.0frps orig=%.0frps "
               "handler=%.2fus handler_p50=%.2f/%.2fus\n",
               Checked.WallNs.size(), median(Checked.Capacity),
               median(Orig.Capacity), median(Checked.HandlerUs),
               median(Checked.HandlerP50Us), median(Orig.HandlerP50Us));
  // The bounded wall ratio is per request: the median handler time. The
  // whole-run (capacity) ratio is a ledger metric, because it tracks the
  // hypervisor's steal: 1.41 at 1% steal, 1.89 at 21% on a 4-vCPU host,
  // while the orig server barely moves.
  if (!Ctx.Trace) {
    R.metric("setup_s", Setup.seconds(), "s");
    Setup.log("serve");
    R.metric("slowdown_x", pairedRatio(Checked.HandlerP50Us, Orig.HandlerP50Us),
             "x");
    R.metric("cpu_slowdown_x", pairedRatio(Checked.CpuNs, Orig.CpuNs), "x");
    return;
  }
  R.metric("serve.capacity_slowdown_x", pairedRatio(Checked.WallNs, Orig.WallNs),
           "x");

  // Phase A, for the ledger only: fixed-rate checked runs, and one orig.
  uint64_t FixedSum =
      serveOnce<UncheckedPolicy>(FixedSchedule, Fixed).Stats.Checksum;
  Phase Rate, OrigRate;
  Start = wallNs();
  unsigned MinRuns = Ctx.Small ? 1 : 2;
  for (unsigned I = 0;
       I < MinRuns || RunContext::within(Start, 0.3 * Ctx.Seconds); ++I) {
    RunOut C = serveOnce<SharcPolicy>(FixedSchedule, Fixed);
    account(C, FixedSum, "fixed-rate checked run", R);
    Rate.add(C);
  }
  RunOut O = serveOnce<UncheckedPolicy>(FixedSchedule, Fixed);
  account(O, FixedSum, "fixed-rate orig run", R);
  OrigRate.add(O);
  std::fprintf(stderr,
               "serve: fixed %llurps runs=%zu p50=%.1fus p99=%.1fus "
               "samples=%llu lag=%.2fms\n",
               (unsigned long long)FixedRatePerSec, Rate.WallNs.size(),
               quantileUs(Rate.Latency, 0.5), quantileUs(Rate.Latency, 0.99),
               (unsigned long long)Rate.Latency.count(), median(Rate.LagMs));

  R.metric("serve.p50_us", quantileUs(Rate.Latency, 0.5), "us");
  R.metric("serve.p99_us", quantileUs(Rate.Latency, 0.99), "us");
  R.metric("serve.samples", double(Rate.Latency.count()), "count");
  R.metric("serve.capacity_rps", median(Checked.Capacity), "1/s");
  R.metric("serve.handler_us", median(Checked.HandlerUs), "us");
  for (unsigned S = 0; S != obs::NumSpanStages; ++S) {
    std::string Name =
        std::string("serve.stage.") + obs::spanStageName(obs::SpanStage(S));
    R.metric(Name + ".p50_us", quantileUs(Rate.Stages[S], 0.5), "us");
    R.metric(Name + ".p99_us", quantileUs(Rate.Stages[S], 0.99), "us");
  }
  uint64_t Lookups = Checked.Hits + Checked.Misses + Rate.Hits + Rate.Misses;
  R.metric("serve.session_hit_pct",
           Lookups ? 100.0 * double(Checked.Hits + Rate.Hits) / double(Lookups)
                   : 0,
           "%");
  R.metric("serve.peak_inflight", median(Rate.PeakInflight), "count");
  if (Rate.WrappedGauges)
    std::fprintf(stderr, "serve: %llu fixed-rate runs read a wrapped "
                 "peak-inflight gauge\n",
                 (unsigned long long)Rate.WrappedGauges);
  R.metric("serve.gen_lag_ms", median(Rate.LagMs), "ms");
  R.metric("serve.unchecked.p50_us", quantileUs(OrigRate.Latency, 0.5), "us");
  R.metric("serve.unchecked.handler_us", median(Orig.HandlerUs), "us");
  R.metric("serve.unchecked.capacity_rps", median(Orig.Capacity), "1/s");
  emitRtCounters(Checked.Rt, R);

  // Traced run: runtime obs sink + profiling, and the server's spans.
  TraceRig Rig;
  RunOut T = serveOnce<SharcPolicy>(SatSchedule, Sat, Rig.config(), Rig.sink());
  account(T, SatSum, "traced checked run", R);
  emitCostShares(Rig.profile(),
                 median(Checked.CpuNs) - median(Orig.CpuNs), R);
  R.metric("obs.trace_overhead_x", T.WallNs / median(Checked.WallNs), "x");
}

} // namespace sharcbench

//===-- sharcbench/harness/Table1.cpp - The paper's six programs ----------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Workload `table1`: pfscan, aget, pbzip2, dillo, fftw and stunnel from
// src/workloads, each run as an interleaved (orig, checked) pair per
// round until the time budget is spent. Each checked run gets a fresh
// runtime (init and shutdown stay outside the timed region), the way
// each of the paper's program runs started with empty metadata.
//
// Deviations from bench_table1, on purpose:
//   - rows are sized to ~100 ms of orig time instead of 1-26 ms;
//   - worker/client counts are capped so a row's runnable threads fit
//     in the host's CPUs (the paper's Threads column assumed a quiet
//     multi-core box; this harness must not oversubscribe);
//   - orig and checked runs alternate in pairs (first side flips every
//     round) and each side reports a median, not a min-of-reps;
//   - a CPU-time ratio is reported beside the wall ratio, because aget
//     and dillo sleep on simulated network latency.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Traced.h"
#include "rt/Sharc.h"
#include "workloads/AgetWorkload.h"
#include "workloads/DilloWorkload.h"
#include "workloads/FftwWorkload.h"
#include "workloads/Pbzip2Workload.h"
#include "workloads/PfscanWorkload.h"
#include "workloads/StunnelWorkload.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <functional>

using namespace sharc;
using namespace sharc::workloads;

namespace sharcbench {
namespace {

struct Row {
  std::string Name;
  std::function<WorkloadResult()> Orig;
  std::function<WorkloadResult()> Checked;
  std::vector<double> OrigWall, CheckedWall, OrigCpu, CheckedCpu;

  double wallRatio() const { return pairedRatio(CheckedWall, OrigWall); }
  double cpuRatio() const { return pairedRatio(CheckedCpu, OrigCpu); }
};

template <typename ConfigT, typename FnT>
Row makeRow(const char *Name, ConfigT Config, FnT Fn) {
  Row R;
  R.Name = Name;
  R.Orig = [Config, Fn] { return Fn.template operator()<UncheckedPolicy>(Config); };
  R.Checked = [Config, Fn] { return Fn.template operator()<SharcPolicy>(Config); };
  return R;
}

/// The six rows, sized for ~100 ms of orig time each on a 4-CPU host
/// (Small: a few ms). Every data seed derives from the run seed.
std::vector<Row> buildRows(const RunContext &Ctx) {
  unsigned Cpus = hostCpus();
  auto Cap = [&](unsigned Want, unsigned Others) {
    return std::max(1u, std::min(Want, Cpus > Others ? Cpus - Others : 1u));
  };
  unsigned Div = Ctx.Small ? 16 : 1;
  std::vector<Row> Rows;
  {
    PfscanConfig C;
    C.NumWorkers = Cap(2, 1); // + the main thread, which feeds the queue
    C.NumFiles = 288 / Div;
    C.BytesPerFile = 32768;
    C.Seed = mixSeed(Ctx.Seed, 1);
    Rows.push_back(makeRow("pfscan", C, []<typename P>(const PfscanConfig &X) {
      return runPfscan<P>(X);
    }));
  }
  {
    AgetConfig C;
    // Fetchers sleep on network latency while main only joins. The file
    // is split evenly, so a thread count that does not divide it into
    // 16-byte granules puts two writers in one granule, which the
    // runtime rightly reports; use a power of two.
    C.NumThreads = std::bit_floor(Cap(4, 0));
    C.ResourceId = mixSeed(Ctx.Seed, 2);
    C.TotalBytes = (size_t(8) << 20) / Div;
    C.LatencyNanos = 150000;
    Rows.push_back(makeRow("aget", C, []<typename P>(const AgetConfig &X) {
      return runAget<P>(X);
    }));
  }
  {
    Pbzip2Config C;
    C.NumWorkers = Cap(3, 2); // + reader and writer
    C.NumBlocks = 24 / Div + 1;
    C.BlockBytes = 16384;
    C.Seed = mixSeed(Ctx.Seed, 3);
    Rows.push_back(makeRow("pbzip2", C, []<typename P>(const Pbzip2Config &X) {
      return runPbzip2<P>(X);
    }));
  }
  {
    DilloConfig C;
    C.NumWorkers = Cap(4, 1);
    C.NumRequests = 4096 / Div;
    C.LatencyNanos = 30000;
    C.Seed = mixSeed(Ctx.Seed, 4);
    Rows.push_back(makeRow("dillo", C, []<typename P>(const DilloConfig &X) {
      return runDillo<P>(X);
    }));
  }
  {
    FftwConfig C;
    C.NumWorkers = Cap(3, 1);
    C.NumTransforms = 32;
    C.TransformSize = size_t(65536) / Div;
    C.Seed = mixSeed(Ctx.Seed, 5);
    Rows.push_back(makeRow("fftw", C, []<typename P>(const FftwConfig &X) {
      return runFftw<P>(X);
    }));
  }
  {
    StunnelConfig C;
    C.NumClients = std::clamp(Cpus / 2, 1u, 3u); // client + server pairs
    C.MessagesPerClient = 2400 / Div;
    C.MessageBytes = 2048;
    C.Key = mixSeed(Ctx.Seed, 6);
    Rows.push_back(makeRow("stunnel", C, []<typename P>(const StunnelConfig &X) {
      return runStunnel<P>(X);
    }));
  }
  return Rows;
}

struct Timed {
  WorkloadResult Result;
  double WallMs = 0;
  double CpuMs = 0;
};

Timed timeRun(const std::function<WorkloadResult()> &Fn) {
  Timed T;
  uint64_t W0 = wallNs(), C0 = processCpuNs();
  T.Result = Fn();
  T.CpuMs = double(processCpuNs() - C0) / 1e6;
  T.WallMs = double(wallNs() - W0) / 1e6;
  return T;
}

/// One checked run under a fresh runtime configured as \p Config.
Timed checkedRun(const Row &Rw, const rt::RuntimeConfig &Config,
                 rt::StatsSnapshot &Stats) {
  rt::Runtime::init(Config);
  Timed T = timeRun(Rw.Checked);
  Stats = rt::Runtime::get().getStats();
  rt::Runtime::shutdown();
  return T;
}

/// Interleaved pairs until \p Budget seconds are spent (at least
/// \p MinRounds rounds). Checks every pair's answer. \p Setup, if given,
/// samples the set-up between rounds.
void measurePairs(std::vector<Row> &Rows, double Budget, unsigned MinRounds,
                  Report &R, SetupSampler *Setup = nullptr) {
  uint64_t Start = wallNs();
  for (unsigned Round = 0;
       Round < MinRounds || RunContext::within(Start, Budget); ++Round) {
    if (Setup)
      Setup->tick();
    for (Row &Rw : Rows) {
      Timed O, C;
      rt::StatsSnapshot Stats;
      if (Round % 2 == 0) {
        O = timeRun(Rw.Orig);
        C = checkedRun(Rw, rt::RuntimeConfig(), Stats);
      } else {
        C = checkedRun(Rw, rt::RuntimeConfig(), Stats);
        O = timeRun(Rw.Orig);
      }
      Rw.OrigWall.push_back(O.WallMs);
      Rw.OrigCpu.push_back(O.CpuMs);
      Rw.CheckedWall.push_back(C.WallMs);
      Rw.CheckedCpu.push_back(C.CpuMs);
      R.check(O.Result.Checksum == C.Result.Checksum,
              Rw.Name + ": orig and checked checksums differ");
      R.check(Stats.totalConflicts() == 0,
              Rw.Name + ": checked run reported " +
                  std::to_string(Stats.totalConflicts()) + " conflicts");
    }
  }
}

} // namespace

void runTable1(const RunContext &Ctx, Report &R) {
  std::vector<Row> Rows = buildRows(Ctx);

  // Set-up: bringing the runtime up and down, as every checked run does.
  SetupSampler Setup(Ctx, [] {
    rt::Runtime::init();
    rt::Runtime::shutdown();
  });

  // Warm-up round: page in code and the allocator; not recorded.
  {
    Report Scratch;
    std::vector<Row> Warm = buildRows(Ctx);
    measurePairs(Warm, 0, 1, Scratch);
  }

  unsigned MinRounds = Ctx.Small ? 1 : 3;
  double Budget = Ctx.Trace ? Ctx.Seconds * 0.6 : Ctx.Seconds;
  measurePairs(Rows, Budget, MinRounds, R, &Setup);

  std::vector<double> Wall, Cpu;
  for (const Row &Rw : Rows) {
    Wall.push_back(Rw.wallRatio());
    Cpu.push_back(Rw.cpuRatio());
    std::fprintf(stderr,
                 "table1: %-8s pairs=%zu orig=%.2fms checked=%.2fms "
                 "checked_cpu=%.2fms wall_x=%.4f cpu_x=%.4f\n",
                 Rw.Name.c_str(), Rw.OrigWall.size(), median(Rw.OrigWall),
                 median(Rw.CheckedWall), median(Rw.CheckedCpu), Rw.wallRatio(),
                 Rw.cpuRatio());
  }

  if (!Ctx.Trace) {
    R.metric("setup_s", Setup.seconds(), "s");
    Setup.log("table1");
    R.metric("slowdown_x", geomean(Wall), "x");
    R.metric("cpu_slowdown_x", geomean(Cpu), "x");
    return;
  }

  for (const Row &Rw : Rows) {
    R.metric("workloads." + Rw.Name + ".slowdown_x", Rw.wallRatio(), "x");
    R.metric("workloads." + Rw.Name + ".cpu_slowdown_x", Rw.cpuRatio(), "x");
  }

  // Memory and exact counters: one plain checked run per row, each under
  // a fresh runtime. The payload is defined as bench_table1 defines it:
  // the workload's peak payload estimate plus a 64 KiB process baseline.
  std::vector<double> MemX;
  rt::StatsSnapshot Total;
  for (const Row &Rw : Rows) {
    rt::StatsSnapshot S;
    Timed T = checkedRun(Rw, rt::RuntimeConfig(), S);
    double Payload = double(T.Result.PeakPayloadBytesEstimate) + 65536.0;
    MemX.push_back((Payload + double(S.metadataBytes())) / Payload);
    addCounters(Total, S);
    R.check(S.totalConflicts() == 0, Rw.Name + ": conflicts in ledger run");
  }
  R.metric("workloads.mem_overhead_x", geomean(MemX), "x");
  emitRtCounters(Total, R);

  // Traced run: obs sink + per-site profiling, one checked run per row.
  TraceRig Rig;
  rt::Runtime::init(Rig.config());
  std::vector<double> TraceX;
  double AddedCpuNs = 0;
  for (const Row &Rw : Rows) {
    Timed T = timeRun(Rw.Checked);
    TraceX.push_back(T.WallMs / median(Rw.CheckedWall));
    AddedCpuNs += (median(Rw.CheckedCpu) - median(Rw.OrigCpu)) * 1e6;
  }
  R.check(rt::Runtime::get().getStats().totalConflicts() == 0,
          "conflicts in the traced run");
  rt::Runtime::shutdown();
  emitCostShares(Rig.profile(), AddedCpuNs, R);
  R.metric("obs.trace_overhead_x", geomean(TraceX), "x");
}

} // namespace sharcbench

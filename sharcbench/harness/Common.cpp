//===-- sharcbench/harness/Common.cpp - Shared harness plumbing -----------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Traced.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <sys/resource.h>
#include <thread>
#include <x86intrin.h>

namespace sharcbench {

uint64_t wallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

static uint64_t clockNs(clockid_t Id) {
  timespec Ts{};
  clock_gettime(Id, &Ts);
  return uint64_t(Ts.tv_sec) * 1000000000ull + uint64_t(Ts.tv_nsec);
}

uint64_t processCpuNs() { return clockNs(CLOCK_PROCESS_CPUTIME_ID); }
uint64_t threadCpuNs() { return clockNs(CLOCK_THREAD_CPUTIME_ID); }

double peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

unsigned hostCpus() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Mid = V.size() / 2;
  return V.size() % 2 ? V[Mid] : (V[Mid - 1] + V[Mid]) / 2;
}

double pairedRatio(const std::vector<double> &Num,
                   const std::vector<double> &Den) {
  std::vector<double> R;
  for (size_t I = 0; I < Num.size() && I < Den.size(); ++I)
    R.push_back(Num[I] / Den[I]);
  return median(R);
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / double(V.size()));
}

uint64_t mixSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Stream + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

static bool readCpuLine(uint64_t &Steal, uint64_t &Total) {
  FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return false;
  unsigned long long V[8] = {};
  int N = std::fscanf(F, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &V[0],
                      &V[1], &V[2], &V[3], &V[4], &V[5], &V[6], &V[7]);
  std::fclose(F);
  if (N < 8)
    return false;
  Total = 0;
  for (unsigned long long X : V)
    Total += X;
  Steal = V[7];
  return true;
}

StealMeter::StealMeter() { readCpuLine(Steal0, Total0); }

double StealMeter::pct() const {
  uint64_t Steal = 0, Total = 0;
  if (!readCpuLine(Steal, Total) || Total <= Total0)
    return 0;
  return 100.0 * double(Steal - Steal0) / double(Total - Total0);
}

SetupSampler::SetupSampler(const RunContext &Ctx, std::function<void()> Setup)
    : Setup(std::move(Setup)), Sampling(!Ctx.Small && !Ctx.Trace),
      StartNs(wallNs()) {
  while (WallTimes.size() < MinSetupReps)
    once();
}

void SetupSampler::tick() {
  while (Sampling && SpentNs < SetupShare * double(wallNs() - StartNs))
    once();
}

void SetupSampler::once() {
  uint64_t T0 = wallNs(), C0 = processCpuNs();
  Setup();
  double Ns = double(wallNs() - T0);
  CpuTimes.push_back(double(processCpuNs() - C0) / 1e9);
  SpentNs += Ns;
  WallTimes.push_back(Ns / 1e9);
}

void SetupSampler::log(const char *Workload) const {
  std::fprintf(stderr, "%s: setup reps=%zu wall=%.4fms cpu=%.4fms\n",
               Workload, WallTimes.size(), 1e3 * median(WallTimes),
               1e3 * median(CpuTimes));
}

double tscNsPerCycle() {
  static const double Ratio = [] {
    uint64_t W0 = wallNs();
    uint64_t C0 = __rdtsc();
    while (wallNs() - W0 < 20000000) // 20 ms
      ;
    uint64_t C1 = __rdtsc();
    uint64_t W1 = wallNs();
    return double(W1 - W0) / double(C1 - C0);
  }();
  return Ratio;
}

void addCounters(sharc::rt::StatsSnapshot &Total,
                 const sharc::rt::StatsSnapshot &S) {
  Total.DynamicReads += S.DynamicReads;
  Total.DynamicWrites += S.DynamicWrites;
  Total.LockChecks += S.LockChecks;
  Total.RcBarriers += S.RcBarriers;
  Total.SharingCasts += S.SharingCasts;
  Total.Collections += S.Collections;
  Total.ShadowBytes += S.ShadowBytes;
  Total.RcTableBytes += S.RcTableBytes;
  Total.LogBytes += S.LogBytes;
}

void emitRtCounters(const sharc::rt::StatsSnapshot &S, Report &R) {
  R.metric("rt.shadow.checks", double(S.dynamicAccesses()), "count");
  R.metric("rt.lock.checks", double(S.LockChecks), "count");
  R.metric("rt.rc.barriers", double(S.RcBarriers), "count");
  R.metric("rt.cast.casts", double(S.SharingCasts), "count");
  R.metric("rt.cast.collections", double(S.Collections), "count");
  R.metric("rt.cast.collections_per_cast",
           S.SharingCasts ? double(S.Collections) / double(S.SharingCasts)
                          : 0,
           "ratio");
  R.metric("rt.meta_mb", double(S.metadataBytes()) / (1024.0 * 1024.0), "MB");
}

void emitCostShares(const sharc::obs::ProfileReport &P,
                    double CheckedMinusOrigNs, Report &R) {
  using sharc::obs::CheckKind;
  static const char *Names[] = {"read", "write", "lock", "rc", "cast"};
  double NsPerCycle = tscNsPerCycle();
  double Explained = 0;
  for (unsigned K = 0; K != sharc::obs::NumCheckKinds; ++K) {
    double Ns = double(P.KindCost[K]) * NsPerCycle;
    Explained += Ns;
    R.metric(std::string("rt.cost_share.") + Names[K],
             CheckedMinusOrigNs > 0 ? Ns / CheckedMinusOrigNs : 0, "ratio");
  }
  R.metric("rt.cost_share.residual",
           CheckedMinusOrigNs > 0 ? 1.0 - Explained / CheckedMinusOrigNs : 0,
           "ratio");
  auto PerOp = [&](CheckKind K) {
    unsigned I = unsigned(K);
    return P.KindCount[I] ? double(P.KindCost[I]) * NsPerCycle /
                                double(P.KindCount[I])
                          : 0.0;
  };
  R.metric("rt.lock.ns_per_check", PerOp(CheckKind::LockCheck), "ns");
  R.metric("rt.rc.ns_per_store", PerOp(CheckKind::RcBarrier), "ns");
}

} // namespace sharcbench

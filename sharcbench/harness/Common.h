//===-- sharcbench/harness/Common.h - Shared harness plumbing --*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clocks, order statistics, the metric ledger and the run context every
/// workload shares. A workload receives a RunContext (seed, time budget,
/// traced or not), spends its budget calling into the SharC modules, and
/// fills a Report: correctness accounting plus named metrics. main.cpp
/// turns the Report into the one-line JSON result.
///
//===----------------------------------------------------------------------===//

#ifndef SHARCBENCH_COMMON_H
#define SHARCBENCH_COMMON_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace sharcbench {

/// Monotonic wall clock, nanoseconds.
uint64_t wallNs();
/// CPU time of the whole process (user + sys, every thread), nanoseconds.
uint64_t processCpuNs();
/// CPU time of the calling thread, nanoseconds.
uint64_t threadCpuNs();
/// High-water resident set size of this process, MiB.
double peakRssMb();
/// Online CPUs.
unsigned hostCpus();

/// Median of \p V (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> V);
/// Median over interleaved pairs of Num[i] / Den[i]: each pair ran back
/// to back, so a slow host period scales both sides of it.
double pairedRatio(const std::vector<double> &Num,
                   const std::vector<double> &Den);
/// Geometric mean of positive values; 0 when empty.
double geomean(const std::vector<double> &V);

/// splitmix64: derives independent per-input seeds from the run seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream);

/// Share of CPU time the hypervisor stole between two /proc/stat reads.
class StealMeter {
public:
  StealMeter();
  /// Steal share since construction, percent (0 when unreadable).
  double pct() const;

private:
  uint64_t Steal0 = 0, Total0 = 0;
};

/// The parsed command line of one benchmark run.
struct RunContext {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Self-test size: every phase runs a handful of iterations only.
  bool Small = false;

  /// Time-box helper: true while \p Budget seconds since \p StartNs
  /// have not elapsed.
  static bool within(uint64_t StartNs, double Budget) {
    return double(wallNs() - StartNs) < Budget * 1e9;
  }
};

/// One run's outcome. Metrics are keyed by name; units travel with them.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// The first 16 failure reasons, echoed to stderr.
  std::vector<std::string> Problems;
  std::map<std::string, std::pair<double, std::string>> Metrics;

  void metric(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = {Value, Unit};
  }
  /// Counts one attempted operation; a false \p Ok also counts a failure
  /// and records \p What.
  void check(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      if (Problems.size() < 16)
        Problems.push_back(What);
    }
  }
};

/// Samples a workload's set-up over the whole run; setup_s is the median
/// repetition's process CPU time (every thread, user + sys). One set-up
/// lasts milliseconds while the host's speed drifts over seconds, so a
/// block of repetitions at the start reads whatever the host did in that
/// block. The constructor runs the set-up MinSetupReps times (minic's
/// and serve's inputs come from it); the workload then calls tick()
/// between measurement rounds, and tick() repeats the set-up until
/// set-up has taken SetupShare of the wall time since the sampler was
/// made. CPU time rather than wall time, because the kernel leaves time
/// the hypervisor steals out of it, while work moved into set-up shows
/// in it all the same. tick() does nothing in --small and traced runs,
/// which report no setup_s.
class SetupSampler {
public:
  SetupSampler(const RunContext &Ctx, std::function<void()> Setup);
  void tick();
  /// Median repetition's CPU time, seconds.
  double seconds() const { return median(CpuTimes); }
  /// Echoes the sample (count, median wall and CPU time) to standard
  /// error.
  void log(const char *Workload) const;

private:
  void once();

  std::function<void()> Setup;
  bool Sampling;
  uint64_t StartNs;
  double SpentNs = 0;
  std::vector<double> WallTimes, CpuTimes;
};
constexpr double SetupShare = 0.05;
constexpr unsigned MinSetupReps = 9;

/// Converts TSC cycles to nanoseconds (calibrated once per process
/// against the steady clock; the runtime's profiler times with the TSC).
double tscNsPerCycle();

// Workload entry points.
void runTable1(const RunContext &Ctx, Report &R);
void runServe(const RunContext &Ctx, Report &R);
void runMinic(const RunContext &Ctx, Report &R);
void runRtScaling(const RunContext &Ctx, Report &R);

} // namespace sharcbench

#endif // SHARCBENCH_COMMON_H

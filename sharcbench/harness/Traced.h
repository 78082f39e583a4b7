//===-- sharcbench/harness/Traced.h - Traced-run plumbing ------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run arms only tracing that already exists: the runtime's
/// obs sink plus per-site profiling (RuntimeConfig::Obs / Profile). The
/// sink below drops the per-access event and span streams and keeps the
/// profile records, which obs::buildProfile folds into per-kind
/// costs — the rt.cost_share.* ledger.
///
//===----------------------------------------------------------------------===//

#ifndef SHARCBENCH_TRACED_H
#define SHARCBENCH_TRACED_H

#include "Common.h"
#include "obs/Collector.h"
#include "obs/Profile.h"
#include "obs/Sink.h"
#include "rt/Config.h"
#include "rt/Stats.h"

#include <memory>

namespace sharcbench {

class ProfileSink final : public sharc::obs::Sink {
public:
  void event(const sharc::obs::Event &) override {}
  void siteProfile(const sharc::obs::SiteProfileRecord &R) override {
    Data.Sites.push_back(R);
  }
  void lockProfile(const sharc::obs::LockProfileRecord &R) override {
    Data.Locks.push_back(R);
  }
  void selfOverhead(const sharc::obs::SelfOverheadRecord &R) override {
    Data.Overheads.push_back(R);
  }

  sharc::obs::TraceData Data;
};

/// One armed tracing setup: a collector feeding a ProfileSink. Arm a
/// RuntimeConfig with config(); after Runtime::shutdown() (threads drain
/// their site tables at retire) call profile().
class TraceRig {
public:
  TraceRig() : Col(std::make_unique<sharc::obs::Collector>(Sink, 1u << 14)) {}

  sharc::rt::RuntimeConfig config() const {
    sharc::rt::RuntimeConfig C;
    C.Obs = Col.get();
    C.Profile = true;
    return C;
  }
  sharc::obs::Sink *sink() { return Col.get(); }

  sharc::obs::ProfileReport profile() {
    Col->flush();
    return sharc::obs::buildProfile(Sink.Data);
  }

private:
  ProfileSink Sink;
  std::unique_ptr<sharc::obs::Collector> Col;
};

/// Adds \p S's layer counters and metadata sizes (the fields
/// emitRtCounters reads) to \p Total, for runs under separate runtimes.
void addCounters(sharc::rt::StatsSnapshot &Total,
                 const sharc::rt::StatsSnapshot &S);

/// Emits the runtime's exact layer counters (rt.shadow.checks,
/// rt.lock.checks, rt.rc.barriers, rt.cast.*) and its metadata size
/// from one StatsSnapshot delta.
void emitRtCounters(const sharc::rt::StatsSnapshot &S, Report &R);

/// Emits rt.cost_share.{read,write,lock,rc,cast,residual}: each check
/// kind's profiled cost (sampled TSC cycles scaled to the full count) as
/// a share of \p CheckedMinusOrigNs, the CPU time checking added; the
/// residual is what the five kinds do not explain. Also emits the
/// profiled per-operation costs of the lock and RC layers.
void emitCostShares(const sharc::obs::ProfileReport &P,
                    double CheckedMinusOrigNs, Report &R);

} // namespace sharcbench

#endif // SHARCBENCH_TRACED_H

//===-- sharcbench/harness/RtScaling.cpp - Per-call runtime cost ----------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Workload `rt_scaling`: direct rt::Runtime calls on 1 thread and on
// every CPU, in three phases:
//
//   shared-read    checkRead + load on one shared buffer (all readers)
//   private-write  checkWrite + store on a per-thread buffer
//   hand-off       rcStore into a counted slot, then scast out of it on
//                  the neighbouring thread (ring of threads), which
//                  collects: the ownership hand-off of the paper's §4.3
//
// Each phase also runs "orig": the same loads, stores and pointer
// hand-offs without the runtime calls. Checked and orig rounds alternate
// on the same persistent threads; every figure is a median over rounds.
// Shared-read and private-write use the shadow word differently (reader
// bits vs the writer flag), so a gain for readers that costs writers
// shows up.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Traced.h"
#include "rt/Sharc.h"

#include <atomic>
#include <barrier>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

using namespace sharc;

namespace sharcbench {
namespace {

enum class Kind { SharedRead, PrivateWrite, Handoff };
const char *kindName(Kind K) {
  switch (K) {
  case Kind::SharedRead:
    return "shared-read";
  case Kind::PrivateWrite:
    return "private-write";
  case Kind::Handoff:
    return "hand-off";
  }
  return "?";
}

constexpr unsigned Granules = 1024; // 16 KiB buffers of 16-byte granules
constexpr unsigned SlotsPerLink = 8;
constexpr size_t ObjBytes = 64;

struct alignas(64) Slot {
  void *Ptr = nullptr;
  std::atomic<uint32_t> Full{0};
};

/// Buffers and slots shared by one configuration's threads.
struct Arena {
  unsigned Threads = 1;
  char *Shared = nullptr;
  std::vector<char *> Private;
  std::unique_ptr<Slot[]> Slots; // Threads * SlotsPerLink; link i -> i+1
  std::vector<std::vector<void *>> Hands;
  unsigned Offset = 0; // seeded starting granule

  explicit Arena(unsigned T, uint64_t Seed) : Threads(T) {
    rt::Runtime &RT = rt::Runtime::get();
    Shared = static_cast<char *>(RT.allocate(Granules * 16));
    std::memset(Shared, 1, Granules * 16);
    for (unsigned I = 0; I != T; ++I) {
      Private.push_back(static_cast<char *>(RT.allocate(Granules * 16)));
      std::memset(Private.back(), 0, Granules * 16);
    }
    Slots = std::make_unique<Slot[]>(size_t(T) * SlotsPerLink);
    for (unsigned I = 0; I != T * SlotsPerLink; ++I)
      RT.rcInitSlot(&Slots[I].Ptr);
    Hands.resize(T);
    for (unsigned I = 0; I != T; ++I)
      for (unsigned J = 0; J != SlotsPerLink; ++J)
        Hands[I].push_back(RT.allocate(ObjBytes));
    // Passes walk the granules in address order from a seeded start, so
    // the seed moves where a pass begins, not the memory access pattern.
    Offset = unsigned(mixSeed(Seed, T) % Granules);
  }
  ~Arena() {
    rt::Runtime &RT = rt::Runtime::get();
    for (auto &H : Hands)
      for (void *P : H)
        RT.deallocate(P);
    for (char *P : Private)
      RT.deallocate(P);
    RT.deallocate(Shared);
  }
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  unsigned granule(uint64_t I) const { return unsigned((I + Offset) % Granules); }
};

inline void pause() { __builtin_ia32_pause(); }

/// The per-access "application" work both sides of a read/write pass do:
/// one multiply-xorshift step on a running value. Each step depends on
/// the last, so the orig loop is bound by this latency (a few cycles)
/// instead of by store or load throughput, which swings with whatever
/// shares the core.
inline uint64_t mix(uint64_t V) {
  V *= 0x9E3779B97F4A7C15ull;
  return V ^ (V >> 29);
}

/// Spins briefly, then yields: the peer may be descheduled.
template <typename PredT> void waitFor(PredT Pred) {
  for (unsigned Spins = 0; !Pred(); ++Spins) {
    if (Spins < 64)
      pause();
    else
      std::this_thread::yield();
  }
}

/// One thread's share of a round. \p Ops is per-thread work: granule
/// visits (read/write phases) or hand-offs.
template <bool Checked>
uint64_t body(Arena &A, Kind K, unsigned Tid, uint64_t Ops) {
  rt::Runtime *RT = Checked ? &rt::Runtime::get() : nullptr;
  uint64_t Sum = 0;
  switch (K) {
  case Kind::SharedRead:
    for (uint64_t I = 0; I != Ops; ++I) {
      const char *P = A.Shared + 16 * A.granule(I);
      if (Checked)
        RT->checkRead(P, 8, nullptr);
      uint64_t V;
      std::memcpy(&V, P, 8);
      Sum = mix(Sum + V);
    }
    break;
  case Kind::PrivateWrite: {
    char *Buf = A.Private[Tid];
    for (uint64_t I = 0; I != Ops; ++I) {
      char *P = Buf + 16 * A.granule(I);
      if (Checked)
        RT->checkWrite(P, 8, nullptr);
      Sum = mix(Sum + I);
      std::memcpy(P, &Sum, 8);
    }
    break;
  }
  case Kind::Handoff: {
    Slot *Out = &A.Slots[size_t(Tid) * SlotsPerLink];
    unsigned From = (Tid + A.Threads - 1) % A.Threads;
    Slot *In = &A.Slots[size_t(From) * SlotsPerLink];
    std::vector<void *> &Hand = A.Hands[Tid];
    for (uint64_t I = 0; I != Ops; ++I) {
      Slot &S = Out[I % SlotsPerLink];
      waitFor([&] { return S.Full.load(std::memory_order_acquire) == 0; });
      void *Obj = Hand.back();
      Hand.pop_back();
      if (Checked)
        RT->rcStore(&S.Ptr, Obj);
      else
        S.Ptr = Obj;
      S.Full.store(1, std::memory_order_release);

      Slot &T = In[I % SlotsPerLink];
      waitFor([&] { return T.Full.load(std::memory_order_acquire) == 1; });
      void *Got;
      if (Checked) {
        Got = RT->scast(&T.Ptr, ObjBytes, nullptr);
      } else {
        Got = T.Ptr;
        T.Ptr = nullptr;
      }
      T.Full.store(0, std::memory_order_release);
      Hand.push_back(Got);
      Sum += reinterpret_cast<uintptr_t>(Got) & 1;
    }
    break;
  }
  }
  return Sum;
}

/// Persistent workers for one thread count; main releases each round
/// through a barrier and times it.
class Pool {
public:
  Pool(Arena &A, unsigned T) : A(A), Sync(T + 1) {
    for (unsigned I = 0; I != T; ++I)
      Workers.emplace_back([this, I] { loop(I); });
  }
  ~Pool() {
    Stop = true;
    Sync.arrive_and_wait();
    for (Thread &W : Workers)
      W.join();
  }
  Pool(const Pool &) = delete;
  Pool &operator=(const Pool &) = delete;

  struct Sample {
    double WallNs, CpuNs;
  };
  Sample round(Kind K, bool Checked, uint64_t Ops) {
    Cur = K;
    CurChecked = Checked;
    CurOps = Ops;
    uint64_t W0 = wallNs(), C0 = processCpuNs();
    Sync.arrive_and_wait(); // release
    Sync.arrive_and_wait(); // all done
    return {double(wallNs() - W0), double(processCpuNs() - C0)};
  }

private:
  void loop(unsigned Tid) {
    for (;;) {
      Sync.arrive_and_wait();
      if (Stop)
        return;
      uint64_t S = CurChecked ? body<true>(A, Cur, Tid, CurOps)
                              : body<false>(A, Cur, Tid, CurOps);
      Sink.fetch_add(S, std::memory_order_relaxed);
      Sync.arrive_and_wait();
    }
  }

  Arena &A;
  std::barrier<> Sync;
  // Written by main between barrier phases only.
  Kind Cur = Kind::SharedRead;
  bool CurChecked = false;
  uint64_t CurOps = 0;
  bool Stop = false;
  std::atomic<uint64_t> Sink{0}; // keeps the orig loops' loads alive
  std::vector<Thread> Workers; // last: joined before the rest go
};

struct Item {
  Kind K;
  unsigned Threads;
  uint64_t CheckedOps, OrigOps; // per thread per round
  std::vector<double> CheckedNs, OrigNs, CheckedCpu, OrigCpu;

  /// Per-thread wall ns per operation.
  double checkedNsPerOp() const { return median(CheckedNs) / double(CheckedOps); }
  double origNsPerOp() const { return median(OrigNs) / double(OrigOps); }
  double opsRatio() const { return double(OrigOps) / double(CheckedOps); }
  double wallRatio() const { return pairedRatio(CheckedNs, OrigNs) * opsRatio(); }
  double cpuRatio() const {
    return pairedRatio(CheckedCpu, OrigCpu) * opsRatio();
  }
};

/// Runs \p It's rounds until \p Budget seconds pass (at least
/// \p MinRounds pairs).
void measure(Item &It, uint64_t Seed, double Budget, unsigned MinRounds) {
  Arena A(It.Threads, Seed);
  Pool P(A, It.Threads);
  P.round(It.K, true, It.CheckedOps / 4); // warm: shadow bits, code
  P.round(It.K, false, It.OrigOps / 4);
  uint64_t Start = wallNs();
  for (unsigned R = 0; R < MinRounds || RunContext::within(Start, Budget);
       ++R) {
    bool CheckedFirst = R % 2 == 0;
    for (int Side = 0; Side != 2; ++Side) {
      bool Checked = (Side == 0) == CheckedFirst;
      Pool::Sample S =
          P.round(It.K, Checked, Checked ? It.CheckedOps : It.OrigOps);
      (Checked ? It.CheckedNs : It.OrigNs).push_back(S.WallNs);
      (Checked ? It.CheckedCpu : It.OrigCpu).push_back(S.CpuNs);
    }
  }
}

} // namespace

void runRtScaling(const RunContext &Ctx, Report &R) {
  // Default RuntimeConfig: one shadow byte per granule, 7 thread ids;
  // main plus up to six workers.
  unsigned TMax = std::min(hostCpus(), 6u);
  uint64_t Scale = Ctx.Small ? 1 : 16;

  SetupSampler Setup(Ctx, [&] {
    rt::Runtime::init();
    { Arena A(TMax, Ctx.Seed); }
    rt::Runtime::shutdown();
  });

  // The end-to-end ratios use the 1-thread items only: on a shared host
  // the all-CPU orig loops swing with the neighbours' memory traffic far
  // more than the checked ones do. The all-CPU items feed the ledger.
  std::vector<unsigned> Counts = {1u};
  if (Ctx.Trace)
    Counts.push_back(TMax);
  std::vector<Item> Items;
  for (Kind K : {Kind::SharedRead, Kind::PrivateWrite, Kind::Handoff})
    for (unsigned T : Counts) {
      bool Cast = K == Kind::Handoff;
      Item It{K, T, Cast ? 256 * Scale : Granules * 16 * Scale,
              Cast ? 4096 * Scale : Granules * 256 * Scale, {}, {}, {}, {}};
      Items.push_back(It);
    }
  double PerItem = Ctx.Seconds * (Ctx.Trace ? 0.6 : 0.95) / Items.size();
  // Each item runs under a runtime of its own, so the set-up (which
  // brings a runtime up and down) is sampled between items. The phases
  // are race-free by construction and every cast hands over the sole
  // reference: any report is a runtime defect.
  rt::StatsSnapshot Total;
  for (Item &It : Items) {
    Setup.tick();
    rt::Runtime::init();
    measure(It, Ctx.Seed, PerItem, Ctx.Small ? 1 : 3);
    rt::StatsSnapshot S = rt::Runtime::get().getStats();
    rt::Runtime::shutdown();
    R.check(S.totalConflicts() == 0,
            std::string(kindName(It.K)) + " phase reported " +
                std::to_string(S.totalConflicts()) + " conflicts");
    addCounters(Total, S);
    R.Attempted += It.CheckedNs.size() + It.OrigNs.size();
    std::fprintf(stderr,
                 "rt_scaling: %-13s t=%u rounds=%zu checked=%.2fns/op "
                 "orig=%.3fns/op x=%.2f\n",
                 kindName(It.K), It.Threads, It.CheckedNs.size(),
                 It.checkedNsPerOp(), It.origNsPerOp(), It.wallRatio());
  }
  Setup.tick();

  std::vector<double> WallX, CpuX;
  for (const Item &It : Items) {
    WallX.push_back(It.wallRatio());
    CpuX.push_back(It.cpuRatio());
  }
  if (!Ctx.Trace) {
    R.metric("setup_s", Setup.seconds(), "s");
    Setup.log("rt_scaling");
    R.metric("slowdown_x", geomean(WallX), "x");
    R.metric("cpu_slowdown_x", geomean(CpuX), "x");
    return;
  }

  // Items are ordered {read, write, hand-off} x {1, TMax}.
  auto ChecksPerSec = [&](unsigned T) {
    const Item &Rd = Items[T == 1 ? 0 : 1], &Wr = Items[T == 1 ? 2 : 3];
    double Ns = Rd.checkedNsPerOp() + Wr.checkedNsPerOp();
    return 2.0 * double(Rd.Threads) * 1e9 / Ns;
  };
  R.metric("rt.checks_per_s.t1", ChecksPerSec(1), "1/s");
  R.metric("rt.checks_per_s.tmax", ChecksPerSec(TMax), "1/s");
  R.metric("rt.shadow.ns_per_check.t1", 1e9 / ChecksPerSec(1), "ns");
  R.metric("rt.shadow.ns_per_check.tmax",
           1e9 * double(TMax) / ChecksPerSec(TMax), "ns");
  const Item &Hand = Items[5];
  R.metric("rt.casts_per_s.tmax",
           double(Hand.Threads) * 1e9 / Hand.checkedNsPerOp(), "1/s");
  R.metric("rt.cast.us_per_cast.tmax", Hand.checkedNsPerOp() / 1000.0, "us");
  emitRtCounters(Total, R);

  // Traced run: the TMax items once more, one round each, with the obs
  // sink and per-site profiling armed.
  TraceRig Rig;
  rt::Runtime::init(Rig.config());
  std::vector<double> TraceX;
  double AddedCpuNs = 0;
  for (const Item &It : Items) {
    if (It.Threads != TMax)
      continue;
    Arena A(It.Threads, Ctx.Seed);
    Pool P(A, It.Threads);
    Pool::Sample S = P.round(It.K, true, It.CheckedOps);
    TraceX.push_back(S.WallNs / median(It.CheckedNs));
    AddedCpuNs += median(It.CheckedCpu) -
                  median(It.OrigCpu) * double(It.CheckedOps) / double(It.OrigOps);
  }
  R.check(rt::Runtime::get().getStats().totalConflicts() == 0,
          "conflicts in the traced run");
  rt::Runtime::shutdown();
  emitCostShares(Rig.profile(), AddedCpuNs, R);
  R.metric("obs.trace_overhead_x", geomean(TraceX), "x");
}

} // namespace sharcbench

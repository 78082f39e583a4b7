//===-- serve/Server.h - Annotated multi-threaded request server *- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharc-serve request server: one acceptor thread pulling simulated
/// connections off a Transport, a worker pool, and a logger thread,
/// templated over workloads::Policy so the identical source runs as the
/// uninstrumented baseline (UncheckedPolicy, "orig") and the annotated
/// build (SharcPolicy) — which is how the armed-vs-disabled overhead
/// gate and the orig/sharc checksum equivalence tests work.
///
/// Thread / sharing-mode map (DESIGN.md §15 renders the full table):
///
///   published run config   readonly   init() before threads start
///   live counters          racy       monitoring-grade, scraped by
///                                     /metrics; increments may race
///   session cache cells    locked     per-shard mutex; Value/Hits
///   connection table gauge locked     per-shard mutex; open-conn count
///   request connections    counted +  acceptor fills privately, casts
///                          dynamic    into the ingress ring; worker
///                                     casts out, payload accesses are
///                                     dynamic-checked ranges
///   log records            counted    worker -> logger hand-off
///   per-worker aggregates  private    adopted by the worker, handed
///                                     back to the collector after join
///
/// The hand-off rings are bounded, so back-pressure exists INSIDE the
/// server (acceptor blocks when workers fall behind) but never reaches
/// the open-loop load generator — the transport queue is unbounded,
/// like a remote client population that doesn't slow down just because
/// the server is busy.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_SERVE_SERVER_H
#define SHARC_SERVE_SERVER_H

#include "obs/Sink.h"
#include "serve/Clock.h"
#include "serve/Histogram.h"
#include "serve/Transport.h"
#include "workloads/Policy.h"

#include <cstring>
#include <memory>
#include <new>
#include <unordered_map>
#include <vector>

namespace sharc {
namespace serve {

struct ServeParams {
  unsigned Workers = 2;
  unsigned SessionShardCount = 64; ///< Power of two.
  unsigned ConnShardCount = 64;    ///< Power of two.
  size_t RingCapacity = 1024;      ///< Ingress / log hand-off ring depth.
  uint64_t ServiceNanos = 20000;   ///< Simulated backend CPU per request.
  uint64_t CipherKey = 0x243f6a8885a308d3ull;
  /// serve_guard's deliberate bug: every Nth request updates its session
  /// cell WITHOUT taking the shard lock (0 = off). Under SharcPolicy the
  /// locked-mode check catches each first offence deterministically.
  uint64_t InjectRaceEvery = 0;
  /// sharc-span's injected tail pathology: every Nth request spins for
  /// InjectStallNanos INSIDE its session-shard lock section (0 = off),
  /// so requests behind the same shard pile up in lock-wait and the
  /// tail report must attribute them to the stalling holder.
  uint64_t InjectStallEvery = 0;
  uint64_t InjectStallNanos = 2000000;

  //===---- sharc-storm: overload protection (DESIGN.md §17) ----------===//

  /// Master switch for the robustness layer. Off (the default) keeps
  /// the pre-storm pipeline byte for byte: blocking ring pushes, no
  /// admission checks, strict completed==offered accounting. Armed by
  /// sharc-serve whenever --max-inflight, --deadline-ms, or a chaos
  /// plan is given.
  bool Resilient = false;
  /// Admission cap on live connections (0 = bounded only by the ring):
  /// at or above it, new connections are shed with a typed rejection.
  uint64_t MaxInflight = 0;
  /// Per-request deadline budget from scheduled arrival (0 = none).
  /// Checked at admission (stale arrivals are shed before any alloc)
  /// and again at worker dequeue (stale queue residents are dropped
  /// with a counted timeout instead of burning handler CPU).
  uint64_t DeadlineNanos = 0;

  //===---- sharc-storm: chaos faults (guard::FaultConfig mirrors) ----===//

  /// worker-stall: each worker sleeps this long (0 = off) every
  /// WorkerStallEvery-th request it handles. A sleep, not a CPU spin,
  /// so handler thread-CPU — the overhead-gate statistic — is honest.
  uint64_t WorkerStallNanos = 0;
  uint64_t WorkerStallEvery = 64;
  /// worker-crash: worker 0 exits its loop after this many requests
  /// (0 = off). Always at a request boundary — a crashed worker never
  /// strands a connection it owns.
  uint64_t WorkerCrashAfter = 0;
  /// logger-wedge: the logger sleeps this long on its first record
  /// (0 = off), backing the log ring up against the workers.
  uint64_t LoggerWedgeNanos = 0;

  /// Ring watermarks for the degradation ladder, as depth thresholds
  /// derived from RingCapacity: enter degraded mode at High, exit (and
  /// count a recovery) at Low.
  size_t highWatermark() const { return RingCapacity - RingCapacity / 4; }
  size_t lowWatermark() const { return RingCapacity / 4; }
};

/// Post-run aggregate, folded from the per-thread private states.
struct ServeStats {
  uint64_t Accepted = 0;
  uint64_t Completed = 0;
  uint64_t Errors = 0;
  uint64_t BytesIn = 0;
  uint64_t BytesOut = 0;
  uint64_t SessionHits = 0;
  uint64_t SessionMisses = 0;
  uint64_t PeakInflight = 0; ///< Highest inflight count an admission saw.
  uint64_t ServiceNs = 0;    ///< Thread-CPU time inside handlers.
  uint64_t LogRecords = 0;
  uint64_t OpCounts[OpKinds] = {};
  uint64_t Checksum = 0; ///< Order-independent; orig == sharc.
  /// sharc-storm resilience counters (all 0 when the layer is off).
  uint64_t Shed = 0;           ///< Connections refused by admission control.
  uint64_t TimedOut = 0;       ///< Admitted, then dropped on a blown deadline.
  uint64_t LogShed = 0;        ///< Log records shed under degraded mode.
  uint64_t Recoveries = 0;     ///< Degraded episodes that ended.
  uint64_t DegradedNs = 0;     ///< Total wall time spent degraded.
  uint64_t FaultsInjected = 0; ///< Chaos faults that actually fired.
  Histogram RecoveryNs;        ///< Time-to-recover per degraded episode.
  Histogram LatencyNs;
  /// Per-pipeline-stage durations (obs::SpanStage order), folded from
  /// the role that measures each stage; always collected (the clock
  /// reads ride along with the ones the latency path already does), so
  /// the bench report's serve.stages section exists with or without a
  /// span trace.
  Histogram StageNs[obs::NumSpanStages];
};

/// One in-flight connection. Filled privately by the acceptor, then
/// ownership moves to a worker via the counted ingress ring; the payload
/// is dynamic-checked raw memory (readRange/writeRange) allocated INLINE
/// after the struct — a sharing cast clears the access history of the
/// whole heap allocation, so keeping header and payload in one
/// allocation is what makes the acceptor->worker hand-off cover both.
template <typename P> struct Connection {
  uint64_t Client = 0;
  uint64_t Seq = 0;
  uint8_t Kind = OpGet;
  uint64_t ArrivalNs = 0;
  uint64_t EnqueueNs = 0; ///< When the acceptor pushed it into the ring.
  uint32_t PayloadSize = 0;

  uint8_t *payload() { return reinterpret_cast<uint8_t *>(this + 1); }
};

/// Completion record, worker -> logger via the counted log ring.
struct LogRecord {
  uint64_t Client = 0;
  uint8_t Kind = OpGet;
  uint64_t LatencyNs = 0;
  uint32_t Bytes = 0;
  uint64_t Seq = 0;       ///< Request id, for the request's span tree.
  uint64_t EnqueueNs = 0; ///< When the worker pushed it into the ring.
};

/// Bounded MPMC hand-off ring whose cells are counted pointer slots:
/// every push/pop is a sharing cast, so a connection's access history is
/// cleared exactly when ownership moves between threads — the paper's
/// "ownership transfer through a queue" pattern (cf. StunnelWorkload).
template <typename P, typename T> class HandoffRing {
public:
  explicit HandoffRing(size_t Capacity) : Cap(Capacity) {
    // Cells hold counted slots and must live in stable storage (the
    // policy heap defers frees past pending RC logs).
    Cells = static_cast<Cell *>(P::alloc(sizeof(Cell) * Cap));
    for (size_t I = 0; I != Cap; ++I)
      new (&Cells[I]) Cell();
  }
  ~HandoffRing() {
    for (size_t I = 0; I != Cap; ++I)
      Cells[I].~Cell();
    P::dealloc(Cells);
  }

  HandoffRing(const HandoffRing &) = delete;
  HandoffRing &operator=(const HandoffRing &) = delete;

  void push(T *Item, const rt::AccessSite *Site) {
    typename P::UniqueLock Lock(Mu);
    NotFull.wait(Lock, [&] { return Count < Cap; });
    Cells[Tail % Cap].Slot.store(P::castIn(Item, Site));
    ++Tail;
    ++Count;
    NotEmpty.notifyOne();
  }

  /// Non-blocking push: false when the ring is full — the typed
  /// backpressure signal the sharc-storm admission layer sheds on
  /// instead of queueing unboundedly. The sharing cast happens only on
  /// success, so a refused item's access history is untouched and the
  /// caller still owns it.
  bool tryPush(T *Item, const rt::AccessSite *Site) {
    typename P::UniqueLock Lock(Mu);
    if (Count >= Cap)
      return false;
    Cells[Tail % Cap].Slot.store(P::castIn(Item, Site));
    ++Tail;
    ++Count;
    NotEmpty.notifyOne();
    return true;
  }

  /// Instantaneous occupancy — the backpressure gauge the degradation
  /// ladder watches. Monitoring-grade: the value is stale the moment
  /// the lock drops, which is fine for watermark decisions.
  size_t depth() {
    typename P::UniqueLock Lock(Mu);
    return Count;
  }

  size_t capacity() const { return Cap; }

  /// Null once the ring is closed and drained.
  T *pop(const rt::AccessSite *Site) {
    typename P::UniqueLock Lock(Mu);
    NotEmpty.wait(Lock, [&] { return Count > 0 || Closed; });
    if (Count == 0)
      return nullptr;
    T *Item = Cells[Head % Cap].Slot.castOut(Site);
    ++Head;
    --Count;
    NotFull.notifyOne();
    return Item;
  }

  void close() {
    {
      typename P::LockGuard Lock(Mu);
      Closed = true;
    }
    NotEmpty.notifyAll();
  }

private:
  struct Cell {
    typename P::template Counted<T> Slot;
  };

  typename P::Mutex Mu;
  typename P::CondVar NotEmpty;
  typename P::CondVar NotFull;
  Cell *Cells = nullptr;
  size_t Cap;
  size_t Head = 0;
  size_t Tail = 0;
  size_t Count = 0;
  bool Closed = false;
};

/// Session cache entry: locked-mode cells bound to the shard mutex.
template <typename P> struct Session {
  typename P::template Locked<uint64_t> Value;
  typename P::template Locked<uint64_t> Hits;
  explicit Session(typename P::Mutex &Lock) : Value(Lock, 0), Hits(Lock, 0) {}
};

template <typename P> struct SessionShard {
  typename P::Mutex Lock;
  /// Guarded by Lock. The map is container metadata; the checked cells
  /// are the Session fields it points at.
  std::unordered_map<uint64_t, Session<P> *> Map;
};

/// Connection-table shard: an id -> connection index plus a locked-mode
/// open-connection gauge.
template <typename P> struct ConnShard {
  typename P::Mutex Lock;
  typename P::template Locked<uint64_t> Open;
  /// Guarded by Lock; values are weak references (ownership flows
  /// through the ingress ring, not the table).
  std::unordered_map<uint64_t, Connection<P> *> Map;
  ConnShard() : Open(Lock, 0) {}
};

/// Per-worker private aggregate (latency histogram included): adopted by
/// the worker at start, handed back to the stats collector after join.
struct WorkerLocal {
  Histogram LatencyNs;
  uint64_t ServiceNs = 0;
  uint64_t Completed = 0;
  uint64_t Errors = 0;
  uint64_t Checksum = 0;
  uint64_t SessionHits = 0;
  uint64_t SessionMisses = 0;
  uint64_t BytesOut = 0;
  uint64_t TimedOut = 0;       ///< Dequeued past their deadline, dropped.
  uint64_t LogShed = 0;        ///< Log records shed (degraded / ring full).
  uint64_t FaultsInjected = 0; ///< worker-stall / worker-crash fired.
  uint64_t Handled = 0;        ///< All dequeues (chaos period counter).
  uint64_t OpCounts[OpKinds] = {};
  /// RingWait / Handler / LockWait / LockHold slots used.
  Histogram StageNs[obs::NumSpanStages];
};

struct AcceptorLocal {
  uint64_t Accepted = 0;
  uint64_t PeakInflight = 0;
  uint64_t BytesIn = 0;
  uint64_t Shed = 0;       ///< Refused admissions (ring full / inflight cap).
  uint64_t Recoveries = 0; ///< Degraded episodes closed.
  uint64_t DegradedNs = 0; ///< Total wall time degraded.
  Histogram RecoveryNs;    ///< Per-episode time to recover.
  /// Accept slot used.
  Histogram StageNs[obs::NumSpanStages];
};

struct LoggerLocal {
  uint64_t Records = 0;
  uint64_t Bytes = 0;
  uint64_t FaultsInjected = 0; ///< logger-wedge fired.
  uint64_t OpCounts[OpKinds] = {};
  /// LogWait / Logger slots used.
  Histogram StageNs[obs::NumSpanStages];
};

template <typename P> class Server {
public:
  Server(const ServeParams &Params, Transport &Net,
         SteadyClock::time_point Epoch);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Arms request-span emission (sharc-span, DESIGN.md §16): every
  /// pipeline stage boundary publishes a SpanRecord to \p S, which must
  /// be thread-safe (obs::Collector) and outlive the server. Call
  /// before start(); null (the default) costs one predictable branch
  /// per boundary. Span Tids are pipeline ROLE ids — acceptor 1,
  /// workers 2..W+1, logger W+2 — not runtime thread ids, so the span
  /// tree is stable across scheduler placements.
  void setTrace(obs::Sink *S) { Trace = S; }

  /// Spawns acceptor + workers + logger.
  void start();

  /// Closes the transport ingress, drains everything in flight, joins
  /// all threads, and quiesces the instrumentation. Idempotent.
  void stop();

  /// Folds the per-thread private aggregates; call after stop().
  ServeStats takeStats();

  /// Live (racy, approximate) progress counters for /metrics-style
  /// observation while the run is in flight.
  uint64_t liveAccepted() const { return AcceptedLive.read(); }
  uint64_t liveCompleted() const { return CompletedLive.read(); }
  uint64_t liveShed() const { return ShedLive.read(); }
  bool liveDegraded() const { return DegradedLive.read() != 0; }
  uint64_t liveInflight() const { return inflight(AcceptedLive.read()); }

private:
  /// Pipeline role ids used as span Tids.
  static constexpr uint32_t AcceptorRole = 1;
  static constexpr uint32_t FirstWorkerRole = 2;

  void acceptorMain();
  void workerMain(unsigned Index);
  void loggerMain();

  Connection<P> *makeConnection(SimRequest &&Req, AcceptorLocal &Local);
  /// Admission control (sharc-storm): true when \p Req must be shed —
  /// deadline already blown, inflight cap reached, or the ingress ring
  /// is full (checked by the caller via tryPush).
  bool mustShed(const SimRequest &Req, const AcceptorLocal &Local,
                uint64_t NowNs);
  /// Sheds \p Req: counted rejection back through the transport plus an
  /// Accept span pair carrying the shed outcome. No allocation, no
  /// conn-table entry, no sharing cast — shedding is cheap by design.
  void shedConnection(const SimRequest &Req, AcceptorLocal &Local);
  /// Drops an admitted-but-stale connection at dequeue (deadline blown
  /// while queued): teardown plus a Handler span pair carrying the
  /// timed-out outcome.
  void dropTimedOut(Connection<P> *Conn, WorkerLocal &Local, uint32_t Role);
  void teardownConnection(Connection<P> *Conn, uint32_t Role);
  /// Connections admitted (\p Accepted of them) and not yet torn down; a
  /// stale retired count only over-counts. The clamp covers a reader
  /// whose \p Accepted is staler than the retirements it sees.
  uint64_t inflight(uint64_t Accepted) const {
    uint64_t Retired = 0;
    for (unsigned I = 0; I != Config.get().Workers; ++I)
      Retired += RetiredLive[I].Count.read();
    return Accepted > Retired ? Accepted - Retired : 0;
  }
  void handle(Connection<P> *Conn, WorkerLocal &Local, uint32_t Role);
  Session<P> *findOrCreateSession(SessionShard<P> &Shard, uint64_t Key,
                                  WorkerLocal &Local);

  void emitSpan(uint32_t Role, uint64_t Req, obs::SpanStage Stage,
                bool Begin, uint64_t TimeNs, uint64_t Arg = 0) {
    if (Trace)
      Trace->span({Role, Req, Stage, Begin, TimeNs, Arg});
  }

  Transport &Net;
  SteadyClock::time_point Epoch;
  obs::Sink *Trace = nullptr;

  /// readonly: published once, before start() spawns any thread.
  typename P::template ReadOnly<ServeParams> Config;

  /// racy: live monitoring counters; update races are intentional and
  /// the values are approximate (exact counts come from the private
  /// per-thread aggregates after the run).
  typename P::template Racy<uint64_t> AcceptedLive;
  typename P::template Racy<uint64_t> CompletedLive;
  /// racy, one writer each: the connections worker I has torn down.
  /// AcceptedLive (the acceptor's alone) minus their sum is the exact
  /// inflight gauge: with one writer per count no update is lost.
  struct alignas(64) RetiredCount {
    typename P::template Racy<uint64_t> Count;
  };
  std::unique_ptr<RetiredCount[]> RetiredLive;
  /// Degraded-mode flag (sharc-storm): set by the acceptor at the ring
  /// high watermark, cleared at the low watermark. Racy on purpose —
  /// workers poll it to shed logger work, and reading a one-update-
  /// stale value merely sheds (or keeps) one more log record.
  typename P::template Racy<uint64_t> DegradedLive;
  typename P::template Racy<uint64_t> ShedLive;

  std::unique_ptr<SessionShard<P>[]> Sessions;
  std::unique_ptr<ConnShard<P>[]> Conns;
  std::unique_ptr<HandoffRing<P, Connection<P>>> Ingress;
  std::unique_ptr<HandoffRing<P, LogRecord>> LogRing;

  std::unique_ptr<typename P::template Private<WorkerLocal>[]> WorkerStates;
  typename P::template Private<AcceptorLocal> AcceptorState;
  typename P::template Private<LoggerLocal> LoggerState;

  std::vector<typename P::Thread> Threads;
  bool Stopped = false;
};

using workloads::SharcPolicy;
using workloads::UncheckedPolicy;

extern template class Server<UncheckedPolicy>;
extern template class Server<SharcPolicy>;

} // namespace serve
} // namespace sharc

#endif // SHARC_SERVE_SERVER_H

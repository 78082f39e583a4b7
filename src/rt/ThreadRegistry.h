//===-- rt/ThreadRegistry.h - Thread ids and per-thread state ---*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assigns small thread ids (1..8n-1, matching the shadow-byte encoding of
/// Section 4.2.1) and owns per-thread state: the first-access log used to
/// clear a thread's shadow bits cheaply at exit, the per-thread
/// reference-counting logs of the adapted Levanoni-Petrank algorithm
/// (Section 4.3), and the held-lock log (Section 4.2.2).
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RT_THREADREGISTRY_H
#define SHARC_RT_THREADREGISTRY_H

#include "rt/LockLog.h"
#include "rt/Profile.h"
#include "rt/RcLog.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace sharc {
namespace rt {

/// All per-thread runtime state. Allocated when a thread registers and
/// retained (in a retired list) after it exits until the next reference
/// count collection has drained its logs.
struct ThreadState {
  /// Small id, 1..maxThreads. Doubles as the shadow bit index.
  unsigned Tid = 0;

  /// Granule base addresses whose shadow cell this thread has set a bit in
  /// since the bit was last clear. Used to clear this thread's bits at exit
  /// ("the clearing operation is made efficient by logging the addresses of
  /// all of a thread's reads and writes on its first accesses").
  std::vector<uintptr_t> AccessLog;

  /// Double-buffered reference-count update logs, indexed by epoch.
  RcLog RcLogs[2];

  /// Nonzero (epoch+1) while the thread is inside an RC write barrier;
  /// the collector spins until no thread is mid-barrier in the old epoch.
  std::atomic<uint32_t> InBarrier{0};

  /// Locks this thread currently holds, exclusive or shared (Section
  /// 4.2.2 and the Section 7 rwlocked extension).
  LockLog<const void *> Locks;

  /// True once the thread has deregistered; retired states are kept until
  /// their RC logs have been collected.
  bool Retired = false;

  /// Per-site cost profile (sharc-prof). Allocated at registration when
  /// RuntimeConfig::Profile is set, null otherwise — the disabled check
  /// paths test this pointer, nothing more.
  std::unique_ptr<ThreadProfile> Prof;

  size_t memoryFootprint() const {
    return AccessLog.capacity() * sizeof(uintptr_t) +
           RcLogs[0].memoryFootprint() + RcLogs[1].memoryFootprint() +
           Locks.bytes() + (Prof ? Prof->tableBytes() : 0);
  }
};

/// Hands out thread ids and tracks live and retired ThreadStates. The
/// registry is owned by the Runtime; one instance per runtime lifetime.
class ThreadRegistry {
public:
  explicit ThreadRegistry(unsigned MaxThreads);
  ~ThreadRegistry();

  ThreadRegistry(const ThreadRegistry &) = delete;
  ThreadRegistry &operator=(const ThreadRegistry &) = delete;

  /// Registers the calling thread and returns its state. Asserts if more
  /// than MaxThreads threads are simultaneously live (the paper's encoding
  /// supports 8n-1 concurrent threads).
  ThreadState *registerThread();

  /// Marks \p State retired and frees its id for reuse. The state object
  /// itself stays alive until purgeRetired() (called after a collection).
  void deregisterThread(ThreadState *State);

  /// Invokes \p Fn on every live and retired ThreadState, holding the
  /// structural lock for the duration.
  template <typename FnT> void forEachState(FnT Fn) {
    std::lock_guard<std::mutex> Lock(Mutex);
    forEachStateUnlocked(Fn);
  }

  /// Takes the structural lock, preventing register/deregister/purge until
  /// the returned lock is released. The RC collector holds this for a whole
  /// collection so the thread set stays consistent across its passes.
  std::unique_lock<std::mutex> lockStructure() {
    return std::unique_lock<std::mutex>(Mutex);
  }

  /// Iteration usable while the caller holds lockStructure().
  template <typename FnT> void forEachStateUnlocked(FnT Fn) {
    for (auto &State : Live)
      if (State)
        Fn(*State);
    for (auto &State : Retired)
      Fn(*State);
  }

  /// Frees retired states whose logs have been drained by the collector.
  void purgeRetired();

  /// purgeRetired() for callers already holding lockStructure().
  void purgeRetiredUnlocked();

  unsigned getMaxThreads() const { return MaxThreads; }
  unsigned getNumLive() const;
  /// High-water mark of simultaneously registered threads.
  unsigned getPeakLive() const { return PeakLive; }
  /// Total registrations over the registry's lifetime (ids reused or
  /// not) — the stats endpoint's sharc_threads_spawned_total.
  uint64_t getNumEverRegistered() const {
    return EverRegistered.load(std::memory_order_relaxed);
  }

private:
  unsigned MaxThreads;
  mutable std::mutex Mutex;
  /// Index = tid - 1. Null when the id is free.
  std::vector<std::unique_ptr<ThreadState>> Live;
  std::vector<std::unique_ptr<ThreadState>> Retired;
  unsigned PeakLive = 0;
  std::atomic<uint64_t> EverRegistered{0};
};

} // namespace rt
} // namespace sharc

#endif // SHARC_RT_THREADREGISTRY_H

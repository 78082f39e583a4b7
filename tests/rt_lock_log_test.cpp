//===-- tests/rt_lock_log_test.cpp - Locked-mode rule tests ---------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks rt/LockLog.h, the one implementation of the locked-mode rule,
/// against a reference that keeps the held locks as a plain multiset:
/// first the bare log through every sequence of up to six acquire and
/// release steps over two locks and both modes, then a real rt::Runtime
/// driven through sharc::Mutex and sharc::SharedMutex.
///
//===----------------------------------------------------------------------===//

#include "rt/LockLog.h"
#include "rt/Sharc.h"

#include <gtest/gtest.h>

#include <string>

using namespace sharc;
using namespace sharc::rt;

namespace {

constexpr LockMode Modes[] = {LockMode::Exclusive, LockMode::Shared};

const char *modeName(LockMode M) {
  return M == LockMode::Exclusive ? "X" : "S";
}

/// The held locks as a multiset: Count[lock][mode] holds.
struct MultisetReference {
  unsigned Count[2][2] = {};

  void acquire(unsigned Lock, LockMode M) { ++Count[Lock][unsigned(M)]; }
  bool release(unsigned Lock, LockMode M) {
    unsigned &C = Count[Lock][unsigned(M)];
    if (C == 0)
      return false;
    --C;
    return true;
  }
  /// A write need is met by an exclusive hold; a read need by any hold.
  bool holds(unsigned Lock, LockMode Need) const {
    const unsigned *C = Count[Lock];
    return C[unsigned(LockMode::Exclusive)] != 0 ||
           (Need == LockMode::Shared && C[unsigned(LockMode::Shared)] != 0);
  }
  unsigned size() const {
    return Count[0][0] + Count[0][1] + Count[1][0] + Count[1][1];
  }
};

static_assert(satisfies(LockMode::Exclusive, LockMode::Exclusive) &&
                  satisfies(LockMode::Exclusive, LockMode::Shared),
              "an exclusive hold meets either need");
static_assert(satisfies(LockMode::Shared, LockMode::Shared) &&
                  !satisfies(LockMode::Shared, LockMode::Exclusive),
              "a shared hold meets only a read need");

/// One step: acquire or release \p Lock in \p Mode.
struct Step {
  bool Acquire;
  unsigned Lock;
  LockMode Mode;
};

std::string stepName(const Step &S) {
  return std::string(S.Acquire ? " acq" : " rel") + std::to_string(S.Lock) +
         modeName(S.Mode);
}

/// Walks every step sequence of up to \p Depth steps below the current
/// state, checking the log against the reference after each step.
/// \returns the number of sequences visited.
unsigned walk(LockLog<uint64_t> &Log, MultisetReference &Ref, unsigned Depth,
              std::string &Trail) {
  unsigned Visited = 1;
  if (Depth == 0)
    return Visited;
  for (bool Acquire : {true, false})
    for (unsigned Lock : {0u, 1u})
      for (LockMode M : Modes) {
        Step S{Acquire, Lock, M};
        size_t Mark = Trail.size();
        Trail += stepName(S);
        bool Applied = true;
        if (Acquire) {
          Log.acquire(Lock + 1, M);
          Ref.acquire(Lock, M);
        } else {
          Applied = Ref.release(Lock, M);
          EXPECT_EQ(Log.release(Lock + 1, M), Applied) << Trail;
        }
        for (unsigned L : {0u, 1u})
          for (LockMode Need : Modes)
            EXPECT_EQ(Log.holds(L + 1, Need), Ref.holds(L, Need))
                << Trail << " need " << modeName(Need) << " of lock " << L;
        EXPECT_GE(Log.bytes(), Ref.size() * (sizeof(uint64_t) + 1)) << Trail;
        if (::testing::Test::HasFailure())
          return Visited;
        Visited += walk(Log, Ref, Depth - 1, Trail);
        // Undo the step so the siblings start from the same state.
        if (Applied && Acquire) {
          Log.release(Lock + 1, M);
          Ref.release(Lock, M);
        } else if (Applied) {
          Log.acquire(Lock + 1, M);
          Ref.acquire(Lock, M);
        }
        Trail.resize(Mark);
      }
  return Visited;
}

} // namespace

TEST(LockLogTest, EverySequenceOfSixStepsMatchesTheMultisetReference) {
  LockLog<uint64_t> Log;
  MultisetReference Ref;
  std::string Trail;
  unsigned Visited = walk(Log, Ref, 6, Trail);
  // 8 steps (acquire/release x 2 locks x 2 modes) per level.
  EXPECT_EQ(Visited, 1u + 8 + 64 + 512 + 4096 + 32768 + 262144);
  EXPECT_FALSE(Log.holds(1, LockMode::Shared));
  EXPECT_FALSE(Log.holds(2, LockMode::Shared));
}

TEST(LockLogTest, ReleaseDropsOneHoldOfTheGivenMode) {
  LockLog<const void *> Log;
  int L = 0;
  Log.acquire(&L, LockMode::Shared);
  Log.acquire(&L, LockMode::Shared);
  Log.acquire(&L, LockMode::Exclusive);
  EXPECT_TRUE(Log.release(&L, LockMode::Exclusive));
  EXPECT_FALSE(Log.release(&L, LockMode::Exclusive));
  EXPECT_FALSE(Log.holds(&L, LockMode::Exclusive));
  EXPECT_TRUE(Log.release(&L, LockMode::Shared));
  EXPECT_TRUE(Log.holds(&L, LockMode::Shared));
  EXPECT_TRUE(Log.release(&L, LockMode::Shared));
  EXPECT_FALSE(Log.holds(&L, LockMode::Shared));
  Log.acquire(&L, LockMode::Exclusive);
  Log.clear();
  EXPECT_FALSE(Log.holds(&L, LockMode::Shared));
}

namespace {

class RuntimeGuard {
public:
  RuntimeGuard() { Runtime::init(); }
  ~RuntimeGuard() { Runtime::shutdown(); }
};

/// A real Mutex (lock 0, exclusive only) and SharedMutex (lock 1) on one
/// thread. Neither is re-entrant, so a lock is taken only when free, and
/// lock 0 is the outer lock: it is taken and dropped only while lock 1 is
/// free, so the walk keeps one lock order.
class RealLocks {
public:
  /// \returns false when the step is not valid for a real lock in its
  /// current state.
  bool apply(const Step &S, MultisetReference &Ref) {
    unsigned Held = Ref.Count[S.Lock][0] + Ref.Count[S.Lock][1];
    if (S.Lock == 0 &&
        (S.Mode == LockMode::Shared || Ref.Count[1][0] + Ref.Count[1][1] != 0))
      return false;
    if (S.Acquire ? Held != 0 : Ref.Count[S.Lock][unsigned(S.Mode)] == 0)
      return false;
    if (S.Acquire)
      Ref.acquire(S.Lock, S.Mode);
    else
      Ref.release(S.Lock, S.Mode);
    if (S.Lock == 0)
      S.Acquire ? M.lock() : M.unlock();
    else if (S.Mode == LockMode::Exclusive)
      S.Acquire ? SM.lock() : SM.unlock();
    else
      S.Acquire ? SM.lock_shared() : SM.unlock_shared();
    return true;
  }

  const void *lock(unsigned I) const {
    return I == 0 ? static_cast<const void *>(&M) : &SM;
  }

private:
  Mutex M;
  SharedMutex SM;
};

/// The runtime counterpart of walk(): every valid sequence of up to
/// \p Depth steps, each followed by a checkLockHeld per lock and need.
/// \p Expected counts the violations the reference predicts. \returns
/// the number of steps taken.
unsigned walkRuntime(RealLocks &Locks, MultisetReference &Ref,
                     unsigned Depth, uint64_t &Expected, std::string &Trail) {
  Runtime &RT = Runtime::get();
  static int Data;
  unsigned Steps = 0;
  if (Depth == 0)
    return Steps;
  for (bool Acquire : {true, false})
    for (unsigned Lock : {0u, 1u})
      for (LockMode M : Modes) {
        Step S{Acquire, Lock, M};
        if (!Locks.apply(S, Ref))
          continue;
        ++Steps;
        size_t Mark = Trail.size();
        Trail += stepName(S);
        for (unsigned L : {0u, 1u})
          for (LockMode Need : Modes) {
            bool Want = Ref.holds(L, Need);
            Expected += !Want;
            EXPECT_EQ(RT.checkLockHeld(Locks.lock(L), &Data, nullptr, Need),
                      Want)
                << Trail << " need " << modeName(Need) << " of lock " << L;
          }
        if (::testing::Test::HasFailure())
          return Steps;
        Steps += walkRuntime(Locks, Ref, Depth - 1, Expected, Trail);
        Locks.apply(Step{!Acquire, Lock, M}, Ref);
        Trail.resize(Mark);
      }
  return Steps;
}

} // namespace

TEST(LockLogTest, RuntimeLockChecksMatchTheReference) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  RealLocks Locks;
  MultisetReference Ref;
  uint64_t Expected = 0;
  std::string Trail;
  unsigned Steps = walkRuntime(Locks, Ref, 6, Expected, Trail);
  StatsSnapshot S = RT.getStats();
  EXPECT_GT(Steps, 100u);
  EXPECT_EQ(S.LockChecks, 4u * Steps);
  EXPECT_EQ(S.LockViolations, Expected);
  EXPECT_EQ(Ref.size(), 0u);
}

TEST(LockLogTest, LogBytesCountSharedHolds) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  (void)RT.currentThread();
  uint64_t Before = RT.getStats().LogBytes;
  SharedMutex M;
  M.lock_shared();
  EXPECT_GT(RT.getStats().LogBytes, Before);
  M.unlock_shared();
}

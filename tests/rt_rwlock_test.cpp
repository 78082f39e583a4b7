//===-- tests/rt_rwlock_test.cpp - Reader-writer locked mode --------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the rwlocked sharing mode (the Section 7 "more support for
/// locks" extension): reads require a shared or exclusive hold, writes
/// require an exclusive hold, and the shared/exclusive logs are
/// per-thread like the paper's lock log.
///
//===----------------------------------------------------------------------===//

#include "rt/Sharc.h"

#include <gtest/gtest.h>

using namespace sharc;
using namespace sharc::rt;

namespace {

class RuntimeGuard {
public:
  RuntimeGuard() { Runtime::init(); }
  ~RuntimeGuard() { Runtime::shutdown(); }
};

} // namespace

TEST(RwLockLogTest, SharedAndExclusiveHoldsTrackedSeparately) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  SharedMutex M;
  EXPECT_FALSE(RT.holdsLock(&M));
  EXPECT_FALSE(RT.holdsLock(&M, LockMode::Shared));
  M.lock_shared();
  // A shared hold meets a read need but not a write need...
  EXPECT_FALSE(RT.holdsLock(&M));
  EXPECT_TRUE(RT.holdsLock(&M, LockMode::Shared));
  M.unlock_shared();
  EXPECT_FALSE(RT.holdsLock(&M, LockMode::Shared));
  M.lock();
  // ...and an exclusive hold meets both.
  EXPECT_TRUE(RT.holdsLock(&M));
  EXPECT_TRUE(RT.holdsLock(&M, LockMode::Shared));
  M.unlock();
  EXPECT_FALSE(RT.holdsLock(&M, LockMode::Shared));
}

TEST(RwLockedTest, ReadUnderSharedHoldIsClean) {
  RuntimeGuard Guard;
  SharedMutex M;
  RwLocked<int> Value(M, 5);
  {
    SharedLockGuard Lock(M);
    EXPECT_EQ(Value.read(), 5);
  }
  EXPECT_EQ(Runtime::get().getStats().LockViolations, 0u);
}

TEST(RwLockedTest, ReadUnderExclusiveHoldIsClean) {
  RuntimeGuard Guard;
  SharedMutex M;
  RwLocked<int> Value(M, 5);
  {
    ExclusiveLockGuard Lock(M);
    EXPECT_EQ(Value.read(), 5);
  }
  EXPECT_EQ(Runtime::get().getStats().LockViolations, 0u);
}

TEST(RwLockedTest, UnlockedReadIsViolation) {
  RuntimeGuard Guard;
  SharedMutex M;
  RwLocked<int> Value(M, 5);
  Value.read(SHARC_SITE("value"));
  EXPECT_EQ(Runtime::get().getStats().LockViolations, 1u);
}

TEST(RwLockedTest, WriteUnderExclusiveHoldIsClean) {
  RuntimeGuard Guard;
  SharedMutex M;
  RwLocked<int> Value(M, 0);
  {
    ExclusiveLockGuard Lock(M);
    Value.write(9);
    EXPECT_EQ(Value.read(), 9);
  }
  EXPECT_EQ(Runtime::get().getStats().LockViolations, 0u);
}

TEST(RwLockedTest, WriteUnderSharedHoldIsViolation) {
  // The distinctive rule: a reader hold does not license writes.
  RuntimeGuard Guard;
  SharedMutex M;
  RwLocked<int> Value(M, 0);
  {
    SharedLockGuard Lock(M);
    Value.write(1, SHARC_SITE("value"));
  }
  EXPECT_EQ(Runtime::get().getStats().LockViolations, 1u);
  auto Reports = Runtime::get().getReports().getReports();
  ASSERT_EQ(Reports.size(), 1u);
  EXPECT_EQ(Reports[0].Kind, ReportKind::LockViolation);
}

TEST(RwLockedTest, ConcurrentSharedReadersAreClean) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  auto *M = sharc::alloc<SharedMutex>();
  auto *Value = sharc::alloc<RwLocked<int>>(*M, 7);
  std::vector<Thread> Readers;
  for (int I = 0; I != 4; ++I)
    Readers.emplace_back([&] {
      for (int Round = 0; Round != 100; ++Round) {
        SharedLockGuard Lock(*M);
        EXPECT_EQ(Value->read(), 7);
      }
    });
  for (Thread &T : Readers)
    T.join();
  EXPECT_EQ(RT.getStats().LockViolations, 0u);
  sharc::dealloc(Value);
  sharc::dealloc(M);
}

TEST(RwLockedTest, WriterAmongReadersIsCleanWhenDisciplined) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  auto *M = sharc::alloc<SharedMutex>();
  auto *Value = sharc::alloc<RwLocked<int>>(*M, 0);
  Thread Writer([&] {
    for (int I = 1; I <= 50; ++I) {
      ExclusiveLockGuard Lock(*M);
      Value->write(I);
    }
  });
  Thread Reader([&] {
    int Last = 0;
    for (int I = 0; I != 50; ++I) {
      SharedLockGuard Lock(*M);
      int Now = Value->read();
      EXPECT_GE(Now, Last);
      Last = Now;
    }
  });
  Writer.join();
  Reader.join();
  EXPECT_EQ(RT.getStats().LockViolations, 0u);
  sharc::dealloc(Value);
  sharc::dealloc(M);
}

TEST(RwLockedTest, SharedHoldsArePerThread) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  SharedMutex M;
  M.lock_shared();
  bool OtherHolds = true;
  Thread T([&] { OtherHolds = RT.holdsLock(&M, LockMode::Shared); });
  T.join();
  EXPECT_FALSE(OtherHolds);
  M.unlock_shared();
}

TEST(RwLockedTest, NestedSharedHoldsUnwindCorrectly) {
  RuntimeGuard Guard;
  Runtime &RT = Runtime::get();
  SharedMutex M1, M2;
  M1.lock_shared();
  M2.lock_shared();
  EXPECT_TRUE(RT.holdsLock(&M1, LockMode::Shared));
  EXPECT_TRUE(RT.holdsLock(&M2, LockMode::Shared));
  M1.unlock_shared();
  EXPECT_FALSE(RT.holdsLock(&M1, LockMode::Shared));
  EXPECT_TRUE(RT.holdsLock(&M2, LockMode::Shared));
  M2.unlock_shared();
}

//===-- tests/rt_sharing_word_test.cpp - Fig. 5 transition tests ---------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks rt/SharingWord.h, the one implementation of the paper's
/// reader/writer rule, against a reference that keeps the reader and
/// writer sets as plain thread sets: first every transition of every
/// 1-byte word, then a real rt::ShadowMemory driven through every short
/// access sequence of three threads on one granule.
///
//===----------------------------------------------------------------------===//

#include "rt/ShadowMemory.h"
#include "rt/SharingWord.h"

#include <gtest/gtest.h>

#include <string>

using namespace sharc;
using namespace sharc::rt;

namespace {

enum class Op { Read, Write, Exit };

const char *opName(Op O) {
  return O == Op::Read ? "read" : O == Op::Write ? "write" : "exit";
}

/// Fig. 5's semantics over explicit sets: bit t of each mask is thread t.
struct SetReference {
  uint32_t Readers = 0;
  uint32_t Writers = 0;

  /// Applies \p O by thread \p Tid. \returns whether it conflicts.
  bool apply(Op O, unsigned Tid) {
    uint32_t Bit = 1u << Tid;
    bool Conflict = false;
    switch (O) {
    case Op::Read:
      Conflict = (Writers & ~Bit) != 0;
      Readers |= Bit;
      break;
    case Op::Write:
      Conflict = ((Readers | Writers) & ~Bit) != 0;
      Writers |= Bit;
      break;
    case Op::Exit:
      Readers &= ~Bit;
      Writers &= ~Bit;
      break;
    }
    return Conflict;
  }

  /// The sharing word of this state. Defined while there is at most one
  /// writer and no other thread beside it, which holds up to the first
  /// conflict.
  uint64_t encode() const {
    return uint64_t(Readers | Writers) | (Writers != 0 ? 1u : 0u);
  }
};

/// A set writer flag means exactly one thread bit.
bool invariantHolds(uint64_t Word) {
  uint64_t Threads = Word & ~uint64_t(1);
  return (Word & 1) == 0 || (Threads != 0 && (Threads & (Threads - 1)) == 0);
}

SetReference decode(uint8_t Word) {
  SetReference R;
  R.Readers = Word & ~1u;
  if (Word & 1)
    R.Writers = R.Readers;
  return R;
}

// The rule is constexpr, so it can be pinned at compile time too.
static_assert(step<uint8_t>(0x3, 2, false).Conflict &&
                  step<uint8_t>(0x3, 2, false).Next == 0x3,
              "a read conflict leaves the word to its writer");
static_assert(step<uint8_t>(0x6, 3, true).Next == 0x9,
              "a write conflict claims the granule");
static_assert(retire<uint8_t>(0x3, 1) == 0 && retire<uint8_t>(0x6, 1) == 0x4,
              "a retiring writer takes the writer flag with it");

} // namespace

TEST(SharingWordTest, EveryOneByteTransitionMatchesTheSetReference) {
  unsigned Checked = 0;
  for (unsigned W = 0; W != 256; ++W) {
    if (!invariantHolds(W))
      continue;
    uint8_t Word = static_cast<uint8_t>(W);
    for (unsigned Tid = 1; Tid <= 7; ++Tid)
      for (Op O : {Op::Read, Op::Write, Op::Exit}) {
        SCOPED_TRACE("word 0x" + std::to_string(W) + " tid " +
                     std::to_string(Tid) + " " + opName(O));
        SetReference Ref = decode(Word);
        bool WantConflict = Ref.apply(O, Tid);
        uint8_t Own = static_cast<uint8_t>(1u << Tid);
        SharingStep<uint8_t> S{retire(Word, Tid), false, false};
        if (O != Op::Exit)
          S = step(Word, Tid, O == Op::Write);
        ++Checked;
        EXPECT_EQ(S.Conflict, WantConflict);
        EXPECT_TRUE(invariantHolds(S.Next));
        EXPECT_EQ(S.FirstAccess, (Word & Own) == 0 && (S.Next & Own) != 0);
        if (!WantConflict)
          EXPECT_EQ(S.Next, Ref.encode());
        else if (O == Op::Read)
          EXPECT_EQ(S.Next, Word);
        else
          EXPECT_EQ(S.Next, Own | 1);
      }
  }
  // 128 words without the writer flag, 7 with it.
  EXPECT_EQ(Checked, 135u * 7 * 3);
}

namespace {

/// One rt::ShadowMemory checked by hand on one thread, with simulated
/// ThreadStates standing in for the program's threads.
class ShadowHarness {
public:
  explicit ShadowHarness(unsigned ShadowBytes) : Sink(1024) {
    Config.ShadowBytesPerGranule = ShadowBytes;
    Config.Guard.OnViolation = guard::Policy::Continue;
    Shadow = std::make_unique<ShadowMemory>(Config, Stats, Sink);
    for (unsigned I = 0; I != 3; ++I)
      Threads[I].Tid = I + 1;
  }

  void reset() {
    Shadow->clearRange(Granule, 1);
    for (ThreadState &TS : Threads)
      TS.AccessLog.clear();
  }

  /// Applies \p O by thread \p Tid (1..3). \returns whether it conflicted.
  bool apply(Op O, unsigned Tid) {
    ThreadState &TS = Threads[Tid - 1];
    switch (O) {
    case Op::Read:
      return !Shadow->checkRead(Granule, 1, TS, nullptr);
    case Op::Write:
      return !Shadow->checkWrite(Granule, 1, TS, nullptr);
    case Op::Exit:
      Shadow->clearThreadBits(TS);
      return false;
    }
    return false;
  }

  uint64_t word() const { return Shadow->peekWord(Granule); }

private:
  RuntimeConfig Config;
  RuntimeStats Stats;
  ReportSink Sink;
  std::unique_ptr<ShadowMemory> Shadow;
  ThreadState Threads[3];
  alignas(64) char Granule[64] = {};
};

} // namespace

TEST(SharingWordTest, ShadowMemoryAgreesWithTheSetReferenceOnShortSequences) {
  constexpr unsigned Choices = 9; // 3 threads x {read, write, exit}
  for (unsigned Bytes : {1u, 2u, 4u, 8u}) {
    ShadowHarness H(Bytes);
    unsigned Sequences = 0;
    for (unsigned Len = 1; Len <= 5; ++Len) {
      unsigned Count = 1;
      for (unsigned I = 0; I != Len; ++I)
        Count *= Choices;
      for (unsigned Seq = 0; Seq != Count; ++Seq, ++Sequences) {
        H.reset();
        SetReference Ref;
        bool RefConflicted = false;
        std::string Trail;
        for (unsigned I = 0, Rest = Seq; I != Len; ++I, Rest /= Choices) {
          Op O = static_cast<Op>(Rest % Choices / 3);
          unsigned Tid = Rest % 3 + 1;
          Trail += " T" + std::to_string(Tid) + "-" + opName(O);
          bool Want = Ref.apply(O, Tid);
          bool Got = H.apply(O, Tid);
          uint64_t Word = H.word();
          if (!RefConflicted &&
              (Got != Want || (!Want && Word != Ref.encode()))) {
            ADD_FAILURE() << Bytes << "-byte words disagree before the "
                          << "first conflict:" << Trail << " (word " << Word
                          << ", reference " << Ref.encode() << ")";
            return;
          }
          if (Got && !Want) {
            ADD_FAILURE() << Bytes << "-byte words report a conflict the "
                          << "reference lacks:" << Trail;
            return;
          }
          if (!invariantHolds(Word)) {
            ADD_FAILURE() << Bytes << "-byte word " << Word
                          << " breaks the invariant:" << Trail;
            return;
          }
          RefConflicted |= Want;
        }
      }
    }
    EXPECT_EQ(Sequences, 9u + 81 + 729 + 6561 + 59049);
  }
}

TEST(SharingWordTest, ReaderThatConflictedDoesNotInheritTheExitedWriter) {
  // T1 writes; T2's read conflicts; T1 exits; T3's read is then clean:
  // under the set semantics only T2, a reader, is left.
  ShadowHarness H(1);
  H.reset();
  EXPECT_FALSE(H.apply(Op::Write, 1));
  EXPECT_EQ(H.word(), 0x3u);
  EXPECT_TRUE(H.apply(Op::Read, 2));
  EXPECT_EQ(H.word(), 0x3u);
  EXPECT_FALSE(H.apply(Op::Exit, 1));
  EXPECT_FALSE(H.apply(Op::Read, 3));
  EXPECT_EQ(H.word(), 0x8u);
}

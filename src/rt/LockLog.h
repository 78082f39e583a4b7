//===-- rt/LockLog.h - Section 4.2.2's locked-mode rule ---------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The locked-mode rule (Section 4.2.2) with its reader/writer extension
/// (Section 7), implemented once for both engines: rt::ThreadState and
/// the interpreter's thread context each keep one LockLog of the locks
/// their thread holds. A locked(L) access and an rwlocked(L) write need
/// L held exclusive; an rwlocked(L) read needs it held in either mode.
/// Holds form a multiset (a thread may hold one lock shared twice), and
/// nesting depth is small, so the log is a vector scanned linearly.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RT_LOCKLOG_H
#define SHARC_RT_LOCKLOG_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sharc {
namespace rt {

/// How a lock is held, and what an access needs of it.
enum class LockMode : uint8_t { Exclusive, Shared };

/// An exclusive hold satisfies either need; a shared hold satisfies
/// only a shared (read) need.
constexpr bool satisfies(LockMode Held, LockMode Need) {
  return Held == LockMode::Exclusive || Need == LockMode::Shared;
}

/// One thread's held locks, keyed by lock identity.
template <typename Key> class LockLog {
public:
  void acquire(Key Lock, LockMode Mode) { Holds.push_back({Lock, Mode}); }

  /// Drops the latest hold of \p Lock in \p Mode. \returns false when
  /// there is none.
  bool release(Key Lock, LockMode Mode) {
    for (size_t I = Holds.size(); I-- != 0;)
      if (Holds[I].Lock == Lock && Holds[I].Mode == Mode) {
        Holds.erase(Holds.begin() + I);
        return true;
      }
    return false;
  }

  /// \returns whether some hold of \p Lock satisfies \p Need.
  bool holds(Key Lock, LockMode Need) const {
    for (const Hold &H : Holds)
      if (H.Lock == Lock && satisfies(H.Mode, Need))
        return true;
    return false;
  }

  void clear() { Holds.clear(); }
  size_t bytes() const { return Holds.capacity() * sizeof(Hold); }

private:
  struct Hold {
    Key Lock;
    LockMode Mode;
  };
  std::vector<Hold> Holds;
};

} // namespace rt
} // namespace sharc

#endif // SHARC_RT_LOCKLOG_H

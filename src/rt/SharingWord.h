//===-- rt/SharingWord.h - Fig. 5's reader/writer rule ----------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fig. 5's reader/writer rule (Section 4.2.1), implemented once for both
/// engines: rt::ShadowMemory applies it to its shadow words by
/// compare-and-swap, the interpreter to one word per cell. Bit k (k >= 1)
/// marks an access by thread k; bit 0 says the thread whose bit is set is
/// also the writer. Invariant: bit 0 comes with exactly one thread bit.
///
/// chkread fails when another thread is the writer; chkwrite fails when
/// any other thread is a reader or writer. A failed write still claims
/// the granule (writer|own), so one bug yields one report per site. A
/// failed read leaves the word to its writer: recording the reader would
/// break the invariant and, once the writer exits, make the reader look
/// like the writer. Up to a granule's first conflict this is exactly the
/// set semantics; after it, the conflicts reported are a subset of the
/// sets' (DESIGN.md §8 item 7).
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_RT_SHARINGWORD_H
#define SHARC_RT_SHARINGWORD_H

namespace sharc {
namespace rt {

/// The outcome of one checked access: the word to install, whether the
/// access conflicts, and whether it set the thread's bit for the first
/// time (the granule then joins the thread's exit-clearing log).
template <typename WordT> struct SharingStep {
  WordT Next;
  bool Conflict;
  bool FirstAccess;
};

/// Applies chkread (\p IsWrite false) or chkwrite by thread \p Tid to
/// \p Cur.
template <typename WordT>
constexpr SharingStep<WordT> step(WordT Cur, unsigned Tid, bool IsWrite) {
  const WordT Writer = 1;
  const WordT Own = WordT(WordT(1) << Tid);
  const bool FirstAccess = (Cur & Own) == 0;
  const bool OthersSeen = (Cur & ~(Own | Writer)) != 0;
  if (IsWrite)
    return {WordT(Writer | Own), OthersSeen, FirstAccess};
  if ((Cur & Writer) != 0 && OthersSeen)
    return {Cur, true, false};
  return {WordT(Cur | Own), false, FirstAccess};
}

/// Removes thread \p Tid from \p Cur at thread exit; a retiring writer
/// takes the writer flag with it.
template <typename WordT> constexpr WordT retire(WordT Cur, unsigned Tid) {
  const WordT Own = WordT(WordT(1) << Tid);
  return Cur == WordT(Own | 1) ? WordT(0) : WordT(Cur & ~Own);
}

} // namespace rt
} // namespace sharc

#endif // SHARC_RT_SHARINGWORD_H

//===-- rt/ShadowMemory.cpp -----------------------------------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "rt/ShadowMemory.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace sharc::rt;

/// Last-accessor provenance for one granule, maintained best-effort when
/// DiagMode is on. Reports read it to render the "last(N) ..." line.
struct ShadowMemory::DiagCell {
  std::atomic<const AccessSite *> LastSite{nullptr};
  std::atomic<uint8_t> LastTid{0};
  std::atomic<uint8_t> LastWasWrite{0};
};

/// Shadow for one 4 KiB page of application address space. Cells is a raw
/// byte array holding one little-endian shadow word of
/// Config.ShadowBytesPerGranule bytes per granule.
struct ShadowMemory::Page {
  uintptr_t Base = 0;
  std::atomic<Page *> Next{nullptr};
  std::unique_ptr<uint8_t[]> Cells;
  std::unique_ptr<DiagCell[]> Diags;
};

static size_t hashPage(uintptr_t PageBase) {
  uint64_t H = static_cast<uint64_t>(PageBase) >> 12;
  H *= 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(H >> 48);
}

ShadowMemory::ShadowMemory(const RuntimeConfig &Config, RuntimeStats &Stats,
                           ReportSink &Sink)
    : Config(Config), Stats(Stats), Sink(Sink) {
  assert(Config.GranuleShift >= 2 && Config.GranuleShift <= PageShift &&
         "granule must be between 4 bytes and one page");
  [[maybe_unused]] unsigned N = Config.ShadowBytesPerGranule;
  assert((N == 1 || N == 2 || N == 4 || N == 8) &&
         "shadow word must be 1, 2, 4 or 8 bytes");
  GranulesPerPage = PageBytes >> Config.GranuleShift;
  Buckets = std::make_unique<std::atomic<Page *>[]>(NumBuckets);
  for (size_t I = 0; I != NumBuckets; ++I)
    Buckets[I].store(nullptr, std::memory_order_relaxed);
}

ShadowMemory::~ShadowMemory() {
  for (size_t I = 0; I != NumBuckets; ++I) {
    Page *P = Buckets[I].load(std::memory_order_relaxed);
    while (P) {
      Page *Next = P->Next.load(std::memory_order_relaxed);
      delete P;
      P = Next;
    }
  }
}

ShadowMemory::Page *ShadowMemory::lookupPage(uintptr_t PageBase) const {
  size_t Bucket = hashPage(PageBase) & (NumBuckets - 1);
  for (Page *P = Buckets[Bucket].load(std::memory_order_acquire); P;
       P = P->Next.load(std::memory_order_acquire))
    if (P->Base == PageBase)
      return P;
  return nullptr;
}

ShadowMemory::Page *ShadowMemory::getOrCreatePage(uintptr_t PageBase) {
  size_t Bucket = hashPage(PageBase) & (NumBuckets - 1);
  std::atomic<Page *> &Head = Buckets[Bucket];
  for (Page *P = Head.load(std::memory_order_acquire); P;
       P = P->Next.load(std::memory_order_acquire))
    if (P->Base == PageBase)
      return P;

  auto NewPage = std::make_unique<Page>();
  NewPage->Base = PageBase;
  size_t CellBytes = GranulesPerPage * Config.ShadowBytesPerGranule;
  NewPage->Cells = std::make_unique<uint8_t[]>(CellBytes);
  std::memset(NewPage->Cells.get(), 0, CellBytes);
  size_t DiagBytes = 0;
  if (Config.DiagMode) {
    NewPage->Diags = std::make_unique<DiagCell[]>(GranulesPerPage);
    DiagBytes = GranulesPerPage * sizeof(DiagCell);
  }

  Page *Raw = NewPage.get();
  Page *Expected = Head.load(std::memory_order_acquire);
  while (true) {
    // Re-scan the new portion of the chain for a racing insert of the same
    // page before trying to prepend.
    for (Page *P = Expected; P; P = P->Next.load(std::memory_order_acquire))
      if (P->Base == PageBase)
        return P;
    Raw->Next.store(Expected, std::memory_order_relaxed);
    if (Head.compare_exchange_weak(Expected, Raw, std::memory_order_release,
                                   std::memory_order_acquire)) {
      Stats[Stat::ShadowBytes].fetch_add(
          CellBytes + DiagBytes + sizeof(Page), std::memory_order_relaxed);
      NewPage.release();
      return Raw;
    }
  }
}

namespace {

/// Iterates the granules overlapping [Addr, Addr+Size), invoking
/// Fn(PageBase, GranuleIndexInPage, GranuleAddr) for each.
template <typename FnT>
void forEachGranule(uintptr_t Addr, size_t Size, unsigned GranuleShift,
                    unsigned PageShift, FnT Fn) {
  if (Size == 0)
    Size = 1;
  uintptr_t GranuleSize = uintptr_t(1) << GranuleShift;
  uintptr_t First = Addr & ~(GranuleSize - 1);
  uintptr_t Last = (Addr + Size - 1) & ~(GranuleSize - 1);
  for (uintptr_t G = First;; G += GranuleSize) {
    uintptr_t PageBase = G & ~((uintptr_t(1) << PageShift) - 1);
    size_t Index = (G - PageBase) >> GranuleShift;
    Fn(PageBase, Index, G);
    if (G == Last)
      break;
  }
}

/// Applies \p Fn (word -> SharingStep) to \p Slot until a compare-and-swap
/// installs its result, and returns the step that was installed. A step
/// that leaves the word unchanged skips the store.
template <typename WordT, typename FnT>
SharingStep<WordT> applyStep(WordT &Slot, FnT Fn) {
  std::atomic_ref<WordT> Cell(Slot);
  WordT Cur = Cell.load(std::memory_order_acquire);
  while (true) {
    SharingStep<WordT> S = Fn(Cur);
    if (S.Next == Cur ||
        Cell.compare_exchange_weak(Cur, S.Next, std::memory_order_acq_rel,
                                   std::memory_order_acquire))
      return S;
  }
}

} // namespace

template <typename FnT> decltype(auto) ShadowMemory::withWord(FnT Fn) const {
  switch (Config.ShadowBytesPerGranule) {
  case 1:
    return Fn(uint8_t());
  case 2:
    return Fn(uint16_t());
  case 4:
    return Fn(uint32_t());
  default:
    return Fn(uint64_t());
  }
}

template <typename WordT> WordT *ShadowMemory::wordsOf(Page *P) {
  return reinterpret_cast<WordT *>(P->Cells.get());
}

template <typename WordT>
bool ShadowMemory::checkAccessImpl(uintptr_t Addr, size_t Size, bool IsWrite,
                                   ThreadState &TS, const AccessSite *Site) {
  bool Ok = true;
  forEachGranule(
      Addr, Size, Config.GranuleShift, PageShift,
      [&](uintptr_t PageBase, size_t Index, uintptr_t GranuleAddr) {
        Page *P = getOrCreatePage(PageBase);
        SharingStep<WordT> S =
            applyStep(wordsOf<WordT>(P)[Index], [&](WordT Cur) {
              return step(Cur, TS.Tid, IsWrite);
            });
        // Under quarantine a demoted granule is racy-equivalent: the
        // access proceeds unchecked.
        if (S.Conflict &&
            (Config.Guard.OnViolation != guard::Policy::Quarantine ||
             !isGranuleQuarantined(GranuleAddr))) {
          Ok = false;
          reportConflict(IsWrite, GranuleAddr, TS, Site, P, Index);
        }
        if (S.FirstAccess)
          TS.AccessLog.push_back(GranuleAddr);
        if (P->Diags) {
          DiagCell &D = P->Diags[Index];
          D.LastSite.store(Site, std::memory_order_relaxed);
          D.LastTid.store(static_cast<uint8_t>(TS.Tid),
                          std::memory_order_relaxed);
          D.LastWasWrite.store(IsWrite ? 1 : 0, std::memory_order_relaxed);
        }
      });
  return Ok;
}

void ShadowMemory::reportConflict(bool IsWrite, uintptr_t Addr,
                                  ThreadState &TS, const AccessSite *Site,
                                  Page *P, size_t GranuleIndex) {
  ConflictReport Report;
  Report.Kind = IsWrite ? ReportKind::WriteConflict : ReportKind::ReadConflict;
  Report.Address = Addr;
  Report.WhoTid = TS.Tid;
  Report.WhoSite = Site;
  if (P->Diags) {
    DiagCell &D = P->Diags[GranuleIndex];
    Report.LastSite = D.LastSite.load(std::memory_order_relaxed);
    Report.LastTid = D.LastTid.load(std::memory_order_relaxed);
    Report.LastWasWrite = D.LastWasWrite.load(std::memory_order_relaxed) != 0;
  }
  if (IsWrite)
    Stats[Stat::WriteConflicts].fetch_add(1, std::memory_order_relaxed);
  else
    Stats[Stat::ReadConflicts].fetch_add(1, std::memory_order_relaxed);
  if (guard::onViolation(Config.Guard, Report, Sink) ==
      guard::Verdict::Quarantine)
    quarantineGranule(Addr);
}

bool ShadowMemory::isGranuleQuarantined(uintptr_t GranuleAddr) {
  std::lock_guard<std::mutex> Lock(QuarantineMutex);
  return QuarantinedGranules.count(GranuleAddr) != 0;
}

void ShadowMemory::quarantineGranule(uintptr_t GranuleAddr) {
  std::lock_guard<std::mutex> Lock(QuarantineMutex);
  QuarantinedGranules.insert(GranuleAddr);
}

bool ShadowMemory::checkRead(const void *Addr, size_t Size, ThreadState &TS,
                             const AccessSite *Site) {
  Stats[Stat::DynamicReads].fetch_add(1, std::memory_order_relaxed);
  Stats[Stat::DynamicReadBytes].fetch_add(Size ? Size : 1,
                                          std::memory_order_relaxed);
  return withWord([&](auto W) {
    return checkAccessImpl<decltype(W)>(reinterpret_cast<uintptr_t>(Addr),
                                        Size, /*IsWrite=*/false, TS, Site);
  });
}

bool ShadowMemory::checkWrite(const void *Addr, size_t Size, ThreadState &TS,
                              const AccessSite *Site) {
  Stats[Stat::DynamicWrites].fetch_add(1, std::memory_order_relaxed);
  Stats[Stat::DynamicWriteBytes].fetch_add(Size ? Size : 1,
                                           std::memory_order_relaxed);
  return withWord([&](auto W) {
    return checkAccessImpl<decltype(W)>(reinterpret_cast<uintptr_t>(Addr),
                                        Size, /*IsWrite=*/true, TS, Site);
  });
}

void ShadowMemory::clearRange(const void *Addr, size_t Size) {
  withWord([&](auto W) {
    using WordT = decltype(W);
    forEachGranule(reinterpret_cast<uintptr_t>(Addr), Size,
                   Config.GranuleShift, PageShift,
                   [&](uintptr_t PageBase, size_t Index, uintptr_t) {
                     Page *P = lookupPage(PageBase);
                     if (!P)
                       return;
                     std::atomic_ref<WordT>(wordsOf<WordT>(P)[Index])
                         .store(0, std::memory_order_release);
                     if (P->Diags) {
                       P->Diags[Index].LastSite.store(
                           nullptr, std::memory_order_relaxed);
                       P->Diags[Index].LastTid.store(
                           0, std::memory_order_relaxed);
                     }
                   });
  });
}

void ShadowMemory::clearThreadBits(ThreadState &TS) {
  withWord([&](auto W) {
    using WordT = decltype(W);
    for (uintptr_t GranuleAddr : TS.AccessLog) {
      uintptr_t PageBase = GranuleAddr & ~(uintptr_t(PageBytes) - 1);
      Page *P = lookupPage(PageBase);
      if (!P)
        continue;
      size_t Index = (GranuleAddr - PageBase) >> Config.GranuleShift;
      applyStep(wordsOf<WordT>(P)[Index], [&](WordT Cur) {
        return SharingStep<WordT>{retire(Cur, TS.Tid), false, false};
      });
    }
  });
  TS.AccessLog.clear();
}

uint64_t ShadowMemory::peekWord(const void *Addr) const {
  uintptr_t A = reinterpret_cast<uintptr_t>(Addr);
  uintptr_t PageBase = A & ~(uintptr_t(PageBytes) - 1);
  Page *P = lookupPage(PageBase);
  if (!P)
    return 0;
  size_t Index = (A - PageBase) >> Config.GranuleShift;
  return withWord([&](auto W) -> uint64_t {
    using WordT = decltype(W);
    return std::atomic_ref<WordT>(wordsOf<WordT>(P)[Index])
        .load(std::memory_order_acquire);
  });
}

#include "obs/Profile.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace sharc::obs {

uint64_t ProfileReport::totalCount() const {
  uint64_t N = 0;
  for (uint64_t C : KindCount)
    N += C;
  return N;
}

uint64_t ProfileReport::dynCost() const {
  return KindCost[unsigned(CheckKind::DynamicRead)] +
         KindCost[unsigned(CheckKind::DynamicWrite)];
}

uint64_t ProfileReport::attributedCount() const {
  uint64_t N = 0;
  for (const Site &S : Sites)
    if (S.known())
      N += S.Count;
  return N;
}

ProfileReport buildProfile(const TraceData &Data) {
  ProfileReport R;

  // Merge site records across threads; remember accessors.
  using SiteKey = std::tuple<std::string, uint32_t, std::string, uint8_t>;
  struct SiteAccum {
    ProfileReport::Site S;
    std::set<uint32_t> Tids;
  };
  std::map<SiteKey, SiteAccum> Sites;
  for (const SiteProfileRecord &Rec : Data.Sites) {
    SiteAccum &A = Sites[SiteKey(Rec.File, Rec.Line, Rec.LValue,
                                 uint8_t(Rec.Kind))];
    A.S.File = Rec.File;
    A.S.LValue = Rec.LValue;
    A.S.Line = Rec.Line;
    A.S.Kind = Rec.Kind;
    A.S.Count += Rec.Count;
    A.S.Bytes += Rec.Bytes;
    A.S.Cycles += Rec.Cycles;
    A.S.Samples += Rec.Samples;
    A.Tids.insert(Rec.Tid);
  }
  for (auto &[Key, A] : Sites) {
    A.S.Tids.assign(A.Tids.begin(), A.Tids.end());
    R.KindCount[unsigned(A.S.Kind)] += A.S.Count;
    R.KindBytes[unsigned(A.S.Kind)] += A.S.Bytes;
    R.KindCost[unsigned(A.S.Kind)] += A.S.cost();
    R.Sites.push_back(std::move(A.S));
  }
  std::stable_sort(R.Sites.begin(), R.Sites.end(),
                   [](const auto &A, const auto &B) {
                     return A.cost() > B.cost();
                   });

  // Merge lock records across threads, keeping per-acquirer-site
  // attribution.
  struct LockAccum {
    ProfileReport::Lock L;
    std::set<uint32_t> Tids;
    std::map<std::pair<std::string, uint32_t>, ProfileReport::Lock::Acquirer>
        Acquirers;
  };
  std::map<uint64_t, LockAccum> Locks;
  for (const LockProfileRecord &Rec : Data.Locks) {
    LockAccum &A = Locks[Rec.Lock];
    A.L.Lock = Rec.Lock;
    A.L.Acquires += Rec.Acquires;
    A.L.Contended += Rec.Contended;
    A.L.WaitCycles += Rec.WaitCycles;
    A.L.HoldCycles += Rec.HoldCycles;
    for (unsigned I = 0; I < NumHistBuckets; ++I) {
      A.L.WaitHist[I] += Rec.WaitHist[I];
      A.L.HoldHist[I] += Rec.HoldHist[I];
    }
    A.Tids.insert(Rec.Tid);
    auto &Acq = A.Acquirers[{Rec.File, Rec.Line}];
    Acq.File = Rec.File;
    Acq.Line = Rec.Line;
    Acq.Acquires += Rec.Acquires;
    Acq.WaitCycles += Rec.WaitCycles;
  }
  for (auto &[Addr, A] : Locks) {
    A.L.Tids.assign(A.Tids.begin(), A.Tids.end());
    for (auto &[Site, Acq] : A.Acquirers)
      A.L.Acquirers.push_back(Acq);
    std::stable_sort(A.L.Acquirers.begin(), A.L.Acquirers.end(),
                     [](const auto &X, const auto &Y) {
                       return X.WaitCycles > Y.WaitCycles;
                     });
    R.Locks.push_back(std::move(A.L));
  }
  std::stable_sort(R.Locks.begin(), R.Locks.end(),
                   [](const auto &A, const auto &B) {
                     return A.WaitCycles > B.WaitCycles;
                   });

  for (const SelfOverheadRecord &O : Data.Overheads) {
    R.Overhead.Ops += O.Ops;
    R.Overhead.Cycles += O.Cycles;
    R.Overhead.Samples += O.Samples;
    R.Overhead.DrainCycles += O.DrainCycles;
    R.Overhead.TableBytes += O.TableBytes;
    ++R.OverheadRecords;
  }

  std::set<uint32_t> ConflictLines;
  for (const Event &Ev : Data.Events)
    if (Ev.K == EventKind::Conflict)
      if (uint32_t Line = conflictWhoLine(Ev.Extra))
        ConflictLines.insert(Line);
  R.ConflictLines.assign(ConflictLines.begin(), ConflictLines.end());

  return R;
}

namespace {

bool isDynKind(CheckKind K) {
  return K == CheckKind::DynamicRead || K == CheckKind::DynamicWrite;
}

std::string siteLabel(const std::string &File, uint32_t Line,
                      const std::string &LValue) {
  if (File.empty() && Line == 0)
    return "<implicit>";
  std::string S = LValue.empty() ? std::string("<expr>") : LValue;
  S += " @ ";
  S += File.empty() ? "?" : File;
  S += ":" + std::to_string(Line);
  return S;
}

} // namespace

std::vector<Suggestion> advise(const ProfileReport &R, double MinSitePct,
                               double MinLockPct) {
  std::vector<Suggestion> Out;

  // Rule 1 (MakePrivate): merge the dynamic-check kinds per source
  // site; a site that carries >= MinSitePct of dynamic-check cost, was
  // only ever touched by one thread, and never faulted is paying for
  // n-readers-or-1-writer tracking it cannot need.
  struct DynSite {
    uint64_t Cost = 0;
    std::set<uint32_t> Tids;
    std::string LValue;
  };
  std::map<std::pair<std::string, uint32_t>, DynSite> DynSites;
  for (const ProfileReport::Site &S : R.Sites) {
    if (!isDynKind(S.Kind) || !S.known())
      continue;
    DynSite &D = DynSites[{S.File, S.Line}];
    D.Cost += S.cost();
    D.Tids.insert(S.Tids.begin(), S.Tids.end());
    if (D.LValue.empty())
      D.LValue = S.LValue;
  }
  uint64_t DynTotal = R.dynCost();
  for (const auto &[Key, D] : DynSites) {
    if (!DynTotal)
      break;
    double Pct = 100.0 * double(D.Cost) / double(DynTotal);
    if (Pct < MinSitePct || D.Tids.size() != 1)
      continue;
    if (std::binary_search(R.ConflictLines.begin(), R.ConflictLines.end(),
                           Key.second))
      continue;
    Suggestion S;
    S.A = Suggestion::Action::MakePrivate;
    S.LValue = D.LValue;
    S.File = Key.first;
    S.Line = Key.second;
    S.CostPct = Pct;
    S.Tid = *D.Tids.begin();
    char Buf[192];
    std::snprintf(Buf, sizeof(Buf),
                  "%.1f%% of dynamic-check cost, only ever touched by "
                  "thread %u, no conflicts",
                  Pct, S.Tid);
    S.Rationale = Buf;
    Out.push_back(std::move(S));
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const Suggestion &A, const Suggestion &B) {
                     return A.CostPct > B.CostPct;
                   });

  // Rule 2 (CoarsenLock): a lock carrying >= MinLockPct of all wait
  // time is acquired too often relative to the work done under it;
  // point at the acquirer site paying most of the wait.
  uint64_t WaitTotal = 0;
  for (const ProfileReport::Lock &L : R.Locks)
    WaitTotal += L.WaitCycles;
  for (const ProfileReport::Lock &L : R.Locks) {
    if (!WaitTotal || !L.Contended)
      continue;
    double Pct = 100.0 * double(L.WaitCycles) / double(WaitTotal);
    if (Pct < MinLockPct)
      continue;
    Suggestion S;
    S.A = Suggestion::Action::CoarsenLock;
    S.Lock = L.Lock;
    S.CostPct = Pct;
    if (!L.Acquirers.empty()) {
      S.File = L.Acquirers.front().File;
      S.Line = L.Acquirers.front().Line;
    }
    char Buf[192];
    std::snprintf(Buf, sizeof(Buf),
                  "%.1f%% of all lock wait time (%llu of %llu acquires "
                  "contended)",
                  Pct, (unsigned long long)L.Contended,
                  (unsigned long long)L.Acquires);
    S.Rationale = Buf;
    Out.push_back(std::move(S));
  }
  return Out;
}

std::string renderSuggestion(const Suggestion &S) {
  std::ostringstream OS;
  switch (S.A) {
  case Suggestion::Action::MakePrivate:
    OS << "suggest private: " << siteLabel(S.File, S.Line, S.LValue) << " ("
       << S.Rationale << ")";
    break;
  case Suggestion::Action::CoarsenLock:
    OS << "suggest coarser locked region: lock " << S.Lock;
    if (S.Line)
      OS << " under " << S.File << ":" << S.Line;
    OS << " (" << S.Rationale << ")";
    break;
  }
  return OS.str();
}

std::string renderProfile(const ProfileReport &R, const TraceData &Data,
                          size_t TopSites) {
  std::ostringstream OS;
  OS << "profile: " << Data.Sites.size() << " site records, "
     << Data.Locks.size() << " lock records, " << R.OverheadRecords
     << " threads\n";

  OS << "\ncheck cost by kind:\n";
  OS << "  kind              count      bytes  est-cost\n";
  for (unsigned K = 0; K < NumCheckKinds; ++K) {
    if (!R.KindCount[K])
      continue;
    char Line[128];
    std::snprintf(Line, sizeof(Line), "  %-12s %10llu %10llu %9llu\n",
                  checkKindName(CheckKind(K)),
                  (unsigned long long)R.KindCount[K],
                  (unsigned long long)R.KindBytes[K],
                  (unsigned long long)R.KindCost[K]);
    OS << Line;
  }

  uint64_t TotalCost = 0;
  for (uint64_t C : R.KindCost)
    TotalCost += C;
  if (!R.Sites.empty()) {
    OS << "\nhot sites (by estimated cost):\n";
    OS << "   %cost  kind             count  tids  site\n";
    size_t N = 0;
    for (const ProfileReport::Site &S : R.Sites) {
      if (++N > TopSites)
        break;
      double Pct = TotalCost ? 100.0 * double(S.cost()) / double(TotalCost)
                             : 0.0;
      char Line[96];
      std::snprintf(Line, sizeof(Line), "  %6.1f  %-12s %10llu %5zu  ", Pct,
                    checkKindName(S.Kind), (unsigned long long)S.Count,
                    S.Tids.size());
      OS << Line << siteLabel(S.File, S.Line, S.LValue) << "\n";
    }
  }

  if (!R.Locks.empty()) {
    OS << "\nlock contention:\n";
    OS << "  lock             acquires  contended       wait       hold"
          "  top acquirer\n";
    for (const ProfileReport::Lock &L : R.Locks) {
      char Line[160];
      std::snprintf(Line, sizeof(Line),
                    "  %-16llu %8llu %10llu %10llu %10llu  ",
                    (unsigned long long)L.Lock,
                    (unsigned long long)L.Acquires,
                    (unsigned long long)L.Contended,
                    (unsigned long long)L.WaitCycles,
                    (unsigned long long)L.HoldCycles);
      OS << Line;
      if (!L.Acquirers.empty() && L.Acquirers.front().Line)
        OS << L.Acquirers.front().File << ":" << L.Acquirers.front().Line;
      else
        OS << "-";
      OS << "\n";
    }
  }

  if (R.OverheadRecords) {
    OS << "\nself-overhead: " << R.Overhead.Ops << " profiled ops";
    if (R.Overhead.Samples) {
      double PerOp = double(R.Overhead.Cycles) / double(R.Overhead.Samples);
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), ", ~%.0f cycles/op sampled", PerOp);
      OS << Buf;
    }
    OS << ", drain " << R.Overhead.DrainCycles << " cycles, tables "
       << R.Overhead.TableBytes << " bytes\n";
  }

  uint64_t Total = R.totalCount();
  uint64_t Attr = R.attributedCount();
  if (Total) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf),
                  "attribution: %llu of %llu checks at concrete sites "
                  "(%.1f%%)\n",
                  (unsigned long long)Attr, (unsigned long long)Total,
                  100.0 * double(Attr) / double(Total));
    OS << Buf;
  }

  // Exact-totals cross-check against the run's final counter sample —
  // the acceptance contract for the whole attribution pipeline.
  if (!Data.Samples.empty()) {
    const rt::StatsSnapshot &S = Data.Samples.back();
    bool AllMatch = true;
    for (const rt::StatRow &Row : rt::StatTable) {
      if (!Row.Check)
        continue;
      uint64_t Prof = R.KindCount[unsigned(*Row.Check)];
      if (Prof == S.*Row.Field)
        continue;
      AllMatch = false;
      std::string Name = Row.Key;
      std::replace(Name.begin(), Name.end(), '_', ' ');
      OS << "MISMATCH: profile counts " << Prof << " " << Name
         << ", final stats sample says " << S.*Row.Field << "\n";
    }
    if (AllMatch)
      OS << "totals: exact match with final stats sample\n";
  }

  return OS.str();
}

} // namespace sharc::obs

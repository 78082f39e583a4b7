//===-- interp/Explore.h - Systematic schedule exploration ------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// sharc-explore (DESIGN.md §14): stateless depth-first enumeration of
/// the interpreter's schedules via deterministic re-execution, with
///
///   - dynamic partial-order reduction (persistent/backtrack sets keyed
///     on conflicting granule accesses, lock operations and condition
///     operations),
///   - sleep sets (redundant branches inherited from fully explored
///     siblings are cut before they execute a single step), and
///   - an optional preemption bound for graceful degradation on larger
///     programs (CHESS-style; exceeding it flags the exploration as
///     bounded, never silently).
///
/// Runs are classified into verdict equivalence classes (which
/// violation kinds fired, deadlock, step exhaustion); the first run of
/// each violating class is captured as a replayable Witness. Budgets
/// (runs and total steps) make the search safe on programs whose
/// schedule space does not converge — exhaustion is reported loudly in
/// the stats and by the driver's distinct exit code.
///
//===----------------------------------------------------------------------===//

#ifndef SHARC_INTERP_EXPLORE_H
#define SHARC_INTERP_EXPLORE_H

#include "interp/Interp.h"
#include "interp/Schedule.h"

#include <cstdint>
#include <string>
#include <vector>

namespace sharc {
namespace interp {

struct ExploreOptions {
  /// Maximum preemptions per schedule; ~0u explores unbounded.
  unsigned PreemptionBound = ~0u;
  /// Schedule budget: executions (complete + pruned) before giving up.
  uint64_t MaxRuns = 1u << 16;
  /// Step budget per schedule (mirrors InterpOptions::MaxSteps).
  uint64_t MaxStepsPerRun = 1u << 16;
  /// Total step budget across the whole exploration.
  uint64_t MaxTotalSteps = uint64_t(1) << 24;
  /// Dynamic partial-order reduction: only branch where conflicting
  /// steps justify it. Off = full enumeration of every enabled pick at
  /// every state (the litmus tests pin its exact counts).
  bool UseDpor = true;
  /// Sleep sets (only meaningful with UseDpor).
  bool UseSleepSets = true;
  std::string EntryPoint = "main";
};

/// Schedules explored and pruned; `sharcc --explore --metrics-out`
/// writes them as the sharc-explore-v1 document.
struct ExploreStats {
  uint64_t Runs = 0;           ///< Complete schedules executed.
  uint64_t SleepBlocked = 0;   ///< Executions cut by sleep sets.
  uint64_t BoundedRuns = 0;    ///< Executions cut by the preemption bound.
  uint64_t BranchesPruned = 0; ///< Enabled picks DPOR never had to take.
  uint64_t PreemptPruned = 0;  ///< Picks dropped by the preemption bound.
  uint64_t StepsTotal = 0;     ///< Interpreter steps across all runs.
  uint64_t MaxDepth = 0;       ///< Longest schedule, in choice points.
  bool BoundHit = false;        ///< The preemption bound cut something:
                                ///< the exploration is incomplete.
  bool BudgetExhausted = false; ///< MaxRuns/MaxTotalSteps ran out, or a
                                ///< schedule was truncated by
                                ///< MaxStepsPerRun (its subtree is
                                ///< unexplored).
  bool InternalError = false;   ///< A replayed prefix diverged — a
                                ///< determinism bug; results untrusted.
};

/// One verdict equivalence class: what a schedule observed, ignoring
/// how it interleaved to get there.
struct ExploreVerdict {
  uint32_t KindsMask = 0; ///< Bit per Violation::Kind seen.
  bool Deadlocked = false;
  bool OutOfSteps = false;
  bool Completed = false;

  bool clean() const { return KindsMask == 0 && !Deadlocked && !OutOfSteps; }
  bool violating() const { return KindsMask != 0; }
  bool operator<(const ExploreVerdict &O) const {
    if (KindsMask != O.KindsMask)
      return KindsMask < O.KindsMask;
    if (Deadlocked != O.Deadlocked)
      return Deadlocked < O.Deadlocked;
    if (OutOfSteps != O.OutOfSteps)
      return OutOfSteps < O.OutOfSteps;
    return Completed < O.Completed;
  }
  bool operator==(const ExploreVerdict &O) const {
    return KindsMask == O.KindsMask && Deadlocked == O.Deadlocked &&
           OutOfSteps == O.OutOfSteps && Completed == O.Completed;
  }
  std::string describe() const;
};

/// Projects one interpreter run onto its verdict class. Shared with the
/// fuzzer's 8th oracle so random runs and explored runs classify
/// identically.
ExploreVerdict classifyResult(const InterpResult &R);

struct ExploreResult {
  /// Every verdict class observed, sorted and unique.
  std::vector<ExploreVerdict> Verdicts;
  /// First witness per violating verdict class, in discovery order.
  std::vector<std::pair<ExploreVerdict, Witness>> Witnesses;
  /// Full result of the first violating run (for reports); meaningful
  /// only when anyViolation().
  InterpResult FirstViolation;
  /// Stats of the first complete run (oracle gating).
  InterpStats FirstRunStats;
  ExploreStats Stats;

  bool anyViolation() const { return !Witnesses.empty(); }
  /// True when every inequivalent schedule was enumerated: no budget
  /// exhaustion, no preemption-bound cut, no internal error.
  bool complete() const {
    return !Stats.BudgetExhausted && !Stats.BoundHit &&
           !Stats.InternalError;
  }
  bool verdictSeen(const ExploreVerdict &V) const {
    for (const ExploreVerdict &E : Verdicts)
      if (E == V)
        return true;
    return false;
  }
};

/// Enumerates schedules of \p Prog. The program must already be
/// checked/instrumented (same contract as Interp).
ExploreResult explore(minic::Program &Prog,
                      const checker::Instrumentation &Instr,
                      const ExploreOptions &Opts = ExploreOptions());

} // namespace interp
} // namespace sharc

#endif // SHARC_INTERP_EXPLORE_H

//===-- sharcbench/harness/Minic.cpp - The static checker and explorer ----===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Workload `minic`: a seeded corpus from fuzz::generateProgram.
//
//   - Normal-profile programs go through the static pipeline
//     (Parser::parseProgram -> ExprTyper::run -> SharingAnalysis::run ->
//     Checker::run), timed from source text to verdict, then through one
//     seeded interp::Interp::run with the checker's instrumentation and
//     one with none (the program's "orig" run), interleaved.
//   - Small-profile programs are explored with interp::explore under a
//     fixed run/step budget (Normal-profile exploration does not finish).
//   - The nine examples/minic programs run with their known answers.
//
// Nothing here touches rt::Runtime: this is the control workload for
// runtime changes, and the one that moves for elision and exploration.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Traced.h"
#include "analysis/SharingAnalysis.h"
#include "checker/Checker.h"
#include "fuzz/ProgramGen.h"
#include "interp/Explore.h"
#include "interp/Interp.h"
#include "minic/ExprTyper.h"
#include "minic/Parser.h"
#include "obs/Sink.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

using namespace sharc;

namespace sharcbench {
namespace {

/// One program taken from source text to a static verdict. Owns what
/// the AST points into.
struct Frontend {
  SourceManager SM;
  std::unique_ptr<DiagnosticEngine> Diags;
  std::unique_ptr<minic::Program> Prog;
  std::unique_ptr<checker::Checker> Check;
  bool Ok = false;
  double ParseNs = 0, InferNs = 0, CheckNs = 0;

  Frontend(const std::string &Name, const std::string &Source) {
    uint64_t T0 = wallNs();
    FileId File = SM.addBuffer(Name, Source);
    Diags = std::make_unique<DiagnosticEngine>(SM);
    minic::Parser P(SM, File, *Diags);
    Prog = P.parseProgram();
    if (Diags->hasErrors())
      return;
    minic::ExprTyper Typer(*Prog, *Diags);
    if (!Typer.run())
      return;
    uint64_t T1 = wallNs();
    analysis::SharingAnalysis SA(*Prog, *Diags);
    if (!SA.run())
      return;
    uint64_t T2 = wallNs();
    Check = std::make_unique<checker::Checker>(*Prog, *Diags);
    Ok = Check->run();
    uint64_t T3 = wallNs();
    ParseNs = double(T1 - T0);
    InferNs = double(T2 - T1);
    CheckNs = double(T3 - T2);
  }
  double verdictNs() const { return ParseNs + InferNs + CheckNs; }
};

struct Timed {
  interp::InterpResult Result;
  double WallNs = 0, CpuNs = 0;
};

Timed timedRun(minic::Program &Prog, const checker::Instrumentation &Instr,
               const interp::InterpOptions &Opts) {
  Timed T;
  interp::Interp I(Prog, Instr);
  uint64_t W0 = wallNs(), C0 = threadCpuNs();
  T.Result = I.run(Opts);
  T.CpuNs = double(threadCpuNs() - C0);
  T.WallNs = double(wallNs() - W0);
  return T;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

constexpr size_t MaxSourceBytes = 48 * 1024;

/// Per-program samples across corpus passes.
struct ProgramSamples {
  std::vector<double> Verdict, Checked, Orig, CheckedCpu, OrigCpu;
};

} // namespace

void runMinic(const RunContext &Ctx, Report &R) {
  unsigned NumNormal = Ctx.Small ? 8 : 200;
  unsigned NumSmall = Ctx.Small ? 8 : 100;
  std::vector<std::string> Normal, Small;
  unsigned Replaced = 0;
  SetupSampler Setup(Ctx, [&] {
    Normal.clear();
    Small.clear();
    Replaced = 0;
    // Normal-profile sizes have a long tail (a few programs exceed
    // 150 KiB of source), and the largest one alone would set the
    // process's memory peak. Programs over MaxSourceBytes are replaced
    // by the next derived seed's, so the corpus shape is the same for
    // every run seed.
    uint64_t Stream = 0;
    for (unsigned I = 0; I != NumNormal; ++I) {
      std::string P;
      while ((P = fuzz::generateProgram(mixSeed(Ctx.Seed, Stream++),
                                        fuzz::GenSize::Normal))
                 .size() > MaxSourceBytes)
        ++Replaced;
      Normal.push_back(std::move(P));
    }
    for (unsigned I = 0; I != NumSmall; ++I)
      Small.push_back(fuzz::generateProgram(mixSeed(Ctx.Seed, Stream++),
                                            fuzz::GenSize::Small));
  });

  // Phase 1: static verdicts and orig/checked interpreter pairs over the
  // Normal corpus, pass after pass until the budget is spent.
  std::vector<ProgramSamples> Samples(NumNormal);
  double ParseNs = 0, InferNs = 0, CheckNs = 0, Steps = 0, StepNs = 0;
  uint64_t ChecksInserted = 0, Verdicts = 0;
  double Budget1 = Ctx.Seconds * (Ctx.Trace ? 0.35 : 0.5);
  uint64_t Start = wallNs();
  for (unsigned Pass = 0; Pass == 0 || RunContext::within(Start, Budget1);
       ++Pass) {
    Setup.tick();
    for (unsigned I = 0; I != NumNormal; ++I) {
      Frontend F("gen.mc", Normal[I]);
      R.check(F.Ok, "generated program " + std::to_string(I) +
                        " rejected by the static pipeline");
      if (!F.Ok)
        continue;
      ProgramSamples &S = Samples[I];
      S.Verdict.push_back(F.verdictNs());
      ParseNs += F.ParseNs;
      InferNs += F.InferNs;
      CheckNs += F.CheckNs;
      ++Verdicts;
      const checker::Instrumentation &Instr = F.Check->getInstrumentation();
      if (Pass == 0)
        ChecksInserted += Instr.getNumChecks();

      interp::InterpOptions Opts;
      Opts.Seed = mixSeed(Ctx.Seed, 1000003 + I);
      checker::Instrumentation None;
      Timed C, O;
      if ((Pass + I) % 2 == 0) {
        C = timedRun(*F.Prog, Instr, Opts);
        O = timedRun(*F.Prog, None, Opts);
      } else {
        O = timedRun(*F.Prog, None, Opts);
        C = timedRun(*F.Prog, Instr, Opts);
      }
      // Checks only observe: the program's answer must not change.
      R.check(C.Result.Output == O.Result.Output &&
                  C.Result.Completed == O.Result.Completed,
              "generated program " + std::to_string(I) +
                  ": checked and orig interpreter runs disagree");
      S.Checked.push_back(C.WallNs);
      S.Orig.push_back(O.WallNs);
      S.CheckedCpu.push_back(C.CpuNs);
      S.OrigCpu.push_back(O.CpuNs);
      Steps += double(C.Result.Stats.Steps);
      StepNs += C.WallNs;
    }
    if (Ctx.Small)
      break;
  }

  std::vector<double> VerdictMs, WallX, CpuX;
  for (const ProgramSamples &S : Samples) {
    if (S.Verdict.empty())
      continue;
    VerdictMs.push_back(median(S.Verdict) / 1e6);
    WallX.push_back(pairedRatio(S.Checked, S.Orig));
    CpuX.push_back(pairedRatio(S.CheckedCpu, S.OrigCpu));
  }

  double RssAfterVerdicts = peakRssMb();

  // Phase 2: bounded exploration of the Small corpus (each program once;
  // the budget is a count, so the decided share is exact).
  interp::ExploreOptions EO;
  EO.MaxRuns = 2048;
  EO.MaxStepsPerRun = 4096;
  EO.MaxTotalSteps = 1u << 18;
  std::vector<double> ExploreMs;
  uint64_t Decided = 0, Runs = 0, ExSteps = 0, SleepBlocked = 0, Exhausted = 0;
  double ExploreNs = 0;
  for (unsigned I = 0; I != NumSmall; ++I) {
    Frontend F("small.mc", Small[I]);
    R.check(F.Ok, "small program " + std::to_string(I) +
                      " rejected by the static pipeline");
    if (!F.Ok)
      continue;
    uint64_t T0 = wallNs();
    interp::ExploreResult ER =
        interp::explore(*F.Prog, F.Check->getInstrumentation(), EO);
    double Ns = double(wallNs() - T0);
    R.check(!ER.Stats.InternalError,
            "small program " + std::to_string(I) +
                ": exploration diverged on a replayed prefix");
    ExploreMs.push_back(Ns / 1e6);
    ExploreNs += Ns;
    Decided += ER.complete() ? 1 : 0;
    Runs += ER.Stats.Runs;
    ExSteps += ER.Stats.StepsTotal;
    SleepBlocked += ER.Stats.SleepBlocked;
    Exhausted += ER.Stats.BudgetExhausted ? 1 : 0;
  }

  // Phase 3: the shipped examples and their known verdicts under one run
  // with the default seed, as `sharcc --run` runs them.
  static const char *const Examples[] = {
      "bank_transfer",  "locked_counter",       "pfscan_mini",
      "pipeline_annotated", "pipeline_unannotated", "prof_tuning",
      "prof_tuning_tuned",  "race_demo",            "readers_writers"};
  for (const char *Name : Examples) {
    std::string Path = std::string("examples/minic/") + Name + ".mc";
    std::string Source;
    if (!readFile(Path, Source)) {
      R.check(false, "cannot read " + Path);
      continue;
    }
    Frontend F(Path, Source);
    R.check(F.Ok, Path + " rejected by the static pipeline");
    if (!F.Ok)
      continue;
    interp::Interp I(*F.Prog, F.Check->getInstrumentation());
    interp::InterpResult Res = I.run(interp::InterpOptions());
    bool ExpectViolation = std::string(Name) == "race_demo" ||
                           std::string(Name) == "pipeline_unannotated";
    bool Violated = Res.TotalViolations != 0;
    R.check(Violated == ExpectViolation,
            Path + (ExpectViolation ? ": expected a violation, ran clean"
                                    : ": expected a clean run, got a violation"));
  }

  std::fprintf(stderr,
               "minic: programs=%zu verdict=%.4fms slowdown=%.4f "
               "explore=%.4fms (%.0fms total) decided=%llu/%zu runs=%llu "
               "rss=%.1f/%.1fMB replaced=%u\n",
               VerdictMs.size(), median(VerdictMs), geomean(WallX),
               median(ExploreMs), ExploreNs / 1e6, (unsigned long long)Decided,
               ExploreMs.size(), (unsigned long long)Runs, RssAfterVerdicts,
               peakRssMb(), Replaced);

  if (!Ctx.Trace) {
    R.metric("setup_s", Setup.seconds(), "s");
    Setup.log("minic");
    R.metric("slowdown_x", geomean(WallX), "x");
    R.metric("cpu_slowdown_x", geomean(CpuX), "x");
    return;
  }

  double V = Verdicts ? double(Verdicts) : 1;
  R.metric("minic.verdict_ms", median(VerdictMs), "ms");
  R.metric("minic.parse_us", ParseNs / V / 1000.0, "us");
  R.metric("analysis.infer_us", InferNs / V / 1000.0, "us");
  R.metric("checker.check_us", CheckNs / V / 1000.0, "us");
  R.metric("checker.checks_inserted", double(ChecksInserted), "count");
  R.metric("interp.steps_per_s", StepNs > 0 ? Steps / (StepNs / 1e9) : 0,
           "1/s");
  R.metric("interp.explore_ms", median(ExploreMs), "ms");
  R.metric("interp.decided_pct",
           ExploreMs.empty() ? 0 : 100.0 * double(Decided) / ExploreMs.size(),
           "%");
  R.metric("interp.explore.runs", double(Runs), "count");
  R.metric("interp.explore.steps", double(ExSteps), "count");
  R.metric("interp.explore.sleep_blocked", double(SleepBlocked), "count");
  R.metric("interp.explore.budget_exhausted", double(Exhausted), "count");
  R.metric("interp.explore.runs_per_s",
           ExploreNs > 0 ? double(Runs) / (ExploreNs / 1e9) : 0, "1/s");

  // Traced run: the interpreter's own profiler (InterpOptions::Profile)
  // over the Normal corpus, against the same runs untraced.
  ProfileSink Sink;
  std::vector<double> TraceX;
  for (unsigned I = 0; I != NumNormal; ++I) {
    Frontend F("gen.mc", Normal[I]);
    if (!F.Ok || Samples[I].Checked.empty())
      continue;
    interp::InterpOptions Opts;
    Opts.Seed = mixSeed(Ctx.Seed, 1000003 + I);
    Opts.Sink = &Sink;
    Opts.Profile = true;
    Timed T = timedRun(*F.Prog, F.Check->getInstrumentation(), Opts);
    TraceX.push_back(T.WallNs / median(Samples[I].Checked));
  }
  R.metric("obs.trace_overhead_x", geomean(TraceX), "x");
}

} // namespace sharcbench

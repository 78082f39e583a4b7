//===-- obs/TraceTool.cpp - sharc-trace CLI ---------------------*- C++ -*-===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `sharc-trace` — offline analysis of .strc traces recorded by
/// `sharcc --trace-out` (or any obs::TraceWriter user), plus schema
/// validation for the JSON the bench harnesses and `--metrics-out`
/// emit. The `profile` subcommand is the paper-§6 tuning loop: ranked
/// per-site check costs, lock contention, and annotation advice that —
/// when the MiniC source is available — is re-checked against the
/// static semantics before being shown. Exit codes follow sharcc's
/// contract: 0 success, 1 a check failed or the input is malformed,
/// 2 usage errors.
///
/// Every subcommand is one entry of the Commands table at the bottom:
/// name, operand synopsis, help text and handler. That table alone
/// drives `--help`, `CMD --help` and dispatch.
///
//===----------------------------------------------------------------------===//

#include "analysis/SharingAnalysis.h"
#include "checker/Checker.h"
#include "minic/ExprTyper.h"
#include "minic/Parser.h"
#include "obs/Causal.h"
#include "obs/ChromeTrace.h"
#include "obs/Json.h"
#include "obs/MetricsJson.h"
#include "obs/Profile.h"
#include "obs/PromText.h"
#include "obs/ReportHtml.h"
#include "obs/Summary.h"
#include "obs/TraceFile.h"
#include "obs/TraceTail.h"
#include "rt/LiveStats.h"
#include "rt/StatsServer.h"
#include "support/Args.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <string>
#include <thread>
#include <vector>

using namespace sharc;

namespace {

struct Command {
  const char *Name;
  const char *Usage; ///< operand synopsis
  const char *Help;  ///< what it does, one or more lines
  /// Runs the command on the arguments after its name; returns the
  /// exit code.
  int (*Run)(const Command &C, int Argc, char **Argv);
};

void printIndented(std::FILE *To, const char *Indent, const char *Text) {
  while (*Text) {
    size_t Len = std::strcspn(Text, "\n");
    std::fprintf(To, "%s%.*s\n", Indent, static_cast<int>(Len), Text);
    Text += Len + (Text[Len] == '\n');
  }
}

int usage(const Command &C) {
  std::fprintf(stderr, "usage: sharc-trace %s %s\n", C.Name, C.Usage);
  return 2;
}

//===----------------------------------------------------------------------===//
// Arguments: operands and flags
//===----------------------------------------------------------------------===//

enum class FlagMatch { NotMine, Taken, Bad };

/// Splits a command's arguments into operands, offering each argument
/// that starts with "--" to \p Flag first (which advances I past a
/// separate value). Fails, reporting the usage error, on an unknown or
/// rejected flag or an operand count outside [Min, Max].
template <typename FlagFn>
bool scanArgs(const Command &C, int Argc, char **Argv, size_t Min, size_t Max,
              std::vector<const char *> &Ops, FlagFn Flag) {
  for (int I = 0; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--", 2) != 0) {
      Ops.push_back(Argv[I]);
      continue;
    }
    switch (Flag(I)) {
    case FlagMatch::Taken:
      continue;
    case FlagMatch::Bad:
      return false;
    case FlagMatch::NotMine:
      std::fprintf(stderr, "sharc-trace: %s: unknown option '%s'\n", C.Name,
                   Argv[I]);
      usage(C);
      return false;
    }
  }
  if (Ops.size() >= Min && Ops.size() <= Max)
    return true;
  usage(C);
  return false;
}

bool scanArgs(const Command &C, int Argc, char **Argv, size_t Min, size_t Max,
              std::vector<const char *> &Ops) {
  return scanArgs(C, Argc, Argv, Min, Max, Ops,
                  [](int &) { return FlagMatch::NotMine; });
}

/// "--flag VALUE" / "--flag=VALUE", the value handed to \p Accept (which
/// reports a rejection itself).
template <typename AcceptFn>
FlagMatch valueFlag(const char *Flag, int Argc, char **Argv, int &I,
                    AcceptFn Accept) {
  const char *Value = nullptr;
  if (!matchValueFlag(Flag, Argc, Argv, I, Value))
    return FlagMatch::NotMine;
  if (!Value) {
    std::fprintf(stderr, "sharc-trace: %s needs a value\n", Flag);
    return FlagMatch::Bad;
  }
  return Accept(Value) ? FlagMatch::Taken : FlagMatch::Bad;
}

FlagMatch u64Flag(const char *Flag, int Argc, char **Argv, int &I,
                  uint64_t &Out) {
  return valueFlag(Flag, Argc, Argv, I, [&](const char *Value) {
    return parseU64Flag("sharc-trace", Flag, Value, Out);
  });
}

/// A percentage flag: a finite decimal >= 0, or in (0, 100] when it
/// selects a \p Share of something.
FlagMatch pctFlag(const char *Flag, int Argc, char **Argv, int &I,
                  double &Out, bool Share = false) {
  return valueFlag(Flag, Argc, Argv, I, [&](const char *Value) {
    double Pct;
    if (!parseDecimalFlag("sharc-trace", Flag, Value, Pct))
      return false;
    if (Share ? Pct <= 0 || Pct > 100 : Pct < 0) {
      std::fprintf(stderr,
                   "sharc-trace: %s expects a percentage %s, got '%s'\n",
                   Flag, Share ? "in (0,100]" : ">= 0", Value);
      return false;
    }
    Out = Pct;
    return true;
  });
}

//===----------------------------------------------------------------------===//
// Files
//===----------------------------------------------------------------------===//

bool readOrComplain(const char *Path, std::string &Text) {
  if (obs::readFile(Path, Text))
    return true;
  std::fprintf(stderr, "sharc-trace: cannot read '%s'\n", Path);
  return false;
}

/// Writes \p Text to \p Path, or to stdout when Path is null.
int writeOutput(const char *Path, const std::string &Text) {
  if (!Path) {
    std::fputs(Text.c_str(), stdout);
    return 0;
  }
  std::FILE *F = std::fopen(Path, "wb");
  bool Ok = F && std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  if (F && std::fclose(F) != 0)
    Ok = false;
  if (Ok)
    return 0;
  std::fprintf(stderr, "sharc-trace: cannot write '%s'\n", Path);
  return 1;
}

int selfValidationFailed(const char *What, const std::string &Error) {
  std::fprintf(stderr,
               "sharc-trace: internal error: emitted %s fails "
               "self-validation: %s\n",
               What, Error.c_str());
  return 1;
}

bool loadOrComplain(const char *Path, obs::TraceData &Data) {
  std::string Error;
  if (obs::loadTraceFile(Path, Data, Error))
    return true;
  std::fprintf(stderr, "sharc-trace: %s: %s\n", Path, Error.c_str());
  return false;
}

/// Loads a trace that must carry a stats sample.
bool loadWithSample(const char *Path, obs::TraceData &Data) {
  if (!loadOrComplain(Path, Data))
    return false;
  if (!Data.Samples.empty())
    return true;
  std::fprintf(stderr, "sharc-trace: %s has no stats samples\n", Path);
  return false;
}

/// Loads a trace for causal analysis. Unlike loadOrComplain, a
/// truncated (e.g. torn-write) trace is not fatal: the decodable prefix
/// is analysed, with \p Note carrying the truncation diagnosis. Only
/// structural corruption (or an unreadable header) fails.
bool loadForCausal(const char *Path, obs::TraceData &Data,
                   std::string &Note) {
  std::string Bytes, Error;
  if (!readOrComplain(Path, Bytes))
    return false;
  if (obs::parseTrace(Bytes, Data, Error))
    return true;
  obs::TailParser P;
  P.push(Bytes);
  if (P.corrupt() || P.state() == obs::TailParser::State::Header) {
    std::fprintf(stderr, "sharc-trace: %s: %s\n", Path, Error.c_str());
    return false;
  }
  Data = P.data();
  Note = P.diagnosis() + "; analyzing the " +
         std::to_string(P.recordCount()) + " decoded records";
  return true;
}

//===----------------------------------------------------------------------===//
// Trace renderings: summarize / dump / schedule / metrics / export-chrome
//===----------------------------------------------------------------------===//

std::string renderSummaryOf(const obs::TraceData &Data) {
  return obs::renderSummary(obs::summarize(Data), Data);
}

/// A command that prints one rendering of its one trace operand.
template <std::string (*Render)(const obs::TraceData &)>
int cmdRender(const Command &C, int Argc, char **Argv) {
  std::vector<const char *> Ops;
  if (!scanArgs(C, Argc, Argv, 1, 1, Ops))
    return 2;
  obs::TraceData Data;
  if (!loadOrComplain(Ops[0], Data))
    return 1;
  std::fputs(Render(Data).c_str(), stdout);
  return 0;
}

int cmdMetrics(const Command &C, int Argc, char **Argv) {
  bool Delta = false;
  std::vector<const char *> Ops;
  if (!scanArgs(C, Argc, Argv, 1, 2, Ops, [&](int &I) {
        if (std::strcmp(Argv[I], "--delta") != 0)
          return FlagMatch::NotMine;
        Delta = true;
        return FlagMatch::Taken;
      }))
    return 2;
  if (Ops.size() != (Delta ? 2u : 1u))
    return usage(C);
  obs::TraceData Traces[2];
  for (size_t K = 0; K != Ops.size(); ++K)
    if (!loadWithSample(Ops[K], Traces[K]))
      return 1;
  rt::StatsSnapshot Final = Traces[Ops.size() - 1].Samples.back();
  if (Delta)
    Final = Final - Traces[0].Samples.back();
  std::fputs(obs::statsToJson(Final).c_str(), stdout);
  return 0;
}

int cmdExportChrome(const Command &C, int Argc, char **Argv) {
  std::vector<const char *> Ops;
  if (!scanArgs(C, Argc, Argv, 1, 2, Ops))
    return 2;
  obs::TraceData Data;
  if (!loadOrComplain(Ops[0], Data))
    return 1;
  std::string Json = obs::renderChromeTrace(Data);
  std::string Error;
  if (!obs::validateChromeJson(Json, Error))
    return selfValidationFailed("JSON", Error);
  Json.push_back('\n');
  return writeOutput(Ops.size() == 2 ? Ops[1] : nullptr, Json);
}

//===----------------------------------------------------------------------===//
// Advisor validation: re-run the static pipeline with a suggestion applied
//===----------------------------------------------------------------------===//

/// Visits every expression (including subexpressions) reachable from the
/// program's function bodies. The AST has no generic walker — the only
/// existing traversal is ASTContext::forEachType — so the advisor brings
/// its own.
template <typename FnT> void forEachExpr(minic::Expr *E, FnT &Fn) {
  using namespace minic;
  if (!E)
    return;
  Fn(E);
  switch (E->Kind) {
  case ExprKind::Unary:
    forEachExpr(cast<UnaryExpr>(E)->Sub, Fn);
    break;
  case ExprKind::Binary:
    forEachExpr(cast<BinaryExpr>(E)->Lhs, Fn);
    forEachExpr(cast<BinaryExpr>(E)->Rhs, Fn);
    break;
  case ExprKind::Assign:
    forEachExpr(cast<AssignExpr>(E)->Lhs, Fn);
    forEachExpr(cast<AssignExpr>(E)->Rhs, Fn);
    break;
  case ExprKind::Call: {
    auto *Call = cast<CallExpr>(E);
    forEachExpr(Call->Callee, Fn);
    for (Expr *Arg : Call->Args)
      forEachExpr(Arg, Fn);
    break;
  }
  case ExprKind::Member:
    forEachExpr(cast<MemberExpr>(E)->Base, Fn);
    break;
  case ExprKind::Index:
    forEachExpr(cast<IndexExpr>(E)->Base, Fn);
    forEachExpr(cast<IndexExpr>(E)->Idx, Fn);
    break;
  case ExprKind::Scast:
    forEachExpr(cast<ScastExpr>(E)->Src, Fn);
    break;
  case ExprKind::New:
    forEachExpr(cast<NewExpr>(E)->Count, Fn);
    break;
  default:
    break;
  }
}

template <typename FnT> void forEachExprInStmt(minic::Stmt *S, FnT &Fn) {
  using namespace minic;
  if (!S)
    return;
  switch (S->Kind) {
  case StmtKind::Block:
    for (Stmt *Sub : cast<BlockStmt>(S)->Body)
      forEachExprInStmt(Sub, Fn);
    break;
  case StmtKind::If: {
    auto *If = cast<IfStmt>(S);
    forEachExpr(If->Cond, Fn);
    forEachExprInStmt(If->Then, Fn);
    forEachExprInStmt(If->Else, Fn);
    break;
  }
  case StmtKind::While: {
    auto *While = cast<WhileStmt>(S);
    forEachExpr(While->Cond, Fn);
    forEachExprInStmt(While->Body, Fn);
    break;
  }
  case StmtKind::For: {
    auto *For = cast<ForStmt>(S);
    forEachExprInStmt(For->Init, Fn);
    forEachExpr(For->Cond, Fn);
    forEachExpr(For->Step, Fn);
    forEachExprInStmt(For->Body, Fn);
    break;
  }
  case StmtKind::Return:
    forEachExpr(cast<ReturnStmt>(S)->Value, Fn);
    break;
  case StmtKind::ExprStmt:
    forEachExpr(cast<ExprStmt>(S)->E, Fn);
    break;
  case StmtKind::DeclStmt:
    forEachExpr(cast<DeclStmt>(S)->Init, Fn);
    break;
  case StmtKind::Spawn:
    forEachExpr(cast<SpawnStmt>(S)->Arg, Fn);
    break;
  case StmtKind::Free:
    forEachExpr(cast<FreeStmt>(S)->Ptr, Fn);
    break;
  default:
    break;
  }
}

enum class Verdict {
  Ok,           ///< applied annotation passes analysis + checker
  Rejected,     ///< static semantics reject the proposed mode
  SiteNotFound, ///< no expression matches the profile's (line, lvalue)
  SourceError,  ///< source missing or does not parse/type on its own
};

/// Statically validates one MakePrivate suggestion: re-parse the source,
/// locate the profiled expression by line and spelling, stamp `private`
/// on the type position the expression denotes (expression types ARE the
/// declaration-position TypeNodes, see ExprTyper.h), and re-run the
/// sharing analysis and checker. Each call works on a fresh AST so
/// validations cannot contaminate each other.
Verdict validateMakePrivate(const obs::Suggestion &S, const char *SourcePath,
                            std::string &Detail) {
  SourceManager SM;
  std::string Error;
  FileId File = SM.addFile(SourcePath, Error);
  if (File == InvalidFileId) {
    Detail = Error;
    return Verdict::SourceError;
  }
  DiagnosticEngine Diags(SM);
  minic::Parser Parser(SM, File, Diags);
  auto Prog = Parser.parseProgram();
  if (Diags.hasErrors()) {
    Detail = "source does not parse";
    return Verdict::SourceError;
  }
  minic::ExprTyper Typer(*Prog, Diags);
  if (!Typer.run()) {
    Detail = "source does not type-check";
    return Verdict::SourceError;
  }

  // Every expression on the suggested line whose spelling matches the
  // profiled l-value denotes the same cell; annotate them all (their
  // ExprTypes usually alias one declaration node anyway).
  std::vector<minic::TypeNode *> Positions;
  auto Match = [&](minic::Expr *E) {
    if (E->Loc.Line == S.Line && E->ExprType && E->spelling() == S.LValue)
      Positions.push_back(E->ExprType);
  };
  for (minic::FuncDecl *F : Prog->Funcs)
    forEachExprInStmt(F->Body, Match);
  if (Positions.empty()) {
    Detail = "site not found in source";
    return Verdict::SiteNotFound;
  }
  for (minic::TypeNode *T : Positions)
    T->Q = {minic::Mode::Private, nullptr, /*Explicit=*/true};

  analysis::SharingAnalysis Analysis(*Prog, Diags);
  if (!Analysis.run()) {
    Detail = "sharing analysis rejects private here";
    return Verdict::Rejected;
  }
  checker::Checker Check(*Prog, Diags);
  if (!Check.run()) {
    Detail = "checker rejects private here";
    return Verdict::Rejected;
  }
  return Verdict::Ok;
}

int cmdProfile(const Command &C, int Argc, char **Argv) {
  const char *SourcePath = nullptr;
  std::vector<const char *> Ops;
  if (!scanArgs(C, Argc, Argv, 1, 1, Ops, [&](int &I) {
        return valueFlag("--source", Argc, Argv, I, [&](const char *Value) {
          SourcePath = Value;
          return true;
        });
      }))
    return 2;
  obs::TraceData Data;
  if (!loadOrComplain(Ops[0], Data))
    return 1;
  obs::ProfileReport R = obs::buildProfile(Data);
  std::fputs(obs::renderProfile(R, Data).c_str(), stdout);

  std::vector<obs::Suggestion> Suggestions = obs::advise(R);
  if (Suggestions.empty()) {
    std::printf("\nadvice: none (no site clears the suggestion "
                "thresholds)\n");
    return 0;
  }
  // The advisor must never suggest a mode the static semantics would
  // reject: with the source at hand, each MakePrivate proposal is
  // applied to a fresh AST and re-checked, and rejected ones are
  // withheld from the advice list (shown separately for transparency).
  std::vector<std::string> Advice, Withheld;
  for (const obs::Suggestion &S : Suggestions) {
    std::string Line = "  " + obs::renderSuggestion(S);
    if (SourcePath && S.A == obs::Suggestion::Action::MakePrivate) {
      std::string Detail;
      switch (validateMakePrivate(S, SourcePath, Detail)) {
      case Verdict::Ok:
        Advice.push_back(Line + "  [checker: ok]");
        break;
      case Verdict::Rejected:
        Withheld.push_back(Line + "  [" + Detail + "]");
        break;
      case Verdict::SiteNotFound:
      case Verdict::SourceError:
        Advice.push_back(Line + "  [checker: skipped — " + Detail + "]");
        break;
      }
    } else {
      Advice.push_back(std::move(Line));
    }
  }
  std::printf("\nadvice:%s\n", Advice.empty() ? " none survived the static"
                                                " checker" : "");
  for (const std::string &Line : Advice)
    std::printf("%s\n", Line.c_str());
  if (!Withheld.empty()) {
    std::printf("\nwithheld (static checker rejects the mode change):\n");
    for (const std::string &Line : Withheld)
      std::printf("%s\n", Line.c_str());
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// sharc-live: tail / report / requests
//===----------------------------------------------------------------------===//

int cmdTail(const Command &C, int Argc, char **Argv) {
  uint64_t PollMs = 100, IdleMs = 2000;
  bool Quiet = false;
  std::vector<const char *> Ops;
  if (!scanArgs(C, Argc, Argv, 1, 1, Ops, [&](int &I) {
        if (std::strcmp(Argv[I], "--quiet") == 0) {
          Quiet = true;
          return FlagMatch::Taken;
        }
        FlagMatch M = u64Flag("--poll-ms", Argc, Argv, I, PollMs);
        return M != FlagMatch::NotMine
                   ? M
                   : u64Flag("--idle-ms", Argc, Argv, I, IdleMs);
      }))
    return 2;
  const char *Path = Ops[0];
  PollMs = std::max<uint64_t>(PollMs, 1);
  auto Sleep = [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(PollMs));
  };

  // The file may not exist yet (the producer has not flushed); burn the
  // idle budget waiting for it to appear.
  std::FILE *F = nullptr;
  uint64_t Idle = 0;
  while (!(F = std::fopen(Path, "rb"))) {
    if (Idle >= IdleMs) {
      std::fprintf(stderr, "sharc-trace: cannot open '%s'\n", Path);
      return 1;
    }
    Sleep();
    Idle += PollMs;
  }

  // Records print as `dump` prints them, as soon as their position in
  // the dump is settled; the rest print once the stream ends.
  obs::TailParser P;
  obs::DumpCursor At;
  auto Print = [&](bool Final) {
    if (Quiet)
      return;
    std::fputs(obs::renderDumpFrom(P.data(), At, Final).c_str(), stdout);
    std::fflush(stdout);
  };

  Idle = 0;
  char Chunk[1 << 16];
  while (true) {
    size_t N = std::fread(Chunk, 1, sizeof(Chunk), F);
    if (N > 0) {
      Idle = 0;
      P.push({Chunk, N});
      Print(/*Final=*/false);
      if (P.done() || P.corrupt())
        break;
      continue;
    }
    if (std::ferror(F) != 0) {
      std::fprintf(stderr, "sharc-trace: read error on '%s'\n", Path);
      std::fclose(F);
      return 1;
    }
    if (P.done() || P.corrupt() || Idle >= IdleMs)
      break;
    std::clearerr(F); // EOF for now; the file may still grow
    Sleep();
    Idle += PollMs;
  }
  std::fclose(F);
  Print(/*Final=*/true);

  const obs::TraceData &D = P.data();
  if (P.done()) {
    std::printf("tail: complete trace: %llu records (%zu events, %zu "
                "stats samples, %zu spans)\n",
                static_cast<unsigned long long>(P.recordCount()),
                D.Events.size(), D.Samples.size(), D.Spans.size());
    if (D.AbnormalEnd)
      std::printf("tail: abnormal end (signal %u); the producer died "
                  "mid-run but flushed its trace\n",
                  D.AbnormalSignal);
    return 0;
  }
  std::fprintf(stderr, "sharc-trace: %s: %s\n", Path,
               P.diagnosis().c_str());
  std::fprintf(stderr,
               "tail: stream ended after %llu records (%zu events); the "
               "report and requests commands accept this prefix\n",
               static_cast<unsigned long long>(P.recordCount()),
               D.Events.size());
  return 1;
}

int cmdReport(const Command &C, int Argc, char **Argv) {
  std::vector<const char *> Ops;
  if (!scanArgs(C, Argc, Argv, 1, 2, Ops))
    return 2;
  obs::TraceData Data;
  std::string Note;
  if (!loadForCausal(Ops[0], Data, Note))
    return 1;
  obs::CausalReport R = obs::buildCausal(Data);
  // The timeline, then the critical path; each section carries the
  // truncation note so it stands alone.
  std::string NoteLine = Note.empty() ? "" : "note: " + Note + "\n";
  std::fputs((NoteLine + obs::renderTimeline(R, Data) + NoteLine +
              obs::renderCriticalPath(obs::criticalPath(R, Data), Data))
                 .c_str(),
             stdout);
  if (Ops.size() == 1)
    return 0;
  std::string Html = obs::renderHtmlReport(Data, R, Ops[0], Note);
  std::string Error;
  if (!obs::validateHtmlReport(Html, Error))
    return selfValidationFailed("HTML", Error);
  return writeOutput(Ops[1], Html);
}

int cmdRequests(const Command &C, int Argc, char **Argv) {
  double TailPct = 1.0;
  std::vector<const char *> Ops;
  if (!scanArgs(C, Argc, Argv, 1, 1, Ops, [&](int &I) {
        return pctFlag("--tail", Argc, Argv, I, TailPct, /*Share=*/true);
      }))
    return 2;
  obs::TraceData Data;
  std::string Note;
  if (!loadForCausal(Ops[0], Data, Note))
    return 1;
  if (!Note.empty())
    std::printf("note: %s\n", Note.c_str());
  obs::RequestsReport R = obs::buildRequests(Data);
  if (R.Requests.empty()) {
    std::fprintf(stderr,
                 "sharc-trace: %s carries no span records — record one "
                 "with sharc-serve --trace-out (trace format v4)\n",
                 Ops[0]);
    return 1;
  }
  std::fputs(obs::renderRequests(R, Data, TailPct).c_str(), stdout);
  return 0;
}

//===----------------------------------------------------------------------===//
// Live endpoint: scrape / check-prom
//===----------------------------------------------------------------------===//

int cmdScrape(const Command &C, int Argc, char **Argv) {
  std::vector<const char *> Ops;
  if (!scanArgs(C, Argc, Argv, 1, 2, Ops))
    return 2;
  std::string Host, Error;
  uint16_t Port = 0;
  if (!live::splitHostPort(Ops[0], Host, Port, Error)) {
    std::fprintf(stderr, "sharc-trace: %s\n", Error.c_str());
    return 2;
  }
  std::string Body;
  if (!live::httpGet(Host, Port, Ops.size() == 2 ? Ops[1] : "/metrics", Body,
                     Error)) {
    std::fprintf(stderr, "sharc-trace: scrape %s: %s\n", Ops[0],
                 Error.c_str());
    return 1;
  }
  std::fputs(Body.c_str(), stdout);
  return 0;
}

bool hasTraceMagic(const char *Path) {
  char Magic[sizeof(obs::TraceMagic)];
  std::FILE *F = std::fopen(Path, "rb");
  if (!F)
    return false;
  bool Is = std::fread(Magic, 1, sizeof(Magic), F) == sizeof(Magic) &&
            std::memcmp(Magic, obs::TraceMagic, sizeof(Magic)) == 0;
  std::fclose(F);
  return Is;
}

/// The scrape's counters must equal the trace's final stats sample. The
/// endpoint and this check share one metric mapping
/// (live::forEachStatMetric), so the names cannot drift apart; what this
/// verifies is the values, counter by counter, as exact integers.
int matchFinalSample(const obs::PromDoc &Doc, const char *TracePath) {
  obs::TraceData Data;
  if (!loadWithSample(TracePath, Data))
    return 1;
  int Status = 0;
  unsigned Checked = 0;
  live::forEachStatMetric(
      Data.Samples.back(),
      [&](const char *Family, const char *LabelKey, const char *LabelValue,
          uint64_t Value) {
        std::string Key = Family;
        if (LabelKey)
          Key += std::string("{") + LabelKey + "=\"" + LabelValue + "\"}";
        const obs::PromDoc::Sample *S = Doc.find(Key);
        if (!S) {
          std::printf("FAIL %-48s missing from the scrape\n", Key.c_str());
          Status = 1;
          return;
        }
        ++Checked;
        if (S->ValueText != std::to_string(Value)) {
          std::printf("FAIL %-48s scrape %s != trace %llu\n", Key.c_str(),
                      S->ValueText.c_str(),
                      static_cast<unsigned long long>(Value));
          Status = 1;
        }
      });
  if (Status == 0)
    std::printf("ok: %u series exactly match the trace's final stats "
                "sample\n",
                Checked);
  return Status;
}

int cmdCheckProm(const Command &C, int Argc, char **Argv) {
  std::vector<const char *> Ops;
  if (!scanArgs(C, Argc, Argv, 1, 2, Ops))
    return 2;
  bool AgainstTrace = Ops.size() == 2 && hasTraceMagic(Ops[1]);
  size_t Scrapes = AgainstTrace ? 1 : Ops.size();
  obs::PromDoc Docs[2];
  for (size_t K = 0; K != Scrapes; ++K) {
    std::string Text, Error;
    if (!readOrComplain(Ops[K], Text))
      return 1;
    if (!obs::parsePromText(Text, Docs[K], Error)) {
      std::fprintf(stderr, "sharc-trace: %s: %s\n", Ops[K], Error.c_str());
      return 1;
    }
    if (!AgainstTrace)
      std::printf("ok: %s (%zu series, %zu families)\n", Ops[K],
                  Docs[K].Samples.size(), Docs[K].Families.size());
  }
  if (AgainstTrace)
    return matchFinalSample(Docs[0], Ops[1]);
  if (Scrapes == 2) {
    std::string Error;
    if (!obs::checkPromMonotonic(Docs[0], Docs[1], Error)) {
      std::fprintf(stderr, "sharc-trace: %s\n", Error.c_str());
      return 1;
    }
    std::printf("ok: counters monotonic across the two scrapes\n");
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Bench reports: check-bench / check-metrics / check-overhead /
// compare-runs
//===----------------------------------------------------------------------===//

template <bool (*Validate)(const obs::JsonValue &, std::string &)>
int cmdCheckJson(const Command &C, int Argc, char **Argv) {
  std::vector<const char *> Ops;
  if (!scanArgs(C, Argc, Argv, 1, SIZE_MAX, Ops))
    return 2;
  int Status = 0;
  for (const char *Path : Ops) {
    std::string Text, Error;
    obs::JsonValue Doc;
    if (!readOrComplain(Path, Text)) {
      Status = 1;
    } else if (!parseJson(Text, Doc, Error) || !Validate(Doc, Error)) {
      std::fprintf(stderr, "sharc-trace: %s: %s\n", Path, Error.c_str());
      Status = 1;
    } else {
      std::printf("ok: %s\n", Path);
    }
  }
  return Status;
}

using Metrics = std::vector<std::pair<std::string, double>>;

Metrics metricsOf(const obs::JsonValue &Obj) {
  Metrics Out;
  for (const auto &[Key, Value] : Obj.Obj)
    Out.emplace_back(Key, Value.Num);
  return Out;
}

const double *metric(const Metrics &M, const std::string &Name) {
  for (const auto &[Key, Value] : M)
    if (Key == Name)
      return &Value;
  return nullptr;
}

/// One sharc-bench-v1 report, its rows flattened to name -> metrics.
struct BenchRun {
  std::string Path, Bench, Rev;
  uint64_t UnixTime = 0; ///< host.unix_time; 0 in archives predating it
  std::vector<std::pair<std::string, Metrics>> Rows;

  const Metrics *find(const std::string &Name) const {
    for (const auto &[RowName, M] : Rows)
      if (RowName == Name)
        return &M;
    return nullptr;
  }
};

/// Reads and validates the report at \p Path; \p Doc keeps the parsed
/// document for callers that want more of it than the rows.
bool loadBenchRun(const std::string &Path, BenchRun &Out,
                  obs::JsonValue &Doc) {
  std::string Text, Error;
  if (!readOrComplain(Path.c_str(), Text))
    return false;
  if (!parseJson(Text, Doc, Error) || !obs::validateBenchJson(Doc, Error)) {
    std::fprintf(stderr, "sharc-trace: %s: %s\n", Path.c_str(),
                 Error.c_str());
    return false;
  }
  Out.Path = Path;
  Out.Bench = Doc.get("bench")->Str;
  const obs::JsonValue *Host = Doc.get("host");
  Out.Rev = Host->get("git_rev")->Str;
  if (const obs::JsonValue *T = Host->get("unix_time"); T && T->isNumber())
    Out.UnixTime = static_cast<uint64_t>(T->Num);
  for (const obs::JsonValue &Row : Doc.get("rows")->Arr)
    Out.Rows.emplace_back(Row.get("name")->Str,
                          metricsOf(*Row.get("metrics")));
  return true;
}

/// The timing metric a row is compared on: cpu_ns for google-benchmark
/// harnesses, then real_ns, then Table 1's checked-run time (its
/// time_orig_sec is the uninstrumented program, which no SharC change
/// can move), then the first metric whose name suggests a duration.
/// Empty when the row has none.
std::string timingMetric(const Metrics &M) {
  for (const char *Want : {"cpu_ns", "real_ns", "time_sharc_sec"})
    if (metric(M, Want))
      return Want;
  for (const auto &[Key, Value] : M)
    if (Key.find("_ns") != std::string::npos ||
        Key.find("_sec") != std::string::npos ||
        Key.find("seconds") != std::string::npos)
      return Key;
  return "";
}

/// True for latency-percentile metric keys: 'p' followed by digits, then
/// end-of-name or a unit suffix — p50, p99_us, p999_us. compare-runs
/// gates these alongside the timing metric so tail-latency regressions
/// (which leave wall time untouched in an open-loop run) still fail.
bool isPercentileMetric(const std::string &Key) {
  if (Key.size() < 2 || Key[0] != 'p')
    return false;
  size_t I = 1;
  while (I < Key.size() && Key[I] >= '0' && Key[I] <= '9')
    ++I;
  return I > 1 && (I == Key.size() || Key[I] == '_');
}

/// Compares one metric of one row between a base and a candidate run
/// (Base > 0) and prints the verdict line, "ok   ROW METRIC BASE -> CAND
/// (+P%)" or "FAIL ... (+P% > MAX%)", then \p Trailer. \returns true
/// when the candidate regressed by more than \p MaxPct percent.
bool compareRow(const std::string &Row, const std::string &Name, double Base,
                double Cand, double MaxPct, const std::string &Trailer = "") {
  double Pct = 100.0 * (Cand - Base) / Base;
  bool Regressed = Pct > MaxPct;
  std::printf("%-4s %-32s %s %.4g -> %.4g (%+.2f%%", Regressed ? "FAIL" : "ok",
              Row.c_str(), Name.c_str(), Base, Cand, Pct);
  if (Regressed)
    std::printf(" > %.2f%%", MaxPct);
  std::printf(")%s\n", Trailer.c_str());
  return Regressed;
}

int cmdCheckOverhead(const Command &C, int Argc, char **Argv) {
  double MaxPct = 2.0;
  std::vector<const char *> Ops;
  if (!scanArgs(C, Argc, Argv, 2, 2, Ops, [&](int &I) {
        return pctFlag("--max-pct", Argc, Argv, I, MaxPct);
      }))
    return 2;
  BenchRun Base, Cand;
  obs::JsonValue Doc;
  if (!loadBenchRun(Ops[0], Base, Doc) || !loadBenchRun(Ops[1], Cand, Doc))
    return 1;

  int Status = 0;
  unsigned Compared = 0;
  for (const auto &[Name, BaseMetrics] : Base.Rows) {
    const Metrics *CandMetrics = Cand.find(Name);
    std::string Timing = timingMetric(BaseMetrics);
    const double *BaseVal = metric(BaseMetrics, Timing);
    const double *CandVal = CandMetrics ? metric(*CandMetrics, Timing) : nullptr;
    if (!BaseVal || !CandVal || *BaseVal <= 0)
      continue;
    ++Compared;
    if (compareRow(Name, Timing, *BaseVal, *CandVal, MaxPct))
      Status = 1;
  }
  if (Compared == 0) {
    std::fprintf(stderr,
                 "sharc-trace: no comparable rows between '%s' and '%s'\n",
                 Ops[0], Ops[1]);
    return 1;
  }
  return Status;
}

/// serve.stages percentiles ride along as "stages/NAME" pseudo-rows so
/// the per-stage breakdown is trended exactly like the top-level latency
/// rows; the serve.resilience block gets the same lift so shed rates and
/// time-to-recover trend across commits too.
void addServeRows(const obs::JsonValue &Doc, BenchRun &Run) {
  const obs::JsonValue *Serve = Doc.get("serve");
  if (!Serve)
    return;
  if (const obs::JsonValue *Stages = Serve->get("stages"))
    for (const auto &[Stage, Obj] : Stages->Obj)
      Run.Rows.emplace_back("stages/" + Stage, metricsOf(Obj));
  if (const obs::JsonValue *Res = Serve->get("resilience")) {
    // ttr_p50_us -> p50_us so the time-to-recover percentiles match the
    // percentile-metric predicate and trend like any latency row; the
    // raw counters ride along unrenamed (archived, not gated — shed
    // counts depend on the machine's momentary load).
    Metrics M = metricsOf(*Res);
    for (auto &[Key, Value] : M)
      if (Key.rfind("ttr_", 0) == 0)
        Key.erase(0, 4);
    Run.Rows.emplace_back("resilience", std::move(M));
  }
}

int cmdCompareRuns(const Command &C, int Argc, char **Argv) {
  double MaxPct = 10.0;
  std::vector<const char *> Ops;
  if (!scanArgs(C, Argc, Argv, 1, 1, Ops, [&](int &I) {
        return pctFlag("--max-pct", Argc, Argv, I, MaxPct);
      }))
    return 2;
  const char *Dir = Ops[0];

  std::vector<std::string> Files;
  DIR *D = opendir(Dir);
  if (!D) {
    std::fprintf(stderr, "sharc-trace: cannot open directory '%s'\n", Dir);
    return 1;
  }
  while (const dirent *E = readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() > 5 && Name.rfind(".json") == Name.size() - 5)
      Files.push_back(std::string(Dir) + "/" + Name);
  }
  closedir(D);
  if (Files.empty()) {
    std::fprintf(stderr,
                 "sharc-trace: no .json archives in '%s' — has ci.sh run "
                 "with history archiving yet?\n",
                 Dir);
    return 1;
  }
  std::sort(Files.begin(), Files.end());

  std::vector<BenchRun> Runs(Files.size());
  for (size_t K = 0; K != Files.size(); ++K) {
    obs::JsonValue Doc;
    if (!loadBenchRun(Files[K], Runs[K], Doc))
      return 1;
    addServeRows(Doc, Runs[K]);
  }
  // Oldest -> newest: the embedded timestamp orders runs; name order
  // breaks ties (and orders pre-timestamp archives).
  std::stable_sort(Runs.begin(), Runs.end(),
                   [](const BenchRun &A, const BenchRun &B) {
                     return A.UnixTime < B.UnixTime;
                   });

  std::printf("comparing %zu archived run(s) in %s (oldest -> newest):\n",
              Runs.size(), Dir);
  for (const BenchRun &R : Runs)
    std::printf("  %-12s %s\n", R.Rev.c_str(), R.Path.c_str());
  std::printf("\n");

  // Per-benchmark series across runs: each row is trended on its timing
  // metric plus every latency percentile it carries (p50_us, p99_us,
  // p999_us, ... — sharc-serve's tail-latency rows), so a change that
  // keeps the mean but fattens the tail still trips the gate. Each
  // series compares its newest value against the previous one.
  std::vector<std::string> Seen, Regressed;
  for (const BenchRun &Origin : Runs) {
    for (const auto &[Name, OriginMetrics] : Origin.Rows) {
      std::string RowKey = Origin.Bench + "/" + Name;
      if (std::find(Seen.begin(), Seen.end(), RowKey) != Seen.end())
        continue;
      Seen.push_back(RowKey);
      std::vector<std::string> Names;
      std::string Timing = timingMetric(OriginMetrics);
      if (!Timing.empty())
        Names.push_back(Timing);
      for (const auto &[K, V] : OriginMetrics)
        if (isPercentileMetric(K) && K != Timing)
          Names.push_back(K);
      for (const std::string &MetricName : Names) {
        std::vector<double> Series;
        for (const BenchRun &R : Runs)
          if (const Metrics *M = R.Bench == Origin.Bench ? R.find(Name)
                                                         : nullptr)
            if (const double *V = metric(*M, MetricName); V && *V > 0)
              Series.push_back(*V);
        if (Series.empty())
          continue;
        if (Series.size() < 2) {
          std::printf("%-4s %-32s %s %.4g (single run)\n", "-",
                      RowKey.c_str(), MetricName.c_str(), Series.back());
          continue;
        }
        char Trend[96];
        std::snprintf(Trend, sizeof(Trend), "  [%zu runs; first %.4g, best %.4g]",
                      Series.size(), Series.front(),
                      *std::min_element(Series.begin(), Series.end()));
        if (compareRow(RowKey, MetricName, Series[Series.size() - 2],
                       Series.back(), MaxPct, Trend))
          Regressed.push_back(RowKey + ":" + MetricName);
      }
    }
  }
  if (Regressed.empty())
    return 0;
  // Name the offenders: a CI log reader should not have to scan the
  // table to learn which metric moved.
  std::string List;
  for (const std::string &R : Regressed)
    List += (List.empty() ? "" : ", ") + R;
  std::printf("\nFAIL: the newest run regressed %s by more than %.1f%% "
              "over the previous run\n",
              List.c_str(), MaxPct);
  return 1;
}

//===----------------------------------------------------------------------===//
// The command table
//===----------------------------------------------------------------------===//

constexpr Command Commands[] = {
    {"summarize", "FILE.strc",
     "totals, per-thread histogram, lock contention, hottest granules,\n"
     "conflict timeline",
     cmdRender<renderSummaryOf>},
    {"dump", "FILE.strc", "every record, one per line",
     cmdRender<obs::renderDump>},
    {"schedule", "FILE.strc", "re-emit as the fuzzer's replay schedule",
     cmdRender<obs::renderSchedule>},
    {"metrics", "FILE.strc | --delta A.strc B.strc",
     "final stats sample as sharc-stats-v1 JSON; with --delta, B's\n"
     "final sample minus A's (saturating), for before/after annotation\n"
     "tuning",
     cmdMetrics},
    {"profile", "FILE.strc [--source FILE.mc]",
     "ranked per-site check costs, lock contention, and annotation\n"
     "advice from a profiling run (sharcc --profile); with --source\n"
     "every suggestion is re-checked against the static checker",
     cmdProfile},
    {"export-chrome", "FILE.strc [OUT.json]",
     "Chrome trace-event JSON for chrome://tracing and ui.perfetto.dev\n"
     "(stdout when OUT is omitted)",
     cmdExportChrome},
    {"tail", "FILE.strc [--poll-ms N] [--idle-ms N] [--quiet]",
     "follow a growing (or crash-truncated) trace, printing its records\n"
     "as dump does while they land; waits up to the idle budget\n"
     "(default 2000 ms) for the file to appear or grow, polling every\n"
     "N ms (default 100). Exits 0 on a complete trace, 1 when the\n"
     "stream ends truncated or corrupt",
     cmdTail},
    {"report", "FILE.strc [OUT.html]",
     "causal analysis, also of a truncated trace: the per-thread\n"
     "run/blocked timeline with blocked time attributed to lock\n"
     "holders, then the longest dependency chain bounding the run with\n"
     "per-edge cost; with OUT, also one self-contained HTML report\n"
     "(timeline, critical path, hot sites, violations)",
     cmdReport},
    {"requests", "FILE.strc [--tail P]",
     "request-span anatomy of a sharc-serve --trace-out run: per-stage\n"
     "latency percentiles, then the slowest P% of requests (default 1)\n"
     "attributed to concrete causes: lock wait with the holding request\n"
     "and lock site, ingress queue backlog, logger backlog, or\n"
     "sharing-check cost",
     cmdRequests},
    {"scrape", "HOST:PORT [PATH]",
     "HTTP GET against a live stats endpoint (sharcc --stats-addr,\n"
     "SHARC_STATS_ADDR); PATH defaults to /metrics; no curl needed",
     cmdScrape},
    {"check-prom", "SCRAPE [LATER | FILE.strc]",
     "strictly validate Prometheus exposition text; with a later\n"
     "scrape, also check that counters only grow; with a .strc trace\n"
     "(known by its magic), check that the scrape's counters exactly\n"
     "match the trace's final stats sample",
     cmdCheckProm},
    {"check-bench", "FILE...", "validate sharc-bench-v1 JSON reports",
     cmdCheckJson<obs::validateBenchJson>},
    {"check-metrics", "FILE...", "validate sharc-metrics-v1 JSON reports",
     cmdCheckJson<obs::validateMetricsJson>},
    {"check-overhead", "BASE.json CAND.json [--max-pct P]",
     "compare two sharc-bench-v1 reports row by row on each row's\n"
     "timing metric; fail if a shared row regressed by more than P%\n"
     "(default 2)",
     cmdCheckOverhead},
    {"compare-runs", "DIR [--max-pct P]",
     "trend every row of the archived sharc-bench-v1 runs in DIR\n"
     "(bench/history/) on its timing metric and each latency percentile\n"
     "(p50/p99/p999...); fail, naming each regressed bench/row:metric,\n"
     "when the newest run regressed the previous one by more than P%\n"
     "(default 10)",
     cmdCompareRuns},
};

void printUsage(std::FILE *To) {
  std::fprintf(To, "usage: sharc-trace <command> [args]\n\ncommands:\n");
  for (const Command &C : Commands) {
    std::fprintf(To, "  %s %s\n", C.Name, C.Usage);
    printIndented(To, "      ", C.Help);
  }
  std::fprintf(To, "\nevery command also accepts --help; exit codes: 0 "
                   "success,\n1 malformed input or failed check, 2 usage\n");
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    printUsage(stderr);
    return 2;
  }
  std::string Name = Argv[1];
  if (Name == "--help" || Name == "-h" || Name == "help") {
    printUsage(stdout);
    return 0;
  }
  for (const Command &C : Commands) {
    if (Name != C.Name)
      continue;
    if (Argc >= 3 && std::strcmp(Argv[2], "--help") == 0) {
      std::printf("usage: sharc-trace %s %s\n", C.Name, C.Usage);
      printIndented(stdout, "  ", C.Help);
      return 0;
    }
    return C.Run(C, Argc - 2, Argv + 2);
  }
  std::fprintf(stderr, "sharc-trace: unknown command '%s'\n", Name.c_str());
  printUsage(stderr);
  return 2;
}

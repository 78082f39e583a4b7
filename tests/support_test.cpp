//===-- tests/support_test.cpp - Support library tests --------------------===//
//
// Part of the SharC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Args.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "support/StringInterner.h"

#include <gtest/gtest.h>

using namespace sharc;

TEST(SourceManagerTest, AddBufferAssignsSequentialIds) {
  SourceManager SM;
  FileId A = SM.addBuffer("a.mc", "hello\n");
  FileId B = SM.addBuffer("b.mc", "world\n");
  EXPECT_EQ(A, 0u);
  EXPECT_EQ(B, 1u);
  EXPECT_EQ(SM.getNumFiles(), 2u);
  EXPECT_EQ(SM.getFileName(A), "a.mc");
  EXPECT_EQ(SM.getText(B), "world\n");
}

TEST(SourceManagerTest, GetLineReturnsLineWithoutNewline) {
  SourceManager SM;
  FileId F = SM.addBuffer("f", "line one\nline two\nline three");
  EXPECT_EQ(SM.getLine(F, 1), "line one");
  EXPECT_EQ(SM.getLine(F, 2), "line two");
  EXPECT_EQ(SM.getLine(F, 3), "line three");
  EXPECT_EQ(SM.getLine(F, 4), "");
  EXPECT_EQ(SM.getLine(F, 0), "");
}

TEST(SourceManagerTest, GetLineHandlesEmptyAndTrailingNewline) {
  SourceManager SM;
  FileId F = SM.addBuffer("f", "a\n\nb\n");
  EXPECT_EQ(SM.getLine(F, 1), "a");
  EXPECT_EQ(SM.getLine(F, 2), "");
  EXPECT_EQ(SM.getLine(F, 3), "b");
}

TEST(SourceManagerTest, FormatLocRendersFileLineCol) {
  SourceManager SM;
  FileId F = SM.addBuffer("pipeline.mc", "x\n");
  EXPECT_EQ(SM.formatLoc(SourceLoc(F, 1, 3)), "pipeline.mc:1:3");
  EXPECT_EQ(SM.formatLoc(SourceLoc()), "<unknown>");
}

TEST(SourceManagerTest, AddFileReportsMissingFile) {
  SourceManager SM;
  std::string Error;
  FileId F = SM.addFile("/nonexistent/definitely/not/here.mc", Error);
  EXPECT_EQ(F, InvalidFileId);
  EXPECT_FALSE(Error.empty());
}

TEST(DiagnosticsTest, CountsBySeverity) {
  SourceManager SM;
  FileId F = SM.addBuffer("f", "int x;\n");
  DiagnosticEngine Diags(SM);
  Diags.error(SourceLoc(F, 1, 1), "bad thing");
  Diags.warning(SourceLoc(F, 1, 5), "odd thing");
  Diags.note(SourceLoc(F, 1, 5), "see here");
  EXPECT_EQ(Diags.getNumErrors(), 1u);
  EXPECT_EQ(Diags.getNumWarnings(), 1u);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.getDiagnostics().size(), 3u);
}

TEST(DiagnosticsTest, RenderIncludesCaretSnippet) {
  SourceManager SM;
  FileId F = SM.addBuffer("f.mc", "int dynamic x;\n");
  DiagnosticEngine Diags(SM);
  Diags.error(SourceLoc(F, 1, 5), "unexpected qualifier");
  std::string Out = Diags.render();
  EXPECT_NE(Out.find("f.mc:1:5: error: unexpected qualifier"),
            std::string::npos);
  EXPECT_NE(Out.find("int dynamic x;"), std::string::npos);
  EXPECT_NE(Out.find("    ^"), std::string::npos);
}

TEST(DiagnosticsTest, ContainsMessageFindsSubstring) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  Diags.error(SourceLoc(), "cannot cast dynamic ref to private ref");
  EXPECT_TRUE(Diags.containsMessage("dynamic ref"));
  EXPECT_FALSE(Diags.containsMessage("locked"));
}

TEST(DiagnosticsTest, ClearResetsState) {
  SourceManager SM;
  DiagnosticEngine Diags(SM);
  Diags.error(SourceLoc(), "x");
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.getDiagnostics().empty());
}

TEST(StringInternerTest, EqualStringsShareStorage) {
  StringInterner Interner;
  std::string A = "sdata";
  std::string B = "sdata";
  std::string_view VA = Interner.intern(A);
  std::string_view VB = Interner.intern(B);
  EXPECT_EQ(VA.data(), VB.data());
  EXPECT_EQ(Interner.size(), 1u);
}

TEST(StringInternerTest, DistinctStringsDiffer) {
  StringInterner Interner;
  std::string_view VA = Interner.intern("next");
  std::string_view VB = Interner.intern("cv");
  EXPECT_NE(VA.data(), VB.data());
  EXPECT_EQ(Interner.size(), 2u);
}

TEST(ArgsTest, ParseDecimalTakesOnlyFiniteNumbers) {
  double V = 0;
  EXPECT_TRUE(parseDecimal("2", V));
  EXPECT_EQ(V, 2.0);
  EXPECT_TRUE(parseDecimal("0.25", V));
  EXPECT_EQ(V, 0.25);
  EXPECT_TRUE(parseDecimal("-1e1", V));
  EXPECT_EQ(V, -10.0);
  // nan would make every comparison against a bound false.
  for (const char *Bad : {"", "nan", "NaN", "inf", "-inf", "infinity",
                          " 2", "2 ", "2x", "+2", "1e999", "0x10"}) {
    EXPECT_FALSE(parseDecimal(Bad, V)) << "'" << Bad << "'";
    EXPECT_EQ(V, -10.0) << "'" << Bad << "' wrote the output";
  }
}

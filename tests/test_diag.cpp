// Structured-diagnostics tests: DiagEngine collection/rendering/JSON,
// multi-error recovery through the real front end, the legacy throwing
// wrappers, and the golden bad-input corpus (tests/corpus/bad/*.fir, each
// with a .expect file listing "CODE line:col" per expected error).
#include <gtest/gtest.h>

#include <dirent.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "diag/diag.h"
#include "firrtl/lexer.h"
#include "obs/json.h"
#include "sim/compile.h"

#ifndef DIAG_CORPUS_DIR
#error "DIAG_CORPUS_DIR must be defined by the build"
#endif

namespace {

using namespace essent;

std::string readFile(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << path;
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(Diag, CollectsAndCounts) {
  diag::DiagEngine de;
  EXPECT_FALSE(de.hasErrors());
  de.error("E0201", "expected ':'", {"x.fir", 3, 5, 8});
  de.warning("W0601", "degraded", {});
  de.error("E0303", "width error", {"x.fir", 7, 1, 0});
  EXPECT_TRUE(de.hasErrors());
  EXPECT_EQ(de.errorCount(), 2u);
  EXPECT_EQ(de.warningCount(), 1u);
  ASSERT_EQ(de.diagnostics().size(), 3u);
  EXPECT_EQ(de.diagnostics()[0].code, "E0201");
  EXPECT_EQ(de.diagnostics()[1].severity, diag::Severity::Warning);
}

TEST(Diag, RenderIsClangStyle) {
  diag::DiagEngine de;
  de.setSource("bad.fir", "circuit X :\n  module Y\n    skip\n");
  de.error("E0201", "expected ':' after module name", {"bad.fir", 2, 10, 11});
  std::string r = de.render();
  EXPECT_NE(r.find("bad.fir:2:10: error: expected ':' after module name [E0201]"),
            std::string::npos)
      << r;
  EXPECT_NE(r.find("module Y"), std::string::npos) << r;  // source excerpt
  EXPECT_NE(r.find("^"), std::string::npos) << r;         // caret
}

TEST(Diag, ErrorLimitStopsCollection) {
  diag::DiagEngine de;
  de.maxErrors = 4;
  for (int i = 0; i < 10; i++) de.error("E0201", "err", {});
  EXPECT_TRUE(de.atErrorLimit());
  // The engine keeps the first maxErrors errors (plus at most one
  // "too many errors" marker), never all ten.
  EXPECT_LE(de.diagnostics().size(), 5u);
}

TEST(Diag, JsonRoundTrip) {
  diag::DiagEngine de;
  de.setSource("a.fir", "circuit A :\n");
  de.error("E0102", "unterminated string literal", {"a.fir", 4, 9, 15})
      .note("string opened here", {"a.fir", 4, 9, 10});
  de.warning("W0601", "falling back to serial CCSS engine", {});
  obs::Json doc = de.toJson();
  std::vector<diag::Diagnostic> back = diag::diagnosticsFromJson(doc);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].severity, diag::Severity::Error);
  EXPECT_EQ(back[0].code, "E0102");
  EXPECT_EQ(back[0].message, "unterminated string literal");
  EXPECT_EQ(back[0].span.file, "a.fir");
  EXPECT_EQ(back[0].span.line, 4);
  EXPECT_EQ(back[0].span.col, 9);
  EXPECT_EQ(back[0].span.endCol, 15);
  ASSERT_EQ(back[0].notes.size(), 1u);
  EXPECT_EQ(back[0].notes[0].message, "string opened here");
  EXPECT_EQ(back[1].severity, diag::Severity::Warning);
  EXPECT_EQ(back[1].code, "W0601");
}

// One pass over a multi-error file reports every error, each with a
// correct location — the acceptance criterion for panic-mode recovery.
TEST(Diag, MultiErrorFileReportsAllErrors) {
  const std::string src =
      "circuit Bad :\n"
      "  module Bad :\n"
      "    input x : UInt<8\n"          // line 3: unclosed width
      "    output y : UInt<8>\n"
      "    node n = add(x,\n"           // line 5: missing operand
      "    y <= n\n"
      "    node m = bitz(x, 3, 0)\n";   // line 7: junk after expr
  diag::DiagEngine de;
  de.setSource("<test>", src);
  auto circ = firrtl::parseCircuit(src, de);
  EXPECT_GE(de.errorCount(), 2u);
  std::vector<int> lines;
  for (const auto& d : de.diagnostics())
    if (d.severity == diag::Severity::Error) lines.push_back(d.span.line);
  EXPECT_TRUE(std::find(lines.begin(), lines.end(), 3) != lines.end());
  EXPECT_TRUE(std::find(lines.begin(), lines.end(), 5) != lines.end());
}

TEST(Diag, LegacyWrappersStillThrow) {
  EXPECT_THROW(firrtl::lex("circuit C :\n  node x = &y\n"), firrtl::LexError);
  EXPECT_THROW(firrtl::parseCircuit("circuit C :\n  module C\n"), firrtl::ParseError);
}

TEST(Diag, CleanInputProducesNoDiagnostics) {
  const std::string src =
      "circuit Ok :\n"
      "  module Ok :\n"
      "    input clock : Clock\n"
      "    input x : UInt<4>\n"
      "    output y : UInt<4>\n"
      "    y <= x\n";
  diag::DiagEngine de;
  de.setSource("<test>", src);
  auto ir = sim::buildFromFirrtlDiag(src, {}, de);
  ASSERT_TRUE(ir.has_value());
  EXPECT_TRUE(de.diagnostics().empty());
}

// Golden corpus: every tests/corpus/bad/*.fir must produce exactly the
// error list (code + line:col, in order) recorded in its .expect sibling.
TEST(DiagCorpus, BadInputsMatchGoldenExpectations) {
  std::vector<std::string> cases;
  DIR* d = opendir(DIAG_CORPUS_DIR);
  ASSERT_NE(d, nullptr) << DIAG_CORPUS_DIR;
  while (dirent* e = readdir(d)) {
    std::string name = e->d_name;
    if (name.size() > 4 && name.substr(name.size() - 4) == ".fir")
      cases.push_back(name.substr(0, name.size() - 4));
  }
  closedir(d);
  std::sort(cases.begin(), cases.end());
  ASSERT_GE(cases.size(), 10u) << "bad-input corpus shrank";

  for (const std::string& base : cases) {
    SCOPED_TRACE(base);
    std::string fir = readFile(std::string(DIAG_CORPUS_DIR) + "/" + base + ".fir");
    std::string expectText = readFile(std::string(DIAG_CORPUS_DIR) + "/" + base + ".expect");

    diag::DiagEngine de;
    de.setSource(base + ".fir", fir);
    auto ir = sim::buildFromFirrtlDiag(fir, {}, de);
    EXPECT_FALSE(ir.has_value());
    EXPECT_TRUE(de.hasErrors());

    std::vector<std::string> got;
    for (const auto& dg : de.diagnostics()) {
      if (dg.severity != diag::Severity::Error) continue;
      got.push_back(dg.code + " " + std::to_string(dg.span.line) + ":" +
                    std::to_string(dg.span.col));
    }
    std::vector<std::string> want;
    std::istringstream in(expectText);
    std::string line;
    while (std::getline(in, line))
      if (!line.empty()) want.push_back(line);
    EXPECT_EQ(got, want);
  }
}

}  // namespace

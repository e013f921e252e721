// End-to-end tests for the essentc command-line driver (invoked as a real
// subprocess, the way a user runs it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "support/tempdir.h"

#ifndef ESSENTC_PATH
#error "ESSENTC_PATH must be defined by the build"
#endif
#ifndef EXAMPLES_DIR
#error "EXAMPLES_DIR must be defined by the build"
#endif

namespace {

using essent::support::TempDir;

struct CliResult {
  int exitCode = -1;
  std::string output;  // stdout + stderr
};

// `env` is prepended to the command line, e.g. "ESSENT_THREADS=1 ". The
// run's TMPDIR is a private scratch dir removed on return, so scratch that
// essentc keeps after a failed compile goes with it.
CliResult runCli(const std::string& args, const std::string& env = "") {
  const TempDir dir("essent_cli_XXXXXX");
  std::string outFile = dir.file("out.txt");
  std::string cmd = "TMPDIR='" + dir.path() + "' " + env + ESSENTC_PATH + " " + args + " > " +
                    outFile + " 2>&1";
  int rc = std::system(cmd.c_str());
  CliResult res;
  res.exitCode = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  std::ifstream f(outFile);
  std::stringstream ss;
  ss << f.rdbuf();
  res.output = ss.str();
  return res;
}

// Scratch for the tests' input files, removed when the test process exits.
const TempDir& inputDir() {
  static const TempDir dir("essent_cli_fir_XXXXXX");
  return dir;
}

std::string writeFir(const std::string& contents) {
  static int files = 0;
  std::string path = inputDir().file("design" + std::to_string(files++) + ".fir");
  std::ofstream(path) << contents;
  return path;
}

const char* kCounterFir = R"(
circuit Counter :
  module Counter :
    input clock : Clock
    input reset : UInt<1>
    input en : UInt<1>
    output count : UInt<8>
    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))
    when en :
      r <= tail(add(r, UInt<8>(1)), 1)
    count <= r
)";

TEST(Cli, StatsReportsPartitioning) {
  std::string fir = writeFir(kCounterFir);
  auto res = runCli("--stats " + fir);
  EXPECT_EQ(res.exitCode, 0) << res.output;
  EXPECT_NE(res.output.find("design Counter"), std::string::npos);
  EXPECT_NE(res.output.find("MFFC partitions"), std::string::npos);
  EXPECT_NE(res.output.find("elided regs"), std::string::npos);
}

TEST(Cli, RunWithPokesReportsOutputs) {
  std::string fir = writeFir(kCounterFir);
  auto res = runCli("--run 10 --poke en=1 --poke reset=0 " + fir);
  EXPECT_EQ(res.exitCode, 0) << res.output;
  // After 10 cycles the output shows the pre-update value of cycle 10.
  EXPECT_NE(res.output.find("count = 0x9"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("essent-ccss"), std::string::npos);
  EXPECT_NE(res.output.find("effective activity"), std::string::npos);
}

TEST(Cli, RunOnAlternateEngines) {
  std::string fir = writeFir(kCounterFir);
  for (const char* engine : {"full", "event"}) {
    auto res = runCli(std::string("--run 10 --engine ") + engine + " --poke en=1 " + fir);
    EXPECT_EQ(res.exitCode, 0) << res.output;
    EXPECT_NE(res.output.find("count = 0x9"), std::string::npos) << engine << res.output;
  }
}

TEST(Cli, EmitCppProducesCompilableLookingCode) {
  std::string fir = writeFir(kCounterFir);
  auto res = runCli("--emit-cpp " + fir);
  EXPECT_EQ(res.exitCode, 0);
  EXPECT_NE(res.output.find("struct Simulator"), std::string::npos);
  EXPECT_NE(res.output.find("void eval()"), std::string::npos);
  EXPECT_NE(res.output.find("act_["), std::string::npos);  // CCSS by default
  auto base = runCli("--emit-cpp --baseline " + fir);
  EXPECT_EQ(base.output.find("act_["), std::string::npos);
}

TEST(Cli, DotEmitsPartitionGraph) {
  std::string fir = writeFir(kCounterFir);
  auto res = runCli("--dot --cp 2 " + fir);
  EXPECT_EQ(res.exitCode, 0);
  EXPECT_NE(res.output.find("digraph partitions"), std::string::npos);
}

TEST(Cli, VcdDumpWritten) {
  std::string fir = writeFir(kCounterFir);
  std::string vcd = fir + ".vcd";
  auto res = runCli("--run 5 --poke en=1 --vcd " + vcd + " " + fir);
  EXPECT_EQ(res.exitCode, 0) << res.output;
  std::ifstream f(vcd);
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_NE(ss.str().find("$enddefinitions"), std::string::npos);
}

TEST(Cli, AllowCombLoopsFlag) {
  std::string fir = writeFir(R"(
circuit Latch :
  module Latch :
    input s : UInt<1>
    input r : UInt<1>
    output q : UInt<1>
    wire qi : UInt<1>
    wire qbi : UInt<1>
    qi <= not(or(r, qbi))
    qbi <= not(or(s, qi))
    q <= qi
)");
  auto rejected = runCli("--stats " + fir);
  EXPECT_EQ(rejected.exitCode, 1);
  EXPECT_NE(rejected.output.find("combinational cycle"), std::string::npos);
  auto ok = runCli("--stats --allow-comb-loops " + fir);
  EXPECT_EQ(ok.exitCode, 0) << ok.output;
  auto run = runCli("--run 3 --allow-comb-loops --poke s=1 " + fir);
  EXPECT_NE(run.output.find("q = 0x1"), std::string::npos) << run.output;
}

TEST(Cli, CompileRunCrossChecksInterpreter) {
  std::string fir = writeFir(kCounterFir);
  auto res = runCli("--compile-run 12 --poke en=1 --poke reset=0 " + fir);
  EXPECT_EQ(res.exitCode, 0) << res.output;
  EXPECT_NE(res.output.find("count = 0xb (matches interpreter)"), std::string::npos)
      << res.output;
  EXPECT_NE(res.output.find("outputs match the interpreter"), std::string::npos);
  auto bad = runCli("--compile-run 5 --poke nosuch=1 " + fir);
  EXPECT_NE(bad.exitCode, 0);
}

// --shards N compiles the generated units concurrently and links them; the
// result must pass the same interpreter cross-check, with the same outputs
// as the one-file compile, in both CCSS and baseline modes.
TEST(Cli, CompileRunShardedCrossChecksInterpreter) {
  const std::string fir =
      "--poke start=1 --poke a=48 --poke b=36 " + std::string(EXAMPLES_DIR) + "/gcd.fir";
  auto outputs = [](const std::string& text) {
    std::string lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
      if (line.find("(matches interpreter)") != std::string::npos) lines += line + "\n";
    return lines;
  };
  for (const char* mode : {"", "--baseline "}) {
    auto sharded = runCli(std::string("--compile-run 200 --shards 2 ") + mode + fir);
    EXPECT_EQ(sharded.exitCode, 0) << sharded.output;
    EXPECT_NE(sharded.output.find("in 2 units"), std::string::npos) << sharded.output;
    EXPECT_NE(sharded.output.find("outputs match the interpreter"), std::string::npos)
        << sharded.output;
    auto single = runCli(std::string("--compile-run 200 ") + mode + fir);
    EXPECT_EQ(single.exitCode, 0) << single.output;
    EXPECT_EQ(outputs(sharded.output), outputs(single.output));
    EXPECT_NE(outputs(sharded.output).find("result = 0x"), std::string::npos) << sharded.output;
  }
}

// After a unit fails to compile no further compile is started. A stand-in
// compiler that logs its calls and always fails, one compile at a time:
// exactly one call, then exit 1 with the scratch directory kept.
TEST(Cli, CompileRunStartsNoCompileAfterAFailure) {
  const TempDir tmp("essent_cli_cc_XXXXXX");
  const std::string& dir = tmp.path();
  const std::string log = dir + "/calls.log";
  std::ofstream(dir + "/c++") << "#!/bin/sh\necho \"$*\" >> '" << log << "'\nexit 1\n";
  std::filesystem::permissions(dir + "/c++", std::filesystem::perms::owner_all);
  auto res = runCli("--compile-run 5 --shards 2 " + std::string(EXAMPLES_DIR) + "/gcd.fir",
                    "PATH='" + dir + "':\"$PATH\" TMPDIR='" + dir + "' ESSENT_THREADS=1 ");
  EXPECT_EQ(res.exitCode, 1) << res.output;
  EXPECT_NE(res.output.find("in 2 units"), std::string::npos) << res.output;
  std::ifstream calls(log);
  size_t n = 0;
  for (std::string line; std::getline(calls, line);) n++;
  EXPECT_EQ(n, 1u) << res.output;
  // The kept scratch lands in this test's TMPDIR and is removed with it.
  EXPECT_NE(res.output.find("source kept at " + dir + "/"), std::string::npos) << res.output;
}

TEST(Cli, EngineLongAliasesAccepted) {
  std::string fir = writeFir(kCounterFir);
  for (const char* engine : {"essent-ccss", "full-cycle", "event-driven"}) {
    auto res = runCli(std::string("--run 10 --engine ") + engine + " --poke en=1 " + fir);
    EXPECT_EQ(res.exitCode, 0) << engine << res.output;
    EXPECT_NE(res.output.find("count = 0x9"), std::string::npos) << engine << res.output;
  }
  // The removed intra-design threaded engine is no longer a kind.
  for (const char* engine : {"verilator", "par", "essent-ccss-par"}) {
    auto bad = runCli(std::string("--run 5 --engine ") + engine + " " + fir);
    EXPECT_EQ(bad.exitCode, 2) << engine;
    EXPECT_NE(bad.output.find("unknown engine"), std::string::npos) << engine << bad.output;
  }
  auto codegen = runCli("--run 5 --engine codegen " + fir);
  EXPECT_EQ(codegen.exitCode, 2);
  EXPECT_NE(codegen.output.find("--compile-run"), std::string::npos);
}

TEST(Cli, BatchRunsFarmAndAgreesWithSolo) {
  std::string fir = writeFir(kCounterFir);
  auto res = runCli("--run 10 --batch 3 --threads 2 --poke en=1 --poke reset=0 " + fir);
  EXPECT_EQ(res.exitCode, 0) << res.output;
  EXPECT_NE(res.output.find("farm: 3 instances on ccss engine"), std::string::npos)
      << res.output;
  // Every instance ran the full budget and reports the farm aggregates.
  EXPECT_NE(res.output.find("10 cycles"), std::string::npos);
  EXPECT_NE(res.output.find("instances/s"), std::string::npos);
  // --batch gates on --run and rejects per-instance output flags.
  auto noRun = runCli("--stats --batch 2 " + fir);
  EXPECT_EQ(noRun.exitCode, 2);
  auto withVcd = runCli("--run 5 --batch 2 --vcd " + inputDir().file("x.vcd") + " " + fir);
  EXPECT_EQ(withVcd.exitCode, 2);
}

// An unset --threads gives the farm one worker per hardware thread
// (ThreadPool::defaultThreadCount), capped by the instance count.
TEST(Cli, BatchDefaultsToOneWorkerPerCore) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 2) GTEST_SKIP() << "single-core host";
  unsetenv("ESSENT_THREADS");
  std::string fir = writeFir(kCounterFir);
  auto res = runCli("--run 10 --batch 3 --poke en=1 --poke reset=0 " + fir);
  EXPECT_EQ(res.exitCode, 0) << res.output;
  const std::string expect =
      "farm: 3 instances on ccss engine, " + std::to_string(std::min(3u, hw)) + " workers";
  EXPECT_NE(res.output.find(expect), std::string::npos) << res.output;
}

TEST(Cli, BatchStimulusDirDrivesInstances) {
  std::string fir = writeFir(kCounterFir);
  const TempDir tmp("essent_cli_stim_XXXXXX");
  const std::string& dir = tmp.path();
  std::ofstream(dir + "/on.stim") << "inputs en reset\nwidths 1 1\n1 0\n1 0\n1 0\n1 0\n";
  std::ofstream(dir + "/off.stim") << "inputs en reset\nwidths 1 1\n0 0\n0 0\n0 0\n0 0\n";
  auto res = runCli("--run 4 --batch 2 --stimulus-dir " + dir + " " + fir);
  EXPECT_EQ(res.exitCode, 0) << res.output;
  EXPECT_NE(res.output.find("off.stim"), std::string::npos) << res.output;
  EXPECT_NE(res.output.find("on.stim"), std::string::npos) << res.output;
  auto empty = runCli("--run 4 --batch 2 --stimulus-dir /nonexistent-dir " + fir);
  EXPECT_EQ(empty.exitCode, 1);
}

TEST(Cli, ErrorsAreUsable) {
  auto noFile = runCli("--stats /nonexistent.fir");
  EXPECT_NE(noFile.exitCode, 0);
  auto badArg = runCli("--frobnicate");
  EXPECT_EQ(badArg.exitCode, 2);
  EXPECT_NE(badArg.output.find("usage:"), std::string::npos);
  std::string badFir = writeFir("circuit X :\n  module Y :\n    skip\n");
  auto parseErr = runCli("--stats " + badFir);
  EXPECT_EQ(parseErr.exitCode, 1);
  EXPECT_NE(parseErr.output.find("essentc:"), std::string::npos);
}

}  // namespace

// Tests for the C++ code generation backend. Structural checks run on the
// emitted text; end-to-end checks compile the generated simulator with the
// host toolchain, run it against deterministic stimulus, and require
// bit-identical results vs. the in-process interpreter — in both baseline
// and CCSS modes.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "codegen/emitter.h"
#include "core/activity_engine.h"
#include "designs/blocks.h"
#include "designs/gcd.h"
#include "sim/compile.h"
#include "sim/full_cycle.h"
#include "support/strutil.h"
#include "support/tempdir.h"

namespace essent::codegen {
namespace {

using core::ActivityEngine;
using core::CondPartSchedule;
using core::Netlist;
using core::ScheduleOptions;
using sim::FullCycleEngine;
using sim::SimIR;

CondPartSchedule makeSchedule(const SimIR& ir) {
  return core::buildSchedule(Netlist::build(ir), ScheduleOptions{});
}

// Ports are named struct members; every other signal (here the register
// r) is a word of the st_ arena, not a member of its own.
TEST(Codegen, EmitsStructWithNamedMembers) {
  SimIR ir = sim::buildFromFirrtl(designs::counterFirrtl(8));
  CodegenOptions opts;
  opts.ccss = false;
  std::string code = emitCpp(ir, nullptr, opts);
  EXPECT_NE(code.find("struct Simulator"), std::string::npos);
  EXPECT_NE(code.find("uint64_t count = 0"), std::string::npos);
  EXPECT_NE(code.find("uint64_t en = 0"), std::string::npos);
  EXPECT_NE(code.find("uint64_t reset = 0"), std::string::npos);
  EXPECT_NE(code.find("uint64_t st_["), std::string::npos);
  EXPECT_EQ(code.find("uint64_t r = 0"), std::string::npos);
  EXPECT_EQ(memberName(ir, ir.findSignal("r")).rfind("st_[", 0), 0u);
  EXPECT_NE(code.find("void eval()"), std::string::npos);
  EXPECT_NE(code.find("void Simulator::eval()"), std::string::npos);
  // Baseline mode has no activity machinery.
  EXPECT_EQ(code.find("act_["), std::string::npos);
}

TEST(Codegen, CcssModeEmitsPartitionsAndTriggers) {
  SimIR ir = sim::buildFromFirrtl(designs::aluArrayFirrtl(8, 16));
  CondPartSchedule sched = makeSchedule(ir);
  std::string code = emitCpp(ir, &sched, CodegenOptions{});
  EXPECT_NE(code.find("bool act_["), std::string::npos);
  EXPECT_NE(code.find("static void part_0(Simulator& s)"), std::string::npos);
  EXPECT_NE(code.find("first_cycle_"), std::string::npos);
  // Push-direction triggering via OR-reduction.
  EXPECT_NE(code.find("|= ch"), std::string::npos);
}

TEST(Codegen, BranchHintsOnColdPaths) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit P :
  module P :
    input clock : Clock
    input reset : UInt<1>
    input en : UInt<1>
    output q : UInt<4>
    reg r : UInt<4>, clock with : (reset => (reset, UInt<4>(0)))
    r <= tail(add(r, UInt<4>(1)), 1)
    q <= r
    printf(clock, en, "r=%d\n", r)
    stop(clock, eq(r, UInt<4>(9)), 1)
)");
  CondPartSchedule sched = makeSchedule(ir);
  CodegenOptions opts;
  std::string code = emitCpp(ir, &sched, opts);
  EXPECT_NE(code.find("[[unlikely]]"), std::string::npos);
  EXPECT_NE(code.find("__builtin_expect"), std::string::npos);  // reset mux way
  opts.branchHints = false;
  std::string plain = emitCpp(ir, &sched, opts);
  EXPECT_EQ(plain.find("[[unlikely]]"), std::string::npos);
}

TEST(Codegen, MuxShadowSinksSingleUseCones) {
  // mul(a,b) feeds only the taken way of the mux: with shadowing it must
  // move inside an if/else branch; without it, a ternary remains.
  SimIR ir = sim::buildFromFirrtl(R"(
circuit S :
  module S :
    input s : UInt<1>
    input a : UInt<8>
    input b : UInt<8>
    output o : UInt<16>
    o <= mux(s, mul(a, b), cat(a, b))
)");
  CondPartSchedule sched = makeSchedule(ir);
  CodegenOptions on;
  std::string withShadow = emitCpp(ir, &sched, on);
  EXPECT_NE(withShadow.find("} else {"), std::string::npos);
  CodegenOptions off;
  off.muxShadow = false;
  std::string without = emitCpp(ir, &sched, off);
  EXPECT_EQ(without.find("} else {"), std::string::npos);
}

TEST(Codegen, ConstantsHoistedIntoInitializers) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit C :
  module C :
    input a : UInt<8>
    output o : UInt<9>
    o <= add(a, UInt<8>("hab"))
)");
  CodegenOptions opts;
  opts.ccss = false;
  std::string code = emitCpp(ir, nullptr, opts);
  // The constant's arena word is set once, from the constructor's table.
  int32_t k = -1;
  for (const sim::Op& op : ir.ops)
    if (op.code == sim::OpCode::Const) k = op.dest;
  ASSERT_GE(k, 0);
  const uint32_t off = sim::Layout::build(ir).offset[static_cast<size_t>(k)];
  const size_t entry = code.find(strfmt("{%u, 0xabull}", off));
  EXPECT_NE(entry, std::string::npos) << code;
  EXPECT_LT(code.find("kConsts[]"), entry);
  EXPECT_LT(code.find("Simulator::Simulator()"), entry);
  // No per-cycle constant assignment anywhere: not in eval(), not in the
  // work functions it calls.
  EXPECT_EQ(code.find("= 0xabull;"), std::string::npos);
  EXPECT_EQ(code.find(memberName(ir, k) + " ="), std::string::npos);
}

TEST(Codegen, RejectsWideSignals) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit W :
  module W :
    input a : UInt<64>
    output o : UInt<80>
    o <= pad(a, 80)
)");
  EXPECT_THROW(emitCpp(ir, nullptr, CodegenOptions{"S", false, true}), CodegenError);
}

// Every signal that is not a top-level port lives at its interpreter
// layout offset in the st_ arena; ports keep their names.
TEST(Codegen, ArenaIndexIsLayoutOffset) {
  SimIR ir = sim::buildFromFirrtl(designs::gcdFirrtl(16));
  const sim::Layout layout = sim::Layout::build(ir);
  size_t arena = 0, ports = 0;
  for (size_t s = 0; s < ir.signals.size(); s++) {
    const sim::Signal& sig = ir.signals[s];
    const std::string n = memberName(ir, static_cast<int32_t>(s));
    if (sig.kind == sim::SigKind::Input || sig.kind == sim::SigKind::Output) {
      EXPECT_EQ(n, sig.name);
      ports++;
    } else {
      EXPECT_EQ(n, "st_[" + std::to_string(layout.offset[s]) + "]") << sig.name;
      arena++;
    }
  }
  EXPECT_EQ(ports, ir.inputs.size() + ir.outputs.size());
  EXPECT_GT(arena, 0u);
  std::string code = emitCpp(ir, nullptr, CodegenOptions{"Simulator", false, true});
  EXPECT_NE(code.find(strfmt("uint64_t st_[%u] = {};", layout.totalWords)), std::string::npos);
}

// The sharded header declares the ports, the arena and O(shards) functions:
// its declaration count does not grow with the design, and no partition
// function is declared in it.
TEST(Codegen, ShardedHeaderSizeIndependentOfDesign) {
  auto declLines = [](const std::string& text) {
    size_t n = 0;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) n += line.find(';') != std::string::npos;
    return n;
  };
  for (bool ccss : {false, true}) {
    size_t lines[2];
    size_t bytes[2];
    const uint32_t sizes[2] = {4, 32};
    for (int d = 0; d < 2; d++) {
      SimIR ir = sim::buildFromFirrtl(designs::aluArrayFirrtl(sizes[d], sizes[d]));
      CondPartSchedule sched = makeSchedule(ir);
      CodegenOptions opts;
      opts.ccss = ccss;
      ShardedCpp sh = emitCppSharded(ir, ccss ? &sched : nullptr, opts, 4, "alu");
      EXPECT_EQ(sh.units.size(), 4u);
      EXPECT_EQ(sh.header.find("part_"), std::string::npos) << sh.header;
      EXPECT_EQ(sh.header.find("chunk_"), std::string::npos) << sh.header;
      lines[d] = declLines(sh.header);
      bytes[d] = 0;
      for (const std::string& u : sh.units) bytes[d] += u.size();
    }
    EXPECT_EQ(lines[0], lines[1]) << (ccss ? "ccss" : "baseline");
    EXPECT_GT(bytes[1], bytes[0]);  // the design itself did grow
  }
}

TEST(Codegen, MemberNamesAreUniqueAndStable) {
  SimIR ir = sim::buildFromFirrtl(designs::gcdFirrtl(16));
  std::set<std::string> seen;
  for (size_t s = 0; s < ir.signals.size(); s++) {
    std::string n = memberName(ir, static_cast<int32_t>(s));
    EXPECT_TRUE(seen.insert(n).second) << n;
    EXPECT_EQ(n, memberName(ir, static_cast<int32_t>(s)));
  }
}

// --- compile-and-run integration ---

// Compiles `code` + `mainBody` and returns the process stdout.
// `mainBody` runs inside main() with a Simulator named `sim` in scope.
std::string compileAndRun(const std::string& code, const std::string& mainBody) {
  const support::TempDir tmp("essent_cg_XXXXXX");
  const std::string& dir = tmp.path();
  std::string src = dir + "/sim.cpp";
  std::string bin = dir + "/sim";
  {
    std::ofstream f(src);
    f << code;
    f << "\nint main() {\n  essent_gen::Simulator sim;\n" << mainBody << "\n  return 0;\n}\n";
  }
  std::string cmd = "c++ -std=c++20 -O1 -o " + bin + " " + src + " 2>" + dir + "/cc.log";
  if (std::system(cmd.c_str()) != 0) {
    std::ifstream log(dir + "/cc.log");
    std::stringstream ss;
    ss << "<compile failed>\n" << log.rdbuf();
    return ss.str();
  }
  std::string outFile = dir + "/out.txt";
  if (std::system((bin + " > " + outFile).c_str()) != 0) return "<run failed>";
  std::ifstream out(outFile);
  std::stringstream ss;
  ss << out.rdbuf();
  return ss.str();
}

// Like compileAndRun, but over a sharded emission: writes the header and
// every unit, compiles them together with the main file, and runs.
std::string compileAndRunSharded(const codegen::ShardedCpp& sh, const std::string& mainBody) {
  const support::TempDir tmp("essent_cgs_XXXXXX");
  const std::string& dir = tmp.path();
  auto write = [&](const std::string& name, const std::string& text) {
    std::ofstream f(dir + "/" + name);
    f << text;
  };
  write(sh.headerName, sh.header);
  std::string srcs;
  for (size_t k = 0; k < sh.units.size(); k++) {
    write(sh.unitNames[k], sh.units[k]);
    srcs += " " + dir + "/" + sh.unitNames[k];
  }
  write("main.cpp", "#include \"" + sh.headerName +
                        "\"\n#include <cstdio>\nint main() {\n  essent_gen::Simulator sim;\n" +
                        mainBody + "\n  return 0;\n}\n");
  std::string bin = dir + "/sim";
  std::string cmd = "c++ -std=c++20 -O1 -o " + bin + " " + dir + "/main.cpp" + srcs + " 2>" +
                    dir + "/cc.log";
  if (std::system(cmd.c_str()) != 0) {
    std::ifstream log(dir + "/cc.log");
    std::stringstream ss;
    ss << "<compile failed>\n" << log.rdbuf();
    return ss.str();
  }
  std::string outFile = dir + "/out.txt";
  if (std::system((bin + " > " + outFile).c_str()) != 0) return "<run failed>";
  std::ifstream out(outFile);
  std::stringstream ss;
  ss << out.rdbuf();
  return ss.str();
}

// The sharded emission must behave exactly like the single-TU one in both
// modes, while actually splitting the definitions across units.
TEST(CodegenRun, ShardedMatchesSingleUnitBothModes) {
  SimIR ir = sim::buildFromFirrtl(designs::gatedBanksFirrtl(8, 16));
  CondPartSchedule sched = makeSchedule(ir);
  const std::string mainBody = R"(
  sim.reset = 0;
  sim.wdata = 3;
  for (int c = 0; c < 60; c++) {
    sim.bankSel = (unsigned)(c % 8);
    sim.eval();
  }
  std::printf("sum=%llu cycles=%llu\n", (unsigned long long)sim.sum,
              (unsigned long long)sim.cycles_);
)";
  for (bool ccss : {false, true}) {
    CodegenOptions opts;
    opts.ccss = ccss;
    std::string single = compileAndRun(emitCpp(ir, ccss ? &sched : nullptr, opts), mainBody);
    codegen::ShardedCpp sh =
        codegen::emitCppSharded(ir, ccss ? &sched : nullptr, opts, 3, "banks");
    EXPECT_EQ(sh.headerName, "banks.h");
    EXPECT_EQ(sh.units.size(), 3u) << (ccss ? "ccss" : "baseline");
    EXPECT_NE(sh.header.find("struct Simulator"), std::string::npos);
    std::string out = compileAndRunSharded(sh, mainBody);
    EXPECT_EQ(out, single) << (ccss ? "ccss" : "baseline") << " mode:\n" << out;
    EXPECT_NE(out.find("sum="), std::string::npos);
  }
}

// Shard-count clamping: more shards than work functions degrades to one
// unit per function, and 1 shard still yields the header + single unit.
TEST(CodegenRun, ShardCountClamps) {
  SimIR ir = sim::buildFromFirrtl(designs::counterFirrtl(8));
  CondPartSchedule sched = makeSchedule(ir);
  codegen::ShardedCpp many = codegen::emitCppSharded(ir, &sched, CodegenOptions{}, 64, "c");
  EXPECT_LE(many.units.size(), sched.parts.size());
  codegen::ShardedCpp one = codegen::emitCppSharded(ir, &sched, CodegenOptions{}, 1, "c");
  EXPECT_EQ(one.units.size(), 1u);
  EXPECT_EQ(one.unitNames[0], "c_0.cpp");
}

TEST(CodegenRun, CounterMatchesInterpreterBothModes) {
  SimIR ir = sim::buildFromFirrtl(designs::counterFirrtl(8));
  CondPartSchedule sched = makeSchedule(ir);

  // Interpreter reference: en toggles every 3rd cycle.
  FullCycleEngine ref(sim::CompiledDesign::compile(ir));
  ref.poke("reset", 0);
  for (int c = 0; c < 40; c++) {
    ref.poke("en", c % 3 != 0);
    ref.tick();
  }
  uint64_t expected = ref.peek("count");

  const std::string mainBody = R"(
  sim.reset = 0;
  for (int c = 0; c < 40; c++) {
    sim.en = (c % 3) != 0;
    sim.eval();
  }
  std::printf("count=%llu\n", (unsigned long long)sim.count);
)";
  for (bool ccss : {false, true}) {
    CodegenOptions opts;
    opts.ccss = ccss;
    std::string code = emitCpp(ir, ccss ? &sched : nullptr, opts);
    std::string out = compileAndRun(code, mainBody);
    EXPECT_EQ(out, strfmt("count=%llu\n", static_cast<unsigned long long>(expected)))
        << (ccss ? "ccss" : "baseline") << " mode:\n" << out;
  }
}

TEST(CodegenRun, GcdComputesInCompiledSimulator) {
  SimIR ir = sim::buildFromFirrtl(designs::gcdFirrtl(16));
  CondPartSchedule sched = makeSchedule(ir);
  std::string code = emitCpp(ir, &sched, CodegenOptions{});
  std::string out = compileAndRun(code, R"(
  sim.reset = 0;
  sim.a = 1071; sim.b = 462; sim.load = 1;
  sim.eval();
  sim.load = 0;
  sim.eval();
  for (int i = 0; i < 200 && !sim.valid; i++) sim.eval();
  std::printf("gcd=%llu cycles=%llu\n", (unsigned long long)sim.result,
              (unsigned long long)sim.cycles_);
)");
  EXPECT_TRUE(out.find("gcd=21 ") != std::string::npos) << out;
}

TEST(CodegenRun, PrintfAndStopMatchInterpreter) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit P :
  module P :
    input clock : Clock
    input reset : UInt<1>
    output q : UInt<4>
    reg r : UInt<4>, clock with : (reset => (reset, UInt<4>(0)))
    r <= tail(add(r, UInt<4>(1)), 1)
    q <= r
    printf(clock, eq(bits(r, 0, 0), UInt<1>(1)), "odd r=%d x=%x b=%b\n", r, r, r)
    stop(clock, eq(r, UInt<4>(9)), 2)
)");
  CondPartSchedule sched = makeSchedule(ir);

  FullCycleEngine ref(sim::CompiledDesign::compile(ir));
  ref.poke("reset", 0);
  while (!ref.stopped()) ref.tick();

  std::string code = emitCpp(ir, &sched, CodegenOptions{});
  std::string out = compileAndRun(code, R"(
  sim.reset = 0;
  while (!sim.stopped_) sim.eval();
)");
  EXPECT_EQ(out, ref.printOutput());
}

TEST(CodegenRun, MuxShadowOnOffIdenticalResults) {
  designs::RandomDesignConfig cfg;
  cfg.numNodes = 60;
  SimIR ir = sim::buildFromFirrtl(designs::randomDesignFirrtl(777, cfg));
  CondPartSchedule sched = makeSchedule(ir);
  std::string bodies[2];
  for (int v = 0; v < 2; v++) {
    CodegenOptions opts;
    opts.muxShadow = v == 0;
    std::string code = emitCpp(ir, &sched, opts);
    std::string body =
        "  uint64_t lcg = 777, hash = 1469598103934665603ULL;\n"
        "  auto nx = [&lcg]{ lcg = lcg*6364136223846793005ULL + 1442695040888963407ULL; "
        "return lcg >> 16; };\n"
        "  for (int c = 0; c < 50; c++) {\n";
    for (int32_t in : ir.inputs) {
      const auto& sig = ir.signals[static_cast<size_t>(in)];
      if (sig.name == "reset") body += "    sim.reset = c < 2;\n";
      else
        body += strfmt("    sim.%s = nx() & 0x%llxull;\n", memberName(ir, in).c_str(),
                       static_cast<unsigned long long>(
                           sig.width >= 64 ? ~0ull : (1ull << sig.width) - 1));
    }
    body += "    sim.eval();\n";
    for (int32_t o : ir.outputs)
      body += strfmt("    hash ^= sim.%s; hash *= 1099511628211ULL;\n",
                     memberName(ir, o).c_str());
    body += "  }\n  std::printf(\"h=%llx\\n\", (unsigned long long)hash);\n";
    bodies[v] = compileAndRun(code, body);
  }
  EXPECT_EQ(bodies[0], bodies[1]);
  EXPECT_NE(bodies[0].find("h="), std::string::npos) << bodies[0];
}

TEST(CodegenRun, AssertionsFireInCompiledSimulator) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit A :
  module A :
    input clock : Clock
    input reset : UInt<1>
    output q : UInt<4>
    reg r : UInt<4>, clock with : (reset => (reset, UInt<4>(0)))
    r <= tail(add(r, UInt<4>(1)), 1)
    q <= r
    assert(clock, lt(r, UInt<4>(5)), UInt<1>(1), "counter overflow r=%d")
)");
  CondPartSchedule sched = makeSchedule(ir);
  std::string code = emitCpp(ir, &sched, CodegenOptions{});
  EXPECT_NE(code.find("assertion failed"), std::string::npos);
  std::string out = compileAndRun(code, R"(
  sim.reset = 0;
  int cycles = 0;
  while (!sim.stopped_ && cycles++ < 100) sim.eval();
  std::printf("stopped=%d exit=%d cycles=%d\n", (int)sim.stopped_, sim.exit_code_, cycles);
)");
  EXPECT_NE(out.find("assertion failed: counter overflow"), std::string::npos) << out;
  EXPECT_NE(out.find("stopped=1 exit=65 cycles=6"), std::string::npos) << out;
}

TEST(CodegenRun, RandomDesignsMatchInterpreterHash) {
  // Drive random designs with an LCG replicated on both sides and compare a
  // running hash of all outputs after every cycle.
  for (uint64_t seed : {201ull, 202ull, 203ull}) {
    designs::RandomDesignConfig cfg;
    cfg.useWide = false;
    cfg.numNodes = 50;
    cfg.useSigned = true;
    SimIR ir = sim::buildFromFirrtl(designs::randomDesignFirrtl(seed, cfg));
    CondPartSchedule sched = makeSchedule(ir);

    // Interpreter side.
    ActivityEngine ref(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
    uint64_t lcg = seed;
    auto lcgNext = [&lcg] {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      return lcg >> 16;
    };
    uint64_t hash = 1469598103934665603ULL;
    for (int c = 0; c < 60; c++) {
      for (int32_t in : ir.inputs) {
        const auto& sig = ir.signals[static_cast<size_t>(in)];
        if (sig.name == "reset") ref.poke("reset", c < 2);
        else ref.poke(sig.name, lcgNext());
      }
      ref.tick();
      for (int32_t o : ir.outputs) {
        hash ^= ref.peekSig(o);
        hash *= 1099511628211ULL;
      }
    }

    // Compiled side: identical stimulus and hash, generated as C++.
    std::string body = strfmt("  uint64_t lcg = %lluull;\n", static_cast<unsigned long long>(seed));
    body +=
        "  auto lcgNext = [&lcg] { lcg = lcg * 6364136223846793005ULL + "
        "1442695040888963407ULL; return lcg >> 16; };\n";
    body += "  uint64_t hash = 1469598103934665603ULL;\n";
    body += "  for (int c = 0; c < 60; c++) {\n";
    for (int32_t in : ir.inputs) {
      const auto& sig = ir.signals[static_cast<size_t>(in)];
      if (sig.name == "reset")
        body += "    sim.reset = c < 2;\n";
      else
        body += strfmt("    sim.%s = lcgNext() & 0x%llxull;\n",
                       memberName(ir, in).c_str(),
                       static_cast<unsigned long long>(
                           sig.width >= 64 ? ~0ull : (1ull << sig.width) - 1));
    }
    body += "    sim.eval();\n";
    for (int32_t o : ir.outputs)
      body += strfmt("    hash ^= sim.%s; hash *= 1099511628211ULL;\n",
                     memberName(ir, o).c_str());
    body += "  }\n  std::printf(\"hash=%llx\\n\", (unsigned long long)hash);\n";

    std::string code = emitCpp(ir, &sched, CodegenOptions{});
    std::string out = compileAndRun(code, body);
    EXPECT_EQ(out, strfmt("hash=%llx\n", static_cast<unsigned long long>(hash)))
        << "seed " << seed << "\n" << out;
  }
}

}  // namespace
}  // namespace essent::codegen

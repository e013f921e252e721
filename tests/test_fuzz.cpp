// Tests for the differential fuzzer subsystem: generator determinism and
// well-formedness, stimulus round-tripping, oracle agreement on clean
// circuits (in-process and compiled), oracle sensitivity to injected
// mismatches, shrinker minimization, campaign determinism, and the
// committed corner-circuit corpus. Labeled `fuzz` in ctest.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "codegen/emitter.h"
#include "core/activity_engine.h"
#include "core/netlist.h"
#include "core/schedule.h"
#include "firrtl/printer.h"
#include "fuzz/fuzzer.h"
#include "fuzz/generator.h"
#include "fuzz/oracle.h"
#include "fuzz/shrinker.h"
#include "fuzz/stimulus.h"
#include "sim/compile.h"
#include "sim/engine_factory.h"
#include "sim/full_cycle.h"
#include "support/strutil.h"

namespace essent::fuzz {
namespace {

std::string readFile(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(f.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(Generator, Deterministic) {
  GenOptions opts;
  for (uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    EXPECT_EQ(generateCircuit(seed, opts), generateCircuit(seed, opts));
  }
  EXPECT_NE(generateCircuit(1, opts), generateCircuit(2, opts));
}

TEST(Generator, BuildsParsesAndRoundTrips) {
  for (uint64_t seed = 1; seed <= 30; seed++) {
    GenOptions opts;
    opts.allowWide = seed % 5 == 0;
    std::string text = generateCircuit(seed, opts);
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Builds into a valid SimIR...
    sim::SimIR ir;
    ASSERT_NO_THROW(ir = sim::buildFromFirrtl(text)) << text;
    EXPECT_FALSE(ir.inputs.empty());
    EXPECT_FALSE(ir.outputs.empty());
    // ...and survives a parse -> print -> parse -> print fixpoint.
    auto c1 = firrtl::parseCircuit(text);
    std::string p1 = firrtl::printCircuit(*c1);
    auto c2 = firrtl::parseCircuit(p1);
    EXPECT_EQ(p1, firrtl::printCircuit(*c2));
  }
}

TEST(Generator, WideCircuitsActuallyGoWide) {
  GenOptions opts;
  opts.allowWide = true;
  bool sawWide = false;
  for (uint64_t seed = 1; seed <= 20 && !sawWide; seed++) {
    sim::SimIR ir = sim::buildFromFirrtl(generateCircuit(seed, opts));
    for (const sim::Signal& s : ir.signals) sawWide = sawWide || s.width > 64;
  }
  EXPECT_TRUE(sawWide);
}

TEST(Stimulus, RoundTrip) {
  sim::SimIR ir = sim::buildFromFirrtl(generateCircuit(7, GenOptions{}));
  Stimulus s = randomStimulus(ir, 99, 25, 0.5);
  EXPECT_EQ(s.numCycles(), 25u);
  std::string text = s.serialize();
  Stimulus back = Stimulus::parse(text);
  EXPECT_EQ(back.inputs, s.inputs);
  EXPECT_EQ(back.widths, s.widths);
  ASSERT_EQ(back.numCycles(), s.numCycles());
  for (size_t c = 0; c < s.numCycles(); c++)
    for (size_t i = 0; i < s.inputs.size(); i++)
      EXPECT_EQ(back.cycles[c][i], s.cycles[c][i]) << "cycle " << c << " input " << i;
  EXPECT_EQ(back.serialize(), text);
}

TEST(Stimulus, HoldsResetForTwoCycles) {
  sim::SimIR ir = sim::buildFromFirrtl(generateCircuit(3, GenOptions{}));
  Stimulus s = randomStimulus(ir, 5, 10, 1.0);
  size_t resetIdx = SIZE_MAX;
  for (size_t i = 0; i < s.inputs.size(); i++)
    if (s.inputs[i] == "reset") resetIdx = i;
  ASSERT_NE(resetIdx, SIZE_MAX);
  EXPECT_EQ(s.cycles[0][resetIdx].toU64(), 1u);
  EXPECT_EQ(s.cycles[1][resetIdx].toU64(), 1u);
  for (size_t c = 2; c < 10; c++) EXPECT_EQ(s.cycles[c][resetIdx].toU64(), 0u);
}

TEST(Oracle, CleanCircuitsAgreeInProcess) {
  OracleOptions oo;
  oo.engines = {EngineKind::FullCycle, EngineKind::EventDriven, EngineKind::Ccss};
  for (uint64_t seed = 100; seed < 118; seed++) {
    GenOptions gen;
    gen.allowWide = seed % 6 == 0;
    std::string fir = generateCircuit(seed, gen);
    sim::SimIR ir = sim::buildFromFirrtl(fir);
    Stimulus stim = randomStimulus(ir, seed * 3, 50, seed % 2 ? 0.5 : 0.1);
    OracleResult r = runOracle(fir, stim, oo);
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": "
                        << (r.divergence ? r.divergence->describe() : r.buildError);
  }
}

// Heavy cone splitting: at C_max = 4 nearly every MFFC is split and most
// merges are refused, so cross-partition wakes carry the whole design. The
// ccss and lane members must still match the full-cycle reference.
TEST(Oracle, CcssAndLaneAgreeUnderTinyPartitionCap) {
  OracleOptions oo;
  oo.engines = {EngineKind::FullCycle, EngineKind::Ccss, EngineKind::Lane};
  oo.partition.maxPartitionSize = 4;
  for (uint64_t seed = 7000; seed < 7300; seed++) {
    GenOptions gen;
    gen.allowWide = seed % 7 == 0;
    std::string fir = generateCircuit(seed, gen);
    sim::SimIR ir = sim::buildFromFirrtl(fir);
    Stimulus stim = randomStimulus(ir, seed * 3, 60, seed % 2 ? 0.5 : 0.1);
    OracleResult r = runOracle(fir, stim, oo);
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": "
                        << (r.divergence ? r.divergence->describe() : r.buildError);
  }
}

TEST(Oracle, CleanCircuitsAgreeCompiled) {
  OracleOptions oo;  // all five engines, codegen included
  for (uint64_t seed : {11ull, 22ull, 33ull}) {
    std::string fir = generateCircuit(seed, GenOptions{});
    sim::SimIR ir = sim::buildFromFirrtl(fir);
    Stimulus stim = randomStimulus(ir, seed, 30, 0.5);
    OracleResult r = runOracle(fir, stim, oo);
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": "
                        << (r.divergence ? r.divergence->describe() : r.buildError);
    EXPECT_FALSE(r.codegenSkipped) << r.codegenSkipReason;
  }
}

TEST(Oracle, ReportsInjectedMismatch) {
  // Two engines over circuits that share port/node names but differ in
  // logic: the lockstep comparator must localize the first divergence.
  std::string good = R"(
circuit G :
  module G :
    input x : UInt<8>
    output o : UInt<8>
    node n = tail(add(x, UInt<8>(1)), 1)
    o <= n
)";
  std::string bad = R"(
circuit G :
  module G :
    input x : UInt<8>
    output o : UInt<8>
    node n = tail(add(x, UInt<8>(2)), 1)
    o <= n
)";
  sim::SimIR irA = sim::buildFromFirrtl(good);
  sim::SimIR irB = sim::buildFromFirrtl(bad);
  sim::FullCycleEngine a(sim::CompiledDesign::compile(irA));
  sim::FullCycleEngine b(sim::CompiledDesign::compile(irB));
  Stimulus stim;
  stim.inputs = {"x"};
  stim.widths = {8};
  stim.cycles = {{BitVec::fromU64(8, 5)}, {BitVec::fromU64(8, 9)}};
  auto d = compareLockstep({{"ref", &a}, {"mut", &b}}, stim);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->kind, Divergence::Kind::ValueMismatch);
  EXPECT_EQ(d->cycle, 0u);
  EXPECT_TRUE(d->signal == "n" || d->signal == "o") << d->signal;
  EXPECT_EQ(d->engineA, "ref");
  EXPECT_EQ(d->engineB, "mut");
  EXPECT_EQ(d->valueA, "6");
  EXPECT_EQ(d->valueB, "7");
  EXPECT_NE(d->describe().find("value mismatch"), std::string::npos);
}

TEST(Oracle, ReportsPrintMismatch) {
  std::string quiet = R"(
circuit P :
  module P :
    input clock : Clock
    input x : UInt<8>
    output o : UInt<8>
    o <= x
)";
  std::string chatty = R"(
circuit P :
  module P :
    input clock : Clock
    input x : UInt<8>
    output o : UInt<8>
    printf(clock, UInt<1>(1), "x=%d\n", x)
    o <= x
)";
  sim::SimIR irA = sim::buildFromFirrtl(quiet);
  sim::SimIR irB = sim::buildFromFirrtl(chatty);
  sim::FullCycleEngine a(sim::CompiledDesign::compile(irA));
  sim::FullCycleEngine b(sim::CompiledDesign::compile(irB));
  Stimulus stim;
  stim.inputs = {"x"};
  stim.widths = {8};
  stim.cycles = {{BitVec::fromU64(8, 3)}};
  auto d = compareLockstep({{"ref", &a}, {"mut", &b}}, stim);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->kind, Divergence::Kind::PrintMismatch);
}

// Interpreter vs. compiled simulator on division edge cases: x/0 == 0,
// x%0 == x (truncated), dshr by >= width, and INT64_MIN-style signed
// operands. The SInt<64> rem -1 case would SIGFPE in both the fast path
// and the emitted C++ before the guards (INT64_MIN % -1 is UB).
TEST(Oracle, DivRemShiftEdgeCasesAgreeWithCodegen) {
  std::string fir = R"(
circuit DivEdge :
  module DivEdge :
    input clock : Clock
    input reset : UInt<1>
    input a : UInt<8>
    input sa : SInt<63>
    input sb : SInt<64>
    output dz : UInt<8>
    output rz : UInt<8>
    output shz : UInt<8>
    output sdiv : SInt<64>
    output srem : SInt<63>
    output sremw : SInt<64>
    dz <= div(a, UInt<8>(0))
    rz <= rem(a, UInt<8>(0))
    shz <= dshr(a, UInt<4>(9))
    sdiv <= div(sa, SInt<63>(-1))
    srem <= rem(sa, SInt<63>(-1))
    sremw <= rem(sb, sb)
)";
  sim::SimIR ir = sim::buildFromFirrtl(fir);
  Stimulus stim;
  for (int32_t in : ir.inputs) {
    const sim::Signal& s = ir.signals[static_cast<size_t>(in)];
    stim.inputs.push_back(s.name);
    stim.widths.push_back(s.width);
  }
  auto row = [&](uint64_t reset, uint64_t a, int64_t sa, int64_t sb) {
    std::vector<BitVec> r;
    for (size_t i = 0; i < stim.inputs.size(); i++) {
      const std::string& n = stim.inputs[i];
      if (n == "reset") r.push_back(BitVec::fromU64(1, reset));
      else if (n == "a") r.push_back(BitVec::fromU64(8, a));
      else if (n == "sa") r.push_back(BitVec::fromI64(63, sa));
      else r.push_back(BitVec::fromI64(64, sb));
    }
    return r;
  };
  stim.cycles.push_back(row(1, 0, 0, 0));
  stim.cycles.push_back(row(0, 255, -1, -1));
  // sa = INT63_MIN so div widens cleanly; sb = INT64_MIN % itself.
  stim.cycles.push_back(row(0, 128, -(1ll << 62), INT64_MIN));
  stim.cycles.push_back(row(0, 7, (1ll << 62) - 1, INT64_MIN));

  OracleResult r = runOracle(fir, stim, OracleOptions{});
  EXPECT_TRUE(r.ok()) << (r.divergence ? r.divergence->describe() : r.buildError);
  EXPECT_FALSE(r.codegenSkipped) << r.codegenSkipReason;

  // Pin the reference semantics directly.
  sim::FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.poke("a", 200);
  eng.pokeBV("sa", BitVec::fromI64(63, -(1ll << 62)));
  eng.pokeBV("sb", BitVec::fromI64(64, INT64_MIN));
  eng.tick();
  EXPECT_EQ(eng.peek("dz"), 0u);    // x / 0 == 0
  EXPECT_EQ(eng.peek("rz"), 200u);  // x % 0 == x
  EXPECT_EQ(eng.peek("shz"), 0u);   // dshr past the width
  EXPECT_EQ(eng.peekBV("srem").toU64(), 0u);   // INT63_MIN rem -1 == 0
  EXPECT_EQ(eng.peekBV("sremw").toU64(), 0u);  // INT64_MIN rem INT64_MIN == 0
}

// The fast-path signed remainder with a 64-bit result: INT64_MIN % -1 hits
// native hardware division; without the divisor guard this traps (SIGFPE).
TEST(Oracle, SignedRem64MinByMinusOne) {
  std::string fir = R"(
circuit R :
  module R :
    input a : SInt<64>
    input b : SInt<64>
    output o : SInt<64>
    o <= rem(a, b)
)";
  sim::SimIR ir = sim::buildFromFirrtl(fir);
  Stimulus stim;
  stim.inputs = {"a", "b"};
  stim.widths = {64, 64};
  stim.cycles = {{BitVec::fromI64(64, INT64_MIN), BitVec::fromI64(64, -1)},
                 {BitVec::fromI64(64, INT64_MIN), BitVec::fromI64(64, 3)},
                 {BitVec::fromI64(64, 77), BitVec::fromI64(64, 0)}};
  OracleResult r = runOracle(fir, stim, OracleOptions{});
  EXPECT_TRUE(r.ok()) << (r.divergence ? r.divergence->describe() : r.buildError);

  sim::FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.pokeBV("a", BitVec::fromI64(64, INT64_MIN));
  eng.pokeBV("b", BitVec::fromI64(64, -1));
  eng.tick();
  EXPECT_EQ(eng.peekBV("o").toU64(), 0u);  // mathematical remainder is 0
  eng.pokeBV("b", BitVec::fromI64(64, 3));
  eng.tick();
  EXPECT_EQ(eng.peekBV("o").toI64(), -2);  // sign follows the dividend
}

TEST(Shrinker, MinimizesSyntheticFailure) {
  // Build a bulky circuit whose "failure" is just containing a marker node
  // with at least 3 stimulus cycles; the shrinker should strip the rest.
  std::string fir = generateCircuit(17, GenOptions{});
  fir += "    node keepme = not(reset)\n";
  sim::SimIR ir = sim::buildFromFirrtl(fir);
  Stimulus stim = randomStimulus(ir, 17, 40, 0.5);
  FailPredicate pred = [](const std::string& f, const Stimulus& s) {
    return f.find("node keepme") != std::string::npos && s.numCycles() >= 3;
  };
  ShrinkResult r = shrinkCase(fir, stim, pred, ShrinkOptions{});
  EXPECT_TRUE(pred(r.fir, r.stim));  // the result itself still fails
  EXPECT_LT(r.fir.size(), fir.size() / 2);
  EXPECT_EQ(r.stim.numCycles(), 3u);
  EXPECT_GT(r.attempts, 0u);
}

TEST(Shrinker, RealDivergenceShrinks) {
  // Inject a semantic predicate: "the circuit's o differs from reference
  // add-by-1 behaviour" is hard to fake, so instead shrink against a
  // predicate that requires the mux-deep structure to survive building.
  std::string fir = readFile(std::string(FUZZ_CORPUS_DIR) + "/corner_mux_deep.fir");
  Stimulus stim = Stimulus::parse(
      readFile(std::string(FUZZ_CORPUS_DIR) + "/corner_mux_deep.stim"));
  FailPredicate pred = [](const std::string& f, const Stimulus& s) {
    // Keep only candidates that still build and still contain m11.
    if (f.find("m11") == std::string::npos || s.numCycles() < 1) return false;
    try {
      sim::buildFromFirrtl(f);
      return true;
    } catch (...) {
      return false;
    }
  };
  ShrinkResult r = shrinkCase(fir, stim, pred, ShrinkOptions{});
  EXPECT_TRUE(pred(r.fir, r.stim));
  EXPECT_LE(r.stim.numCycles(), 1u);
  EXPECT_LE(r.fir.size(), fir.size());
}

TEST(Campaign, Deterministic) {
  FuzzConfig cfg;
  cfg.seed = 321;
  cfg.budget = 25;
  cfg.cycles = 25;
  cfg.engines = {EngineKind::FullCycle, EngineKind::EventDriven,
                 EngineKind::Ccss};  // no codegen: keep the test fast
  cfg.shrinkFailures = false;
  FuzzSummary a = runFuzzCampaign(cfg, nullptr);
  FuzzSummary b = runFuzzCampaign(cfg, nullptr);
  EXPECT_EQ(a.cases, 25u);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.failures, 0u) << "seed range 321/25 must stay clean";
  // Case seeds are index-addressable (the --replay contract).
  EXPECT_EQ(caseSeedFor(321, 0), caseSeedFor(321, 0));
  EXPECT_NE(caseSeedFor(321, 0), caseSeedFor(321, 1));
  EXPECT_NE(caseSeedFor(321, 0), caseSeedFor(322, 0));
}

TEST(Campaign, ReplaySingleCaseMatchesCampaignVerdict) {
  FuzzConfig cfg;
  cfg.seed = 4242;
  cfg.budget = 1;
  cfg.engines = {EngineKind::FullCycle, EngineKind::Ccss};
  cfg.shrinkFailures = false;
  FuzzSummary sum = runFuzzCampaign(cfg, nullptr);
  CaseResult cr = runFuzzCase(caseSeedFor(4242, 0), cfg, nullptr);
  EXPECT_EQ(sum.failures != 0, cr.failed());
}

TEST(Corpus, CornerCircuitsAgreeAcrossAllEngines) {
  for (const char* name : {"corner_zero_width", "corner_mux_deep", "corner_mem_rw"}) {
    SCOPED_TRACE(name);
    std::string fir = readFile(std::string(FUZZ_CORPUS_DIR) + "/" + name + ".fir");
    Stimulus stim =
        Stimulus::parse(readFile(std::string(FUZZ_CORPUS_DIR) + "/" + name + ".stim"));
    FuzzConfig cfg;  // all five engines
    CaseResult cr = replayCase(fir, stim, cfg, nullptr);
    EXPECT_FALSE(cr.failed())
        << (cr.divergence ? cr.divergence->describe() : cr.buildError);
  }
}

// Registers whose next value is another register's current value, with no
// reset mux in between: a four-deep shift chain r0 -> r3 and a swap pair in
// which b <= a directly (a has a reset). Every engine must commit the old
// values, whatever order the registers are declared or committed in.
const char* kAliasChain = R"(
circuit Alias :
  module Alias :
    input clock : Clock
    input reset : UInt<1>
    input in : UInt<8>
    output out : UInt<8>
    output sw : UInt<8>
    reg r0 : UInt<8>, clock
    reg r1 : UInt<8>, clock
    reg r2 : UInt<8>, clock
    reg r3 : UInt<8>, clock
    reg a : UInt<8>, clock with : (reset => (reset, UInt<8>(1)))
    reg b : UInt<8>, clock
    r0 <= in
    r1 <= r0
    r2 <= r1
    r3 <= r2
    a <= b
    b <= a
    out <= r3
    sw <= b
)";

// Cycle c drives reset = (c == 0) and in = c + 1.
Stimulus aliasChainStimulus(size_t cycles) {
  Stimulus st;
  st.inputs = {"reset", "in"};
  st.widths = {1, 8};
  for (size_t c = 0; c < cycles; c++)
    st.cycles.push_back({BitVec::fromU64(1, c == 0), BitVec::fromU64(8, c + 1)});
  return st;
}

TEST(RegisterAliases, ChainCommitsOldValuesOnEveryEngine) {
  auto design = sim::compileDesign(kAliasChain);
  const size_t cycles = 12;
  Stimulus stim = aliasChainStimulus(cycles);
  core::PartitionOptions tiny;
  tiny.maxPartitionSize = 4;
  sim::EngineOptions lanes;
  lanes.lanes = 8;
  std::vector<std::unique_ptr<sim::Engine>> engines;
  engines.push_back(sim::makeEngine(EngineKind::FullCycle, design));
  engines.push_back(sim::makeEngine(EngineKind::EventDriven, design));
  engines.push_back(sim::makeEngine(EngineKind::Ccss, design));
  engines.push_back(sim::makeEngine(EngineKind::Lane, design, lanes));
  engines.push_back(std::make_unique<core::ActivityEngine>(
      core::CompiledCcss::get(design, core::ScheduleOptions{tiny, true})));
  for (auto& eng : engines) {
    SCOPED_TRACE(eng->name());
    for (size_t c = 0; c < cycles; c++) {
      stim.apply(*eng, c);
      eng->tick();
      // After cycle c, r_k holds the input of cycle c - k; out shows r3's
      // value before the update. a and b swap every cycle after reset.
      auto inAt = [c](size_t k) -> uint64_t { return c >= k ? c - k + 1 : 0; };
      EXPECT_EQ(eng->peek("r1"), inAt(1)) << "cycle " << c;
      EXPECT_EQ(eng->peek("r3"), inAt(3)) << "cycle " << c;
      EXPECT_EQ(eng->peek("out"), inAt(4)) << "cycle " << c;
      EXPECT_EQ(eng->peek("a"), c % 2 == 0 ? 1u : 0u) << "cycle " << c;
      EXPECT_EQ(eng->peek("b"), c % 2 == 0 ? 0u : 1u) << "cycle " << c;
    }
  }
  // The compiled simulator, both at the default cap and at C_max = 4,
  // against the (hand-checked) full-cycle reference.
  for (uint32_t cmax : {core::PartitionOptions{}.maxPartitionSize, 4u}) {
    OracleOptions oo;
    oo.partition.maxPartitionSize = cmax;
    OracleResult r = runOracle(kAliasChain, stim, oo);
    EXPECT_TRUE(r.ok()) << "C_max " << cmax << ": "
                        << (r.divergence ? r.divergence->describe() : r.buildError);
    EXPECT_FALSE(r.codegenSkipped) << r.codegenSkipReason;
  }
}

TEST(RegisterAliases, SealingCopiesOnlyAliasedRegisters) {
  // One copy per aliased source register (r0, r1, r2, a); b's next is a.
  sim::SimIR raw = sim::buildFromFirrtl(kAliasChain);
  auto design = sim::CompiledDesign::compile(raw);
  EXPECT_EQ(design->ir.ops.size(), raw.ops.size() + 4);
  for (const sim::RegInfo& r : design->ir.regs)
    EXPECT_NE(design->ir.signals[static_cast<size_t>(r.next)].kind, sim::SigKind::Register);
  design->ir.validate();
  // A design whose registers all have reset muxes is left untouched.
  sim::SimIR counter = sim::buildFromFirrtl(R"(
circuit C :
  module C :
    input clock : Clock
    input reset : UInt<1>
    output q : UInt<8>
    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))
    reg s : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))
    r <= tail(add(r, UInt<8>(1)), 1)
    s <= r
    q <= s
)");
  sim::SimIR sealed = counter;
  EXPECT_EQ(sim::isolateRegisterAliases(sealed), 0u);
  EXPECT_EQ(sealed.ops.size(), counter.ops.size());
}

// The fuzz case that exposed the commit-order bug: r3 <= r0 with no reset,
// split across partitions by C_max = 4 (full-cycle and CCSS disagreed at
// cycle 10 before registers were isolated at seal time).
TEST(RegisterAliases, PinnedFuzzCaseAgreesUnderTinyPartitionCap) {
  FuzzConfig gen;  // derive the case's circuit and stimulus only
  gen.engines = {EngineKind::FullCycle};
  gen.cycles = 60;
  CaseResult cr = runFuzzCase(17335489403772164939ull, gen, nullptr);
  ASSERT_TRUE(cr.buildError.empty()) << cr.buildError;
  OracleOptions oo;  // all five engines
  oo.partition.maxPartitionSize = 4;
  OracleResult r = runOracle(cr.fir, cr.stim, oo);
  EXPECT_TRUE(r.ok()) << (r.divergence ? r.divergence->describe() : r.buildError);
}

// Wide fan-out in the compiled simulator: one combinational signal, one
// register and one input each feed 100 ops, and C_max = 1 puts every op in
// its own partition, so all three kinds of consumer list exceed the inline
// limit and are emitted as loops over static index tables.
TEST(Oracle, CodegenWakeTablesMatchInterpreter) {
  std::string fir =
      "circuit Fan :\n  module Fan :\n    input clock : Clock\n    input reset : UInt<1>\n"
      "    input x : UInt<8>\n    input y : UInt<8>\n";
  std::string body =
      "    reg r : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))\n"
      "    r <= tail(add(r, y), 1)\n    node t = xor(x, y)\n";
  for (int i = 0; i < 100; i++) {
    fir += strfmt("    output o%d : UInt<8>\n", i);
    body += strfmt("    o%d <= xor(xor(t, UInt<8>(%d)), and(r, or(x, UInt<8>(%d))))\n", i, i, i);
  }
  fir += body;
  sim::SimIR ir = sim::buildFromFirrtl(fir);
  core::ScheduleOptions tiny;
  tiny.partition.maxPartitionSize = 1;
  core::CondPartSchedule sched = core::buildSchedule(core::Netlist::build(ir), tiny);
  std::string code = codegen::emitCpp(ir, &sched, codegen::CodegenOptions{});
  size_t tables = 0;
  for (size_t at = code.find("kWake_[] ="); at != std::string::npos;
       at = code.find("kWake_[] =", at + 1))
    tables++;
  EXPECT_GE(tables, 3u);
  OracleOptions oo;
  oo.partition = tiny.partition;
  Stimulus stim = randomStimulus(ir, 5, 40, 0.3);
  OracleResult r = runOracle(fir, stim, oo);
  EXPECT_TRUE(r.ok()) << (r.divergence ? r.divergence->describe() : r.buildError);
  EXPECT_FALSE(r.codegenSkipped) << r.codegenSkipReason;
}

}  // namespace
}  // namespace essent::fuzz

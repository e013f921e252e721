// Focused unit tests for the CCSS activity engine: skipping behaviour,
// trigger chains, the deferred (non-elided) state-update path, overhead
// counters, and side-effect semantics under partition sleep.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "core/activity_engine.h"
#include "designs/blocks.h"
#include "designs/gcd.h"
#include "designs/systolic.h"
#include "sim/compile.h"
#include "sim/full_cycle.h"
#include "sim/harness.h"

namespace essent::core {
namespace {

using sim::FullCycleEngine;
using sim::SimIR;

TEST(ActivityEngine, IdleDesignCostsNoOps) {
  SimIR ir = sim::buildFromFirrtl(designs::gatedBanksFirrtl(8, 16));
  ActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  eng.poke("reset", 0);
  eng.poke("bankSel", 999);  // selects nothing
  eng.tick();                // first cycle evaluates everything
  uint64_t after1 = eng.stats().opsEvaluated;
  EXPECT_GT(after1, 0u);
  for (int i = 0; i < 50; i++) eng.tick();
  // Fully idle: zero additional op evaluations, but the static overhead
  // (activity checks) still accrues per cycle.
  EXPECT_EQ(eng.stats().opsEvaluated, after1);
  EXPECT_EQ(eng.stats().partitionChecks, 51 * eng.schedule().numPartitions());
  EXPECT_EQ(eng.stats().cycles, 51u);
}

TEST(ActivityEngine, InputChangeWakesOnlyItsCone) {
  SimIR ir = sim::buildFromFirrtl(designs::gatedBanksFirrtl(16, 16));
  ActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  eng.poke("reset", 0);
  eng.poke("bankSel", 999);
  eng.tick();
  uint64_t base = eng.stats().opsEvaluated;
  // Touch one bank: only its partition chain (decode + bank + sum tree)
  // may evaluate, which is far less than the whole design.
  eng.poke("bankSel", 3);
  eng.poke("wdata", 42);
  eng.tick();
  uint64_t woke = eng.stats().opsEvaluated - base;
  EXPECT_GT(woke, 0u);
  EXPECT_LT(woke, ir.ops.size());
}

TEST(ActivityEngine, SelfFeedingRegisterStaysAwake) {
  // A free-running counter must keep its own partition awake forever via
  // the register's self-wakeup (the paper's feedback case).
  SimIR ir = sim::buildFromFirrtl(R"(
circuit C :
  module C :
    input clock : Clock
    output q : UInt<16>
    reg r : UInt<16>, clock
    r <= tail(add(r, UInt<16>(1)), 1)
    q <= r
)");
  ActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  for (int i = 0; i < 100; i++) eng.tick();
  EXPECT_EQ(eng.peek("r"), 100u);
  EXPECT_EQ(eng.peek("q"), 99u);  // output reflects pre-update value
}

TEST(ActivityEngine, StableRegisterGoesToSleep) {
  // A register that saturates stops changing; its partition must sleep.
  SimIR ir = sim::buildFromFirrtl(R"(
circuit S :
  module S :
    input clock : Clock
    output q : UInt<4>
    reg r : UInt<4>, clock
    r <= mux(eq(r, UInt<4>(9)), r, tail(add(r, UInt<4>(1)), 1))
    q <= r
)");
  ActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  for (int i = 0; i < 12; i++) eng.tick();
  EXPECT_EQ(eng.peek("r"), 9u);
  uint64_t ops = eng.stats().opsEvaluated;
  for (int i = 0; i < 50; i++) eng.tick();
  EXPECT_EQ(eng.peek("r"), 9u);
  EXPECT_EQ(eng.stats().opsEvaluated, ops);  // asleep once stable
}

TEST(ActivityEngine, DeferredRegisterPathIsCorrect) {
  // Hand-build a partitioning that makes elision illegal: the writer
  // partition also produces a combinational value consumed by a reader
  // partition (path writer -> reader), so the register must fall back to
  // the global phase-2 update.
  sim::BuildOptions raw;
  raw.constProp = raw.cse = raw.dce = false;
  SimIR ir = sim::buildFromFirrtl(R"(
circuit D :
  module D :
    input clock : Clock
    input in : UInt<8>
    output o : UInt<8>
    reg r : UInt<8>, clock
    node nxt = tail(add(r, in), 1)
    r <= nxt
    o <= xor(nxt, r)
)",
                                  raw);
  Netlist nl = Netlist::build(ir);

  // Partition 0: everything except the cone of output o; partition 1: o's
  // cone (xor + output copy). The nxt ops live with the register write.
  int32_t oSig = ir.findSignal("o");
  ASSERT_GE(oSig, 0);
  std::vector<int32_t> partOf(nl.nodes.size(), 0);
  // Mark o's defining op and its xor argument chain as partition 1.
  std::vector<int32_t> stack = {ir.signals[static_cast<size_t>(oSig)].defOp};
  std::vector<bool> inCone(ir.ops.size(), false);
  while (!stack.empty()) {
    int32_t opIdx = stack.back();
    stack.pop_back();
    if (opIdx < 0 || inCone[static_cast<size_t>(opIdx)]) continue;
    inCone[static_cast<size_t>(opIdx)] = true;
    const sim::Op& op = ir.ops[static_cast<size_t>(opIdx)];
    int n = op.numArgs();
    for (int k = 0; k < n; k++) {
      int32_t def = ir.signals[op.args[k]].defOp;
      // Stop at nxt (it belongs to the writer partition).
      if (def >= 0 && ir.signals[ir.ops[static_cast<size_t>(def)].dest].name != "nxt")
        stack.push_back(def);
    }
  }
  for (size_t i = 0; i < ir.ops.size(); i++)
    if (inCone[i]) partOf[static_cast<size_t>(nl.nodeOfOp[i])] = 1;

  Partitioning p;
  p.partOf = partOf;
  p.members.resize(2);
  for (size_t n = 0; n < partOf.size(); n++) p.members[static_cast<size_t>(partOf[n])].push_back(static_cast<int32_t>(n));
  p.partGraph = graph::condense(nl.g, p.partOf, 2);
  ASSERT_TRUE(p.partGraph.isAcyclic());
  p.schedule = *p.partGraph.topoSort();

  CondPartSchedule sched = buildScheduleFrom(nl, p, true);
  // The register cannot be elided: its write partition feeds the reader.
  EXPECT_EQ(sched.deferredRegs.size(), 1u);
  EXPECT_EQ(sched.elidedRegs, 0u);

  ActivityEngine act(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), sched));
  FullCycleEngine ref(sim::CompiledDesign::compile(ir));
  auto mismatch = sim::compareEngines(ref, act, 60, [](sim::Engine& e, uint64_t c) {
    e.poke("in", (c * 7 + 3) & 0xff);
  });
  EXPECT_FALSE(mismatch.has_value()) << mismatch->describe();
}

TEST(ActivityEngine, PrintfFiresEveryCycleWhileEnabled) {
  // The enable is a constant 1: even though no partition is active after
  // the first cycle, the printf must fire every cycle (global side-effect
  // check over stale-but-correct values).
  SimIR ir = sim::buildFromFirrtl(R"(
circuit P :
  module P :
    input clock : Clock
    input v : UInt<4>
    printf(clock, UInt<1>(1), "%d.", v)
)");
  ActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  eng.poke("v", 7);
  for (int i = 0; i < 4; i++) eng.tick();
  EXPECT_EQ(eng.printOutput(), "7.7.7.7.");
}

TEST(ActivityEngine, CountersDecomposeSanely) {
  SimIR ir = sim::buildFromFirrtl(designs::aluArrayFirrtl(16, 16));
  ActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  eng.poke("reset", 0);
  for (int c = 0; c < 30; c++) {
    eng.poke("opa", static_cast<uint64_t>(c));
    eng.poke("opb", static_cast<uint64_t>(c * 3));
    eng.poke("sel", static_cast<uint64_t>(c % 8));
    eng.tick();
  }
  const auto& st = eng.stats();
  EXPECT_EQ(st.cycles, 30u);
  EXPECT_EQ(st.partitionChecks, 30 * eng.schedule().numPartitions());
  EXPECT_LE(st.partitionActivations, st.partitionChecks);
  EXPECT_GT(st.opsEvaluated, 0u);
  EXPECT_LE(st.opsEvaluated, ir.ops.size() * 30);
  EXPECT_GT(st.outputComparisons, 0u);
  EXPECT_GE(eng.effectiveActivity(), 0.0);
  EXPECT_LE(eng.effectiveActivity(), 1.0);
}

TEST(ActivityEngine, ResetStateRestartsCleanly) {
  SimIR ir = sim::buildFromFirrtl(designs::counterFirrtl(8));
  ActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  eng.poke("reset", 0);
  eng.poke("en", 1);
  for (int i = 0; i < 7; i++) eng.tick();
  EXPECT_EQ(eng.peek("r"), 7u);
  eng.resetState();
  EXPECT_EQ(eng.peek("r"), 0u);
  EXPECT_EQ(eng.cycleCount(), 0u);
  // Must behave exactly like a fresh engine.
  eng.poke("reset", 0);
  eng.poke("en", 1);
  for (int i = 0; i < 5; i++) eng.tick();
  EXPECT_EQ(eng.peek("r"), 5u);
}

TEST(ActivityEngine, MemoryWriteWakesReaders) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit M :
  module M :
    input clock : Clock
    input wen : UInt<1>
    input waddr : UInt<3>
    input wdata : UInt<8>
    input raddr : UInt<3>
    output rdata : UInt<8>
    mem t :
      data-type => UInt<8>
      depth => 8
      read-latency => 0
      write-latency => 1
      reader => r
      writer => w
    t.r.addr <= raddr
    t.r.en <= UInt<1>(1)
    t.r.clk <= clock
    t.w.addr <= waddr
    t.w.en <= wen
    t.w.clk <= clock
    t.w.data <= wdata
    t.w.mask <= UInt<1>(1)
    rdata <= t.r.data
)");
  ActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  eng.poke("wen", 1);
  eng.poke("waddr", 2);
  eng.poke("wdata", 0xab);
  eng.poke("raddr", 2);
  eng.tick();
  eng.poke("wen", 0);
  eng.tick();  // the committed write must wake the read partition
  EXPECT_EQ(eng.peek("rdata"), 0xabu);
  // Steady state: nothing changes, reads go back to sleep.
  uint64_t ops = eng.stats().opsEvaluated;
  for (int i = 0; i < 20; i++) eng.tick();
  EXPECT_EQ(eng.stats().opsEvaluated, ops);
  EXPECT_EQ(eng.peek("rdata"), 0xabu);
}

TEST(ActivityEngine, FineAndMonolithicDegenerateSchedulesWork) {
  SimIR ir = sim::buildFromFirrtl(designs::gcdFirrtl(16));
  Netlist nl = Netlist::build(ir);
  for (auto mk : {&finePartitioning, &monolithicPartitioning}) {
    Partitioning p = mk(nl);
    CondPartSchedule sched = buildScheduleFrom(nl, p, true);
    ActivityEngine act(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), sched));
    FullCycleEngine ref(sim::CompiledDesign::compile(ir));
    auto mismatch = sim::compareEngines(ref, act, 80, [](sim::Engine& e, uint64_t c) {
      e.poke("reset", 0);
      e.poke("a", 1071);
      e.poke("b", 462);
      e.poke("load", c == 0);
    });
    EXPECT_FALSE(mismatch.has_value())
        << "parts=" << p.numPartitions() << ": " << mismatch->describe();
  }
}


// --- The word-scanned active set ---------------------------------------------
//
// The activity flags are bits in 64-bit words; these tests pin the scan's
// edge cases: partition counts that leave a partial last word, wakes that
// cross a word boundary, wakes of earlier bits in the word being swept, and
// re-activation by resetState / restoreState.

sim::BuildOptions unoptimized() {
  sim::BuildOptions raw;
  raw.constProp = raw.cse = raw.dce = false;
  return raw;
}

// `stages` increment stages in one combinational chain from input a to
// output o. Unoptimized and finely partitioned, every op is a partition,
// and each stage wakes the next one in schedule order.
std::string chainFirrtl(int stages) {
  std::string s = "circuit Chain :\n  module Chain :\n    input clock : Clock\n"
                  "    input a : UInt<8>\n    output o : UInt<8>\n";
  std::string prev = "a";
  for (int i = 0; i < stages; i++) {
    std::string name = "n" + std::to_string(i);
    s += "    node " + name + " = tail(add(" + prev + ", UInt<8>(1)), 1)\n";
    prev = name;
  }
  s += "    o <= " + prev + "\n";
  return s;
}

// `n` free-running counters with distinct strides, each visible on an
// output. Each counter's partition wakes itself through its elided
// register.
std::string countersFirrtl(int n) {
  std::string s = "circuit Counters :\n  module Counters :\n    input clock : Clock\n";
  for (int i = 0; i < n; i++) s += "    output q" + std::to_string(i) + " : UInt<8>\n";
  for (int i = 0; i < n; i++) {
    std::string r = "r" + std::to_string(i);
    s += "    reg " + r + " : UInt<8>, clock\n";
    s += "    " + r + " <= tail(add(" + r + ", UInt<8>(" + std::to_string(i % 7 + 1) + ")), 1)\n";
    s += "    q" + std::to_string(i) + " <= " + r + "\n";
  }
  return s;
}

std::unique_ptr<ActivityEngine> fineEngine(const SimIR& ir) {
  Netlist nl = Netlist::build(ir);
  CondPartSchedule sched = buildScheduleFrom(nl, finePartitioning(nl), true);
  return std::make_unique<ActivityEngine>(
      core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), std::move(sched)));
}

// True when partition `pos` directly wakes `target` through an output or an
// elided state write.
bool wakesDirectly(const CondPartSchedule& sched, size_t pos, int32_t target) {
  const CondPart& part = sched.parts[pos];
  auto has = [target](const std::vector<int32_t>& v) {
    return std::find(v.begin(), v.end(), target) != v.end();
  };
  for (const auto& o : part.outputs)
    if (has(o.consumers)) return true;
  for (const auto& rw : part.regWrites)
    if (has(rw.wakeParts)) return true;
  return false;
}

// Partitions some wake list can reach (constant-only partitions never wake
// again after the first cycle).
size_t wakeablePartitions(const CondPartSchedule& sched) {
  std::vector<bool> hit(sched.numPartitions(), false);
  auto mark = [&hit](const std::vector<int32_t>& v) {
    for (int32_t p : v) hit[static_cast<size_t>(p)] = true;
  };
  for (const auto& ic : sched.inputConsumers) mark(ic);
  for (const auto& rw : sched.deferredRegs) mark(rw.wakeParts);
  for (const auto& part : sched.parts) {
    for (const auto& o : part.outputs) mark(o.consumers);
    for (const auto& rw : part.regWrites) mark(rw.wakeParts);
  }
  return static_cast<size_t>(std::count(hit.begin(), hit.end(), true));
}

TEST(ActivityEngineScan, WakeFromBit63ReachesNextWordSameCycle) {
  const int stages = 100;
  SimIR ir = sim::buildFromFirrtl(chainFirrtl(stages), unoptimized());
  auto eng = fineEngine(ir);
  const size_t parts = eng->schedule().numPartitions();
  ASSERT_GT(parts, 128u);
  ASSERT_NE(parts % 64, 0u) << "want a partial last word";
  // Every word boundary is crossed by a direct wake in this chain.
  for (size_t pos = 63; pos + 1 < parts; pos += 64)
    ASSERT_TRUE(wakesDirectly(eng->schedule(), pos, static_cast<int32_t>(pos + 1)))
        << "partition " << pos << " does not wake " << pos + 1;

  const size_t woken = wakeablePartitions(eng->schedule());
  ASSERT_GT(woken, 128u);

  eng->poke("a", 0);
  eng->tick();
  EXPECT_EQ(eng->stats().partitionActivations, parts);
  EXPECT_EQ(eng->peek("o"), static_cast<uint64_t>(stages % 256));
  // One input change ripples through all words within the same cycle.
  eng->poke("a", 5);
  eng->tick();
  EXPECT_EQ(eng->stats().partitionActivations, parts + woken);
  EXPECT_EQ(eng->peek("o"), static_cast<uint64_t>((5 + stages) % 256));
  eng->tick();  // nothing changed: nothing runs
  EXPECT_EQ(eng->stats().partitionActivations, parts + woken);
  EXPECT_EQ(eng->stats().partitionChecks, 3 * parts);
}

TEST(ActivityEngineScan, WakeOfEarlierPartitionInWordWaitsForNextCycle) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit Cnt :
  module Cnt :
    input clock : Clock
    output q : UInt<8>
    reg r : UInt<8>, clock
    r <= tail(add(r, UInt<8>(1)), 1)
    q <= r
)",
                                  unoptimized());
  auto eng = fineEngine(ir);
  const CondPartSchedule& sched = eng->schedule();
  const size_t parts = sched.numPartitions();
  ASSERT_LT(parts, 64u);
  // The register write sits after its readers and wakes them backwards.
  ASSERT_EQ(sched.elidedRegs, 1u);
  bool backwardWake = false;
  for (size_t pos = 0; pos < parts; pos++)
    for (const auto& rw : sched.parts[pos].regWrites)
      for (int32_t reader : rw.wakeParts) backwardWake |= static_cast<size_t>(reader) < pos;
  ASSERT_TRUE(backwardWake);

  // After the first cycle every wakeable partition runs exactly once per
  // cycle: a backward wake re-running a reader this cycle would
  // double-count and advance r twice.
  const size_t woken = wakeablePartitions(sched);
  eng->tick();
  for (uint64_t c = 2; c <= 50; c++) {
    eng->tick();
    ASSERT_EQ(eng->stats().partitionActivations, parts + (c - 1) * woken) << "cycle " << c;
    ASSERT_EQ(eng->peek("r"), c);
  }
}

TEST(ActivityEngineScan, SelfWakingPartitionsAcrossWords) {
  SimIR ir = sim::buildFromFirrtl(countersFirrtl(100));
  // No sibling merges (C_p = 0): each counter keeps its own partition.
  ScheduleOptions so;
  so.partition.smallThreshold = 0;
  ActivityEngine eng(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), so));
  const CondPartSchedule& sched = eng.schedule();
  const size_t parts = sched.numPartitions();
  ASSERT_GT(parts, 128u);
  ASSERT_NE(parts % 64, 0u);
  // Partitions that wake themselves through their elided register sit in
  // every word.
  std::vector<bool> wordHasSelfWake((parts + 63) / 64, false);
  for (size_t pos = 0; pos < parts; pos++)
    if (wakesDirectly(sched, pos, static_cast<int32_t>(pos))) wordHasSelfWake[pos / 64] = true;
  for (size_t w = 0; w < wordHasSelfWake.size(); w++)
    ASSERT_TRUE(wordHasSelfWake[w]) << "word " << w;

  FullCycleEngine ref(sim::CompiledDesign::compile(ir));
  auto mismatch = sim::compareEngines(ref, eng, 40);
  EXPECT_FALSE(mismatch.has_value()) << mismatch->describe();
  // Every counter changes every cycle, so every wakeable partition runs
  // exactly once per cycle after the first — never twice, never skipped.
  EXPECT_EQ(eng.stats().partitionActivations, parts + 39 * wakeablePartitions(sched));
  EXPECT_EQ(eng.stats().partitionChecks, 40 * parts);
}

TEST(ActivityEngineScan, ResetAndRestoreReactivateExactlyEveryPartition) {
  SimIR ir = sim::buildFromFirrtl(chainFirrtl(100), unoptimized());
  auto eng = fineEngine(ir);
  const size_t parts = eng->schedule().numPartitions();
  ASSERT_NE(parts % 64, 0u);
  eng->poke("a", 9);
  for (int i = 0; i < 3; i++) eng->tick();
  EXPECT_EQ(eng->stats().partitionActivations, parts);  // idle after cycle 1
  sim::Engine::Snapshot snap = eng->saveState();

  // resetState: all partitions (and no tail bit past the last) run once.
  eng->resetState();
  eng->poke("a", 9);
  eng->tick();
  EXPECT_EQ(eng->stats().partitionActivations, parts);
  eng->tick();
  EXPECT_EQ(eng->stats().partitionActivations, parts);

  // restoreState clobbers state behind the engine's back: same rule.
  eng->restoreState(snap);
  eng->tick();
  EXPECT_EQ(eng->stats().partitionActivations, 2 * parts);
  EXPECT_EQ(eng->peek("o"), static_cast<uint64_t>((9 + 100) % 256));
}

TEST(ActivityEngineScan, MatchesFullCycleOnManyPartitions) {
  designs::SystolicConfig cfg;
  cfg.rows = cfg.cols = 8;
  SimIR ir = sim::buildFromFirrtl(designs::systolicFirrtl(cfg));
  ActivityEngine act(
      core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  ASSERT_GT(act.schedule().numPartitions(), 128u);
  FullCycleEngine ref(sim::CompiledDesign::compile(ir));
  const uint64_t cycles = 300;
  // Input i changes on one cycle in (i % 5 + 1), so activity stays partial.
  auto mismatch = sim::compareEngines(ref, act, cycles, [](sim::Engine& e, uint64_t c) {
    const SimIR& ir = e.ir();
    for (size_t i = 0; i < ir.inputs.size(); i++) {
      const std::string& name = ir.signals[static_cast<size_t>(ir.inputs[i])].name;
      if (name == "reset") {
        e.poke(name, c < 2);
        continue;
      }
      uint64_t epoch = c / (i % 5 + 1);
      e.poke(name, (epoch * 2654435761ull + i * 40503ull) >> (i % 13));
    }
  });
  EXPECT_FALSE(mismatch.has_value()) << mismatch->describe();
  EXPECT_EQ(act.stats().partitionChecks, cycles * act.schedule().numPartitions());
  EXPECT_LT(act.stats().partitionActivations, act.stats().partitionChecks);
}

}  // namespace
}  // namespace essent::core

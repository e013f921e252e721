// Tests for combinational-loop supernodes (paper §II): SCCs merged into
// supernodes evaluated repeatedly until convergence, across the builder,
// all three engines, the partitioner (loops never split across
// partitions), and the code generator.
#include <gtest/gtest.h>

#include "codegen/emitter.h"
#include "core/activity_engine.h"
#include "core/netlist.h"
#include "sim/compile.h"
#include "sim/event_driven.h"
#include "sim/full_cycle.h"
#include "sim/harness.h"

namespace essent {
namespace {

using core::ActivityEngine;
using core::ScheduleOptions;
using sim::BuildOptions;
using sim::EventDrivenEngine;
using sim::FullCycleEngine;
using sim::SimIR;

constexpr const char* kSrLatch = R"(
circuit Latch :
  module Latch :
    input s : UInt<1>
    input r : UInt<1>
    output q : UInt<1>
    output qb : UInt<1>
    wire qi : UInt<1>
    wire qbi : UInt<1>
    qi <= not(or(r, qbi))
    qbi <= not(or(s, qi))
    q <= qi
    qb <= qbi
)";

BuildOptions withLoops() {
  BuildOptions o;
  o.allowCombLoops = true;
  return o;
}

TEST(SuperNodes, RejectedByDefaultWithSccDiagnostic) {
  try {
    sim::buildFromFirrtl(kSrLatch);
    FAIL() << "expected BuildError";
  } catch (const sim::BuildError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("combinational cycle"), std::string::npos);
    EXPECT_NE(msg.find("qi"), std::string::npos);  // names the SCC members
  }
}

TEST(SuperNodes, BuilderMarksContiguousSupers) {
  SimIR ir = sim::buildFromFirrtl(kSrLatch, withLoops());
  ASSERT_TRUE(ir.hasCombLoops());
  ASSERT_EQ(ir.supers.size(), 1u);
  EXPECT_GE(ir.supers[0].size(), 2u);
  // Contiguity + back-pointers are enforced by validate().
  ir.validate();
}

TEST(SuperNodes, SrLatchSetsAndHolds) {
  SimIR ir = sim::buildFromFirrtl(kSrLatch, withLoops());
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  // Set.
  eng.poke("s", 1);
  eng.poke("r", 0);
  eng.tick();
  EXPECT_EQ(eng.peek("q"), 1u);
  EXPECT_EQ(eng.peek("qb"), 0u);
  // Hold: the loop keeps its state with both inputs low.
  eng.poke("s", 0);
  eng.tick();
  eng.tick();
  EXPECT_EQ(eng.peek("q"), 1u);
  // Reset.
  eng.poke("r", 1);
  eng.tick();
  EXPECT_EQ(eng.peek("q"), 0u);
  EXPECT_EQ(eng.peek("qb"), 1u);
  // Hold again.
  eng.poke("r", 0);
  eng.tick();
  EXPECT_EQ(eng.peek("q"), 0u);
}

TEST(SuperNodes, AllEnginesAgreeOnLatch) {
  SimIR ir = sim::buildFromFirrtl(kSrLatch, withLoops());
  auto stim = [](sim::Engine& e, uint64_t c) {
    // set / hold / reset / hold pattern
    e.poke("s", c % 8 == 1);
    e.poke("r", c % 8 == 5);
  };
  FullCycleEngine fc(sim::CompiledDesign::compile(ir));
  EventDrivenEngine ev(sim::CompiledDesign::compile(ir));
  auto m1 = sim::compareEngines(fc, ev, 40, stim);
  EXPECT_FALSE(m1.has_value()) << m1->describe();
  FullCycleEngine fc2(sim::CompiledDesign::compile(ir));
  ActivityEngine act(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  auto m2 = sim::compareEngines(fc2, act, 40, stim);
  EXPECT_FALSE(m2.has_value()) << m2->describe();
}

TEST(SuperNodes, PartitionerKeepsLoopWhole) {
  SimIR ir = sim::buildFromFirrtl(kSrLatch, withLoops());
  core::Netlist nl = core::Netlist::build(ir);
  EXPECT_TRUE(nl.g.isAcyclic());  // the supernode fuses the cycle away
  core::Partitioning p = core::partitionNetlist(nl, core::PartitionOptions{});
  EXPECT_TRUE(p.partGraph.isAcyclic());
  // Every supernode member op lands in the same partition (by construction
  // they share a netlist node); verified via the schedule.
  core::CondPartSchedule sched = core::buildScheduleFrom(nl, p, true);
  for (int32_t member : ir.supers[0]) {
    bool found = false;
    for (const auto& part : sched.parts) {
      bool has = std::find(part.ops.begin(), part.ops.end(), member) != part.ops.end();
      if (has) {
        // All members must be in this same partition.
        for (int32_t other : ir.supers[0])
          EXPECT_NE(std::find(part.ops.begin(), part.ops.end(), other), part.ops.end());
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(SuperNodes, OscillatorThrowsAtRuntime) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit O :
  module O :
    output q : UInt<1>
    wire w : UInt<1>
    w <= not(w)
    q <= w
)",
                                  withLoops());
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  EXPECT_THROW(eng.tick(), std::runtime_error);
}

TEST(SuperNodes, RegisterFeedbackAroundLoop) {
  // A register samples the latch output; the loop feeds state and state
  // feeds the loop, exercising elision ordering around a supernode.
  SimIR ir = sim::buildFromFirrtl(R"(
circuit LR :
  module LR :
    input clock : Clock
    input en : UInt<1>
    output o : UInt<4>
    reg cnt : UInt<4>, clock
    wire a : UInt<1>
    wire b : UInt<1>
    a <= not(or(en, b))
    b <= not(or(bits(cnt, 0, 0), a))
    when b :
      cnt <= tail(add(cnt, UInt<4>(1)), 1)
    o <= cnt
)",
                                  withLoops());
  FullCycleEngine fc(sim::CompiledDesign::compile(ir));
  ActivityEngine act(core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), ScheduleOptions{}));
  auto m = sim::compareEngines(fc, act, 40, [](sim::Engine& e, uint64_t c) {
    e.poke("en", (c / 5) % 2);
  });
  EXPECT_FALSE(m.has_value()) << m->describe();
}

TEST(SuperNodes, CompiledCodeMatchesInterpreter) {
  SimIR ir = sim::buildFromFirrtl(kSrLatch, withLoops());
  core::CondPartSchedule sched =
      core::buildSchedule(core::Netlist::build(ir), ScheduleOptions{});
  std::string code = codegen::emitCpp(ir, &sched, codegen::CodegenOptions{});
  EXPECT_NE(code.find("iterate to convergence"), std::string::npos);
  // Baseline mode also emits the loop.
  codegen::CodegenOptions baseOpts;
  baseOpts.ccss = false;
  std::string base = codegen::emitCpp(ir, nullptr, baseOpts);
  EXPECT_NE(base.find("again_"), std::string::npos);
}

TEST(SuperNodes, DcePreservesSuperBookkeeping) {
  // Extra dead logic around the loop: DCE must renumber supers correctly.
  SimIR ir = sim::buildFromFirrtl(R"(
circuit D :
  module D :
    input s : UInt<1>
    input r : UInt<1>
    output q : UInt<1>
    wire qi : UInt<1>
    wire qbi : UInt<1>
    node unused = xor(s, r)
    qi <= not(or(r, qbi))
    qbi <= not(or(s, qi))
    q <= qi
)",
                                  withLoops());
  ir.validate();
  ASSERT_EQ(ir.supers.size(), 1u);
  FullCycleEngine eng(sim::CompiledDesign::compile(ir));
  eng.poke("s", 1);
  eng.poke("r", 0);
  eng.tick();
  EXPECT_EQ(eng.peek("q"), 1u);
}

// The CCSS engine runs supernodes out of its flat execution stream: each
// loop is one contiguous run of the partition's ops, iterated in place. At
// C_max = 4 the two chained latches sit among straight-line ops and
// registers, so partitions mix plain runs and loop runs.
TEST(SuperNodes, StreamLoopRunsMatchFullCycleUnderTinyCap) {
  SimIR ir = sim::buildFromFirrtl(R"(
circuit Loops :
  module Loops :
    input clock : Clock
    input reset : UInt<1>
    input s : UInt<1>
    input r : UInt<1>
    input x : UInt<8>
    output q : UInt<1>
    output y : UInt<8>
    wire qi : UInt<1>
    wire qbi : UInt<1>
    wire pi : UInt<1>
    wire pbi : UInt<1>
    node s2 = and(s, bits(x, 0, 0))
    qi <= not(or(r, qbi))
    qbi <= not(or(s2, qi))
    pi <= not(or(qi, pbi))
    pbi <= not(or(xorr(x), pi))
    reg acc : UInt<8>, clock with : (reset => (reset, UInt<8>(0)))
    acc <= tail(add(acc, mux(pi, x, UInt<8>(3))), 1)
    q <= qi
    y <= xor(acc, pad(pbi, 8))
)",
                                  withLoops());
  ASSERT_EQ(ir.supers.size(), 2u);
  ScheduleOptions tiny;
  tiny.partition.maxPartitionSize = 4;
  auto ccss = core::CompiledCcss::compile(sim::CompiledDesign::compile(ir), tiny);
  const core::CcssStream& stream = ccss->body->stream;
  ASSERT_EQ(stream.supers.size(), 2u);
  size_t loopOps = 0;
  for (const core::StreamSuper& sn : stream.supers) {
    EXPECT_LT(sn.begin, sn.end);
    loopOps += sn.end - sn.begin;
  }
  EXPECT_EQ(loopOps, ir.supers[0].size() + ir.supers[1].size());
  // At least one partition runs straight-line ops around a loop run.
  bool mixed = false;
  for (size_t pos = 0; pos + 1 < stream.parts.size(); pos++) {
    const core::StreamPart& part = stream.parts[pos];
    const core::StreamPart& next = stream.parts[pos + 1];
    uint32_t inLoops = 0;
    for (uint32_t si = part.super; si < next.super; si++)
      inLoops += stream.supers[si].end - stream.supers[si].begin;
    mixed |= inLoops > 0 && next.op - part.op > inLoops;
  }
  EXPECT_TRUE(mixed);

  FullCycleEngine fc(sim::CompiledDesign::compile(ir));
  ActivityEngine act(ccss);
  auto m = sim::compareEngines(fc, act, 200, [](sim::Engine& e, uint64_t c) {
    e.poke("reset", c < 2);
    e.poke("s", c % 8 == 1);
    e.poke("r", c % 8 == 5);
    e.poke("x", (c * 37) % 256 / (c % 3 + 1));
  });
  EXPECT_FALSE(m.has_value()) << m->describe();
}

}  // namespace
}  // namespace essent

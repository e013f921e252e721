// Tests for the paper's core contribution: MFFC decomposition, the acyclic
// merge-based partitioner, the external-path merge test, state-element
// update elision, and the CCSS schedule. Includes the paper's Figure 2 and
// Figure 3 examples plus randomized acyclicity property sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "core/elision.h"
#include "core/mffc.h"
#include "core/netlist.h"
#include "core/partitioner.h"
#include "core/schedule.h"
#include "designs/blocks.h"
#include "designs/tinysoc.h"
#include "sim/compile.h"
#include "support/rng.h"

namespace essent::core {
namespace {

using graph::DiGraph;

TEST(Mffc, PaperFigure3Shape) {
  // Chain with a fanout: the MFFC of a node with multi-fanout members stops
  // at the fanout point, and a contained node's MFFC nests inside.
  //   0 -> 1 -> 3, 2 -> 3, 3 -> 4, 3 -> 5   (3 has two consumers)
  DiGraph g(6);
  g.addEdge(0, 1);
  g.addEdge(1, 3);
  g.addEdge(2, 3);
  g.addEdge(3, 4);
  g.addEdge(3, 5);
  auto m3 = mffcOf(g, 3);
  std::set<graph::NodeId> s3(m3.begin(), m3.end());
  EXPECT_EQ(s3, (std::set<graph::NodeId>{0, 1, 2, 3}));
  // MFFC(1) = {0, 1} is contained in MFFC(3).
  auto m1 = mffcOf(g, 1);
  std::set<graph::NodeId> s1(m1.begin(), m1.end());
  EXPECT_EQ(s1, (std::set<graph::NodeId>{0, 1}));
  for (auto n : s1) EXPECT_TRUE(s3.count(n));
  // MFFC of node 4: node 3 has external fanout (to 5), so MFFC(4) = {4}.
  auto m4 = mffcOf(g, 4);
  EXPECT_EQ(m4.size(), 1u);
}

TEST(Mffc, DecompositionCoversAllNodesDisjointly) {
  DiGraph g(7);
  g.addEdge(0, 2);
  g.addEdge(1, 2);
  g.addEdge(2, 3);
  g.addEdge(2, 4);
  g.addEdge(3, 5);
  g.addEdge(4, 6);
  int32_t parts = 0;
  auto partOf = mffcDecompose(g, &parts);
  EXPECT_GT(parts, 0);
  for (auto p : partOf) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, parts);
  }
  // Quotient graph must be acyclic.
  EXPECT_TRUE(graph::condense(g, partOf, parts).isAcyclic());
}

TEST(Mffc, DecompositionAcyclicOnRandomDags) {
  for (uint64_t seed = 1; seed <= 10; seed++) {
    Rng rng(seed);
    int n = 80;
    DiGraph g(n);
    for (int i = 0; i < n; i++)
      for (int j = i + 1; j < n; j++)
        if (rng.nextChance(0.06)) g.addEdge(i, j);
    int32_t parts = 0;
    auto partOf = mffcDecompose(g, &parts);
    EXPECT_TRUE(graph::condense(g, partOf, parts).isAcyclic()) << "seed " << seed;
  }
}

// Paper Figure 2: acyclic graph whose naive partitioning becomes cyclic.
// A -> C, C -> B, B -> D. Merging {A,B} and {C,D} creates a cycle; the
// external-path test must reject it, while {A,C}/{B,D} style merges pass.
TEST(Partitioner, ExternalPathTestRejectsFigure2Merge) {
  sim::SimIR ir = sim::buildFromFirrtl(R"(
circuit Fig2 :
  module Fig2 :
    input a : UInt<8>
    output o1 : UInt<8>
    output o2 : UInt<8>
    node c = not(a)
    node b = not(c)
    node d = not(b)
    o1 <= b
    o2 <= d
)",
                                       sim::BuildOptions{false, false, false});
  Netlist nl = Netlist::build(ir);
  // Partition fine, then check mergeability via partitionNetlist's internal
  // machinery indirectly: any partitioning it returns must be acyclic.
  for (uint32_t cp : {0u, 2u, 4u, 8u, 64u}) {
    PartitionOptions opts;
    opts.smallThreshold = cp;
    Partitioning p = partitionNetlist(nl, opts);
    EXPECT_TRUE(p.partGraph.isAcyclic());
  }
}

sim::SimIR buildDesign(const std::string& text, bool optimize = true) {
  sim::BuildOptions opts;
  if (!optimize) opts.constProp = opts.cse = opts.dce = false;
  return sim::buildFromFirrtl(text, opts);
}

TEST(Partitioner, ProducesAcyclicPartitionsOnDesigns) {
  std::vector<std::string> designs = {
      designs::counterFirrtl(16),
      designs::aluArrayFirrtl(8, 16),
      designs::pipelineFirrtl(12, 16),
      designs::gatedBanksFirrtl(16, 16),
  };
  for (const auto& text : designs) {
    sim::SimIR ir = buildDesign(text);
    Netlist nl = Netlist::build(ir);
    Partitioning p = partitionNetlist(nl);
    EXPECT_TRUE(p.partGraph.isAcyclic());
    // Every node assigned to exactly one partition (partitioning, not
    // clustering: no replication).
    std::vector<int> count(p.numPartitions(), 0);
    size_t total = 0;
    for (const auto& members : p.members) total += members.size();
    EXPECT_EQ(total, nl.nodes.size());
    for (int32_t part : p.partOf) {
      ASSERT_GE(part, 0);
      ASSERT_LT(static_cast<size_t>(part), p.numPartitions());
    }
    // Schedule is a permutation of partitions.
    std::set<int32_t> sched(p.schedule.begin(), p.schedule.end());
    EXPECT_EQ(sched.size(), p.numPartitions());
  }
}

TEST(Partitioner, CoarseningReducesPartitionCount) {
  sim::SimIR ir = buildDesign(designs::aluArrayFirrtl(32, 16));
  Netlist nl = Netlist::build(ir);
  PartitionOptions fine;
  fine.smallThreshold = 0;
  fine.phaseSingleParent = false;
  fine.phaseSmallSiblings = false;
  fine.phaseAnySibling = false;
  Partitioning mffcOnly = partitionNetlist(nl, fine);

  Partitioning merged = partitionNetlist(nl);  // default C_p = 8
  EXPECT_LT(merged.numPartitions(), mffcOnly.numPartitions());
  EXPECT_GT(merged.numPartitions(), 0u);
  // Merging must reduce (or keep) the cut.
  EXPECT_LE(merged.stats.cutEdges, mffcOnly.stats.cutEdges);
}

TEST(Partitioner, LargerCpYieldsFewerPartitions) {
  sim::SimIR ir = buildDesign(designs::gatedBanksFirrtl(32, 16));
  Netlist nl = Netlist::build(ir);
  size_t prev = SIZE_MAX;
  for (uint32_t cp : {2u, 8u, 32u}) {
    PartitionOptions opts;
    opts.smallThreshold = cp;
    Partitioning p = partitionNetlist(nl, opts);
    EXPECT_TRUE(p.partGraph.isAcyclic());
    EXPECT_LE(p.numPartitions(), prev);
    prev = p.numPartitions();
  }
}

TEST(Partitioner, RandomDesignsAlwaysAcyclic) {
  for (uint64_t seed = 1; seed <= 12; seed++) {
    designs::RandomDesignConfig cfg;
    cfg.numNodes = 80;
    sim::SimIR ir = buildDesign(designs::randomDesignFirrtl(seed, cfg));
    Netlist nl = Netlist::build(ir);
    for (uint32_t cp : {2u, 8u, 32u}) {
      PartitionOptions opts;
      opts.smallThreshold = cp;
      Partitioning p = partitionNetlist(nl, opts);
      EXPECT_TRUE(p.partGraph.isAcyclic()) << "seed " << seed << " cp " << cp;
    }
  }
}

TEST(Netlist, SplitsStateAndTracksReaders) {
  sim::SimIR ir = buildDesign(designs::counterFirrtl(8));
  Netlist nl = Netlist::build(ir);
  EXPECT_TRUE(nl.g.isAcyclic());  // register split guarantees this
  ASSERT_EQ(ir.regs.size(), 1u);
  // The counter register is read by its own increment logic.
  EXPECT_FALSE(nl.regReaders[0].empty());
  EXPECT_GE(nl.nodeOfRegWrite[0], 0);
  // Sinks exist (register write at minimum).
  EXPECT_FALSE(nl.sinks().empty());
}

TEST(Elision, CounterRegisterElidable) {
  sim::SimIR ir = buildDesign(designs::counterFirrtl(8));
  Netlist nl = Netlist::build(ir);
  Partitioning p = partitionNetlist(nl);
  ElisionResult e = analyzeElision(nl, p, true);
  // A simple counter's readers land with (or before) the writer; the
  // register must be elidable and the graph stays acyclic.
  EXPECT_TRUE(e.regElided[0]);
  EXPECT_TRUE(e.orderedPartGraph.isAcyclic());
  ElisionResult off = analyzeElision(nl, p, false);
  EXPECT_FALSE(off.regElided[0]);
}

TEST(Elision, OrderingEdgesKeepScheduleValid) {
  for (uint64_t seed = 20; seed < 28; seed++) {
    sim::SimIR ir = buildDesign(designs::randomDesignFirrtl(seed));
    Netlist nl = Netlist::build(ir);
    Partitioning p = partitionNetlist(nl);
    ElisionResult e = analyzeElision(nl, p, true);
    EXPECT_TRUE(e.orderedPartGraph.isAcyclic());
    EXPECT_EQ(e.schedule.size(), p.numPartitions());
    // Readers of each elided register appear no later than the writer.
    std::vector<int32_t> pos(p.numPartitions());
    for (size_t i = 0; i < e.schedule.size(); i++) pos[static_cast<size_t>(e.schedule[i])] = static_cast<int32_t>(i);
    for (size_t r = 0; r < ir.regs.size(); r++) {
      if (!e.regElided[r]) continue;
      int32_t wp = p.partOf[static_cast<size_t>(nl.nodeOfRegWrite[r])];
      for (int32_t reader : nl.regReaders[r]) {
        int32_t rp = p.partOf[static_cast<size_t>(reader)];
        EXPECT_LE(pos[static_cast<size_t>(rp)], pos[static_cast<size_t>(wp)]);
      }
    }
  }
}

TEST(Schedule, EveryOpScheduledExactlyOnce) {
  sim::SimIR ir = buildDesign(designs::aluArrayFirrtl(16, 24));
  Netlist nl = Netlist::build(ir);
  CondPartSchedule sched = buildSchedule(nl);
  std::vector<int> seen(ir.ops.size(), 0);
  for (const auto& part : sched.parts) {
    // Intra-partition op order must be ascending global topo order.
    EXPECT_TRUE(std::is_sorted(part.ops.begin(), part.ops.end()));
    for (int32_t op : part.ops) seen[static_cast<size_t>(op)]++;
  }
  for (int c : seen) EXPECT_EQ(c, 1);  // singular execution
  // Every register is either elided into a partition or deferred.
  size_t regCount = 0;
  for (const auto& part : sched.parts) regCount += part.regWrites.size();
  regCount += sched.deferredRegs.size();
  EXPECT_EQ(regCount, ir.regs.size());
}

TEST(Schedule, OutputConsumersPointForward) {
  sim::SimIR ir = buildDesign(designs::pipelineFirrtl(8, 16));
  Netlist nl = Netlist::build(ir);
  CondPartSchedule sched = buildSchedule(nl);
  for (size_t pos = 0; pos < sched.parts.size(); pos++) {
    for (const auto& o : sched.parts[pos].outputs) {
      for (int32_t c : o.consumers) {
        // Combinational consumers must execute after their producer.
        EXPECT_GT(c, static_cast<int32_t>(pos));
      }
    }
  }
}


// --- C_max: the partition-size cap -----------------------------------------

// A random DAG shaped like hardware cones: most nodes feed one later node,
// some feed two, so fanout-free cones grow large enough for the cap to bite.
DiGraph coneHeavyDag(uint64_t seed, int n) {
  Rng rng(seed);
  DiGraph g(n);
  for (int i = 0; i + 1 < n; i++) {
    int fanout = rng.nextChance(0.15) ? 2 : 1;
    for (int k = 0; k < fanout; k++) {
      int hi = std::min(n - 1, i + 24);
      g.addEdge(i, static_cast<graph::NodeId>(rng.nextRange(static_cast<uint64_t>(i) + 1,
                                                            static_cast<uint64_t>(hi))));
    }
  }
  return g;
}

size_t largestPartition(const Partitioning& p) {
  size_t mx = 0;
  for (const auto& m : p.members) mx = std::max(mx, m.size());
  return mx;
}

const uint32_t kDefaultCmax = PartitionOptions{}.maxPartitionSize;

TEST(Mffc, CappedConesCoverEveryNodeOnceWithinCap) {
  for (uint64_t seed = 1; seed <= 8; seed++) {
    DiGraph g = coneHeavyDag(seed, 600);
    int32_t unboundedParts = 0;
    auto unbounded = mffcDecompose(g, &unboundedParts);
    for (uint32_t cmax : {1u, 4u, 16u, kDefaultCmax}) {
      int32_t parts = 0;
      auto partOf = mffcDecompose(g, &parts, cmax);
      ASSERT_EQ(partOf.size(), static_cast<size_t>(g.numNodes()));
      std::vector<uint32_t> size(static_cast<size_t>(parts), 0);
      for (int32_t p : partOf) {
        ASSERT_GE(p, 0);
        ASSERT_LT(p, parts);
        size[static_cast<size_t>(p)]++;
      }
      for (uint32_t s : size) {
        EXPECT_GE(s, 1u);  // ids are dense
        EXPECT_LE(s, cmax) << "seed " << seed << " cmax " << cmax;
      }
      EXPECT_GE(parts, unboundedParts);
      // Still fanout-free with a single root: at most one member per cone
      // has a consumer outside it.
      std::vector<int> escaping(static_cast<size_t>(parts), 0);
      for (graph::NodeId v = 0; v < g.numNodes(); v++) {
        bool escapes = false;
        for (graph::NodeId w : g.outNeighbors(v))
          escapes |= partOf[static_cast<size_t>(w)] != partOf[static_cast<size_t>(v)];
        escaping[static_cast<size_t>(partOf[static_cast<size_t>(v)])] += escapes;
      }
      for (int e : escaping) EXPECT_LE(e, 1) << "seed " << seed << " cmax " << cmax;
      EXPECT_TRUE(graph::condense(g, partOf, parts).isAcyclic())
          << "seed " << seed << " cmax " << cmax;
    }
    // The cap actually split something on this shape.
    int32_t cappedParts = 0;
    mffcDecompose(g, &cappedParts, 4);
    EXPECT_GT(cappedParts, unboundedParts) << "seed " << seed;
  }
}

TEST(Partitioner, CappedPartitionGraphStaysAcyclic) {
  std::vector<std::string> texts = {designs::aluArrayFirrtl(32, 16),
                                    designs::gatedBanksFirrtl(32, 16)};
  for (uint64_t seed = 1; seed <= 8; seed++) {
    designs::RandomDesignConfig cfg;
    cfg.numNodes = 200;
    texts.push_back(designs::randomDesignFirrtl(seed, cfg));
  }
  for (size_t t = 0; t < texts.size(); t++) {
    sim::SimIR ir = buildDesign(texts[t]);
    Netlist nl = Netlist::build(ir);
    for (uint32_t cmax : {1u, 4u, 16u, kDefaultCmax}) {
      PartitionOptions opts;
      opts.maxPartitionSize = cmax;
      Partitioning p = partitionNetlist(nl, opts);
      EXPECT_TRUE(p.partGraph.isAcyclic()) << "design " << t << " cmax " << cmax;
      EXPECT_LE(largestPartition(p), cmax) << "design " << t << " cmax " << cmax;
      size_t total = 0;
      for (const auto& m : p.members) total += m.size();
      EXPECT_EQ(total, nl.nodes.size());
      // The schedule built on top stays valid too.
      CondPartSchedule sched = buildScheduleFrom(nl, p, true);
      EXPECT_EQ(sched.numPartitions(), p.numPartitions());
    }
  }
}

TEST(Partitioner, MergePhasesNeverExceedCmax) {
  sim::SimIR ir = buildDesign(designs::aluArrayFirrtl(32, 16));
  Netlist nl = Netlist::build(ir);
  size_t cappedSomewhere = 0;
  for (uint32_t cmax : {4u, 8u, 12u, 16u, 40u}) {
    // Phase A alone, A+B, then A+B+C: each prefix must respect the cap.
    for (int phases = 1; phases <= 3; phases++) {
      PartitionOptions opts;
      opts.maxPartitionSize = cmax;
      opts.phaseSmallSiblings = phases >= 2;
      opts.phaseAnySibling = phases >= 3;
      Partitioning p = partitionNetlist(nl, opts);
      EXPECT_LE(largestPartition(p), cmax) << "cmax " << cmax << " phases " << phases;
      EXPECT_TRUE(p.partGraph.isAcyclic());
      cappedSomewhere += p.stats.cappedMerges;
    }
  }
  EXPECT_GT(cappedSomewhere, 0u) << "no merge ever hit the cap; the test exercises nothing";
}

TEST(Partitioner, UnboundedCmaxReproducesUncappedPartitioner) {
  // FNV-1a digests of partOf from the partitioner as it was before C_max
  // existed (default options otherwise). An unbounded cap must reproduce
  // it exactly, and so must any cap at least as large as the largest
  // uncapped partition.
  auto digest = [](const std::vector<int32_t>& v) {
    uint64_t h = 1469598103934665603ull;
    for (int32_t x : v) {
      h ^= static_cast<uint32_t>(x);
      h *= 1099511628211ull;
    }
    return h;
  };
  struct Golden {
    std::string text;
    uint64_t hash;
  };
  std::vector<Golden> goldens = {
      {designs::aluArrayFirrtl(32, 16), 0xf849e00e0c73b5ddull},
      {designs::gatedBanksFirrtl(32, 16), 0x421b116248e6d0c1ull},
      {designs::pipelineFirrtl(12, 16), 0x5e282357321dead4ull},
      {designs::tinySoCFirrtl(designs::socR16()), 0xdc73cf6bbf9f099full},
  };
  const uint64_t randomHashes[] = {0x8dee38d2d97b3116ull, 0xa1e367e040c1a4cfull,
                                   0x1410dfa55b2fb84bull, 0x699ba179cfbf99b3ull};
  for (uint64_t seed = 1; seed <= 4; seed++) {
    designs::RandomDesignConfig cfg;
    cfg.numNodes = 200;
    goldens.push_back({designs::randomDesignFirrtl(seed, cfg), randomHashes[seed - 1]});
  }
  for (size_t i = 0; i < goldens.size(); i++) {
    sim::SimIR ir = sim::buildFromFirrtl(goldens[i].text);
    Netlist nl = Netlist::build(ir);
    PartitionOptions unbounded;
    unbounded.maxPartitionSize = kUnboundedPartitionSize;
    Partitioning p = partitionNetlist(nl, unbounded);
    EXPECT_EQ(digest(p.partOf), goldens[i].hash) << "design " << i;
    EXPECT_EQ(p.stats.cappedMerges, 0u);

    PartitionOptions justFits;
    justFits.maxPartitionSize = static_cast<uint32_t>(largestPartition(p));
    EXPECT_EQ(partitionNetlist(nl, justFits).partOf, p.partOf) << "design " << i;
  }
}

TEST(Partitioner, BoomPresetFitsDefaultCmax) {
  sim::SimIR ir = sim::buildFromFirrtl(designs::tinySoCFirrtl(designs::socBoom()));
  Netlist nl = Netlist::build(ir);
  Partitioning p = partitionNetlist(nl);
  EXPECT_LE(largestPartition(p), kDefaultCmax);
  EXPECT_TRUE(p.partGraph.isAcyclic());
}

TEST(Partitioner, ZeroCmaxIsRejected) {
  sim::SimIR ir = buildDesign(designs::counterFirrtl(8));
  Netlist nl = Netlist::build(ir);
  PartitionOptions opts;
  opts.maxPartitionSize = 0;
  EXPECT_THROW(partitionNetlist(nl, opts), std::invalid_argument);
}

}  // namespace
}  // namespace essent::core

#include "core/mffc.h"

#include <stdexcept>

namespace essent::core {

using graph::DiGraph;
using graph::NodeId;

namespace {

// Grows the fanout-free cone of `root` over nodes for which `eligible`
// returns true: a predecessor joins when all of its consumers are already
// members, until the cone holds `maxSize` nodes. `inCone` is a scratch
// marker the caller provides (values reset on exit).
template <typename Eligible>
std::vector<NodeId> growCone(const DiGraph& g, NodeId root, std::vector<bool>& inCone,
                             const Eligible& eligible, uint32_t maxSize = UINT32_MAX) {
  std::vector<NodeId> members = {root};
  inCone[root] = true;
  // Classic worklist: whenever a node joins, its predecessors become
  // candidates; a candidate joins iff all its out-neighbors are members.
  std::vector<NodeId> frontier = {root};
  while (!frontier.empty() && members.size() < maxSize) {
    NodeId v = frontier.back();
    frontier.pop_back();
    for (NodeId p : g.inNeighbors(v)) {
      if (inCone[p] || !eligible(p)) continue;
      bool allInside = true;
      for (NodeId c : g.outNeighbors(p)) {
        if (!inCone[c]) {
          allInside = false;
          break;
        }
      }
      if (allInside) {
        inCone[p] = true;
        members.push_back(p);
        frontier.push_back(p);
        if (members.size() >= maxSize) break;
      }
    }
  }
  for (NodeId m : members) inCone[m] = false;
  return members;
}

}  // namespace

std::vector<NodeId> mffcOf(const DiGraph& g, NodeId root) {
  std::vector<bool> scratch(static_cast<size_t>(g.numNodes()), false);
  return growCone(g, root, scratch, [](NodeId) { return true; });
}

std::vector<int32_t> mffcDecompose(const DiGraph& g, int32_t* numParts, uint32_t maxSize) {
  if (maxSize == 0) throw std::invalid_argument("mffcDecompose: maxSize must be >= 1");
  NodeId n = g.numNodes();
  std::vector<int32_t> partOf(static_cast<size_t>(n), -1);
  std::vector<bool> scratch(static_cast<size_t>(n), false);
  int32_t next = 0;

  auto order = g.topoSort();
  if (!order) throw std::logic_error("mffcDecompose requires an acyclic graph");

  // Process in reverse topological order so sinks seed cones first; every
  // still-unassigned node becomes the root of its own MFFC (restricted to
  // unassigned nodes, which preserves maximality: an assigned consumer means
  // the candidate has fanout escaping the cone). A cone capped at maxSize
  // leaves its remaining fan-in unassigned; those nodes come later in this
  // order and root their own cones. Every cone's only outgoing edges leave
  // its root, which precedes the roots of all cones it feeds in this
  // order, so cone ids strictly decrease along edges: acyclic either way.
  for (size_t idx = order->size(); idx-- > 0;) {
    NodeId v = (*order)[idx];
    if (partOf[static_cast<size_t>(v)] != -1) continue;
    auto members = growCone(
        g, v, scratch, [&](NodeId u) { return partOf[static_cast<size_t>(u)] == -1; },
        maxSize);
    for (NodeId m : members) partOf[static_cast<size_t>(m)] = next;
    next++;
  }
  if (numParts) *numParts = next;
  return partOf;
}

}  // namespace essent::core

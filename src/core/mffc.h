// Maximum fanout-free cone (MFFC) decomposition (paper §IV, Figure 3).
//
// The MFFC of a node v is the largest set of ancestors of v such that every
// descendant of a member is either inside the cone or is v itself. MFFCs
// are the bootstrap partitions of the acyclic partitioner: any value
// computed inside an MFFC is visible only within it and at its root, which
// guarantees the decomposition is acyclic (Cong et al., DAC'94).
//
// Departure from the paper: a cone may be capped at C_max nodes. Growth
// stops once the cone reaches the cap, and the predecessors left out become
// roots of their own (also capped) cones later in the same pass. A capped
// cone is still fanout-free with a single root -- only the root has
// consumers outside it -- so the decomposition stays acyclic. The paper's
// MFFCs are never split, so one active leaf of a huge cone re-evaluates all
// of it every cycle; the cap bounds that cost.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace essent::core {

// Decomposes `g` into MFFCs, crawling upward from the sink nodes (per the
// paper, sinks are typically state-element writes or external outputs).
// Returns the partition id of every node; ids are dense [0, numParts).
// `maxSize` is C_max, an upper bound on cone size (>= 1); the default keeps
// every MFFC whole, as in the paper.
std::vector<int32_t> mffcDecompose(const graph::DiGraph& g, int32_t* numParts,
                                   uint32_t maxSize = UINT32_MAX);

// The MFFC rooted at a single node (for tests / inspection): all ancestors
// whose every fanout path leads back into the cone.
std::vector<graph::NodeId> mffcOf(const graph::DiGraph& g, graph::NodeId root);

}  // namespace essent::core

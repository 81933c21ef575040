// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// K-Truss decomposition — the paper's edge scalar field for dense-subgraph
// terrains (§III, Fig. 7).
//
// Support counting lists each triangle once over the degree-ordered
// forward adjacency (graph/forward_adjacency.h). Then the same bucket-peel
// discipline as kcore.h applied to edges: peel the minimum-support edge,
// demote the two surviving edges of each of its triangles with O(1) bucket
// swaps, reading their ids from the matched CSR slots. An edge peeled at
// support 0 has no live triangle left and skips its intersection — on
// large sparse graphs that is nearly every edge. truss[e] = (support when
// peeled) + 2, so an edge in a k-truss but no (k+1)-truss reports k.

#ifndef GRAPHSCAPE_METRICS_KTRUSS_H_
#define GRAPHSCAPE_METRICS_KTRUSS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"

namespace graphscape {

/// Unique undirected edges {u < v} in CSR order (ascending u, then v).
/// Defines the edge indexing shared by TrussNumbers and EdgeScalarField.
std::vector<std::pair<VertexId, VertexId>> EdgeList(const Graph& g);

/// truss[e] for every edge in EdgeList order; values are >= 2. The edge
/// index, the forward adjacency and the once-per-triangle support count
/// run on the pool; the bucket peel is inherently order-serial and stays
/// sequential, but only intersects edges that still have support. EQUAL
/// output for every thread count.
std::vector<uint32_t> TrussNumbers(const Graph& g,
                                   const ParallelOptions& options = {1, 0});

/// Kept only for perfbench/, which the benchmark definition freezes; it
/// goes when the benchmark is next redefined.
inline std::vector<uint32_t> TrussNumbersParallel(
    const Graph& g, const ParallelOptions& options) {
  return TrussNumbers(g, options);
}

}  // namespace graphscape

#endif  // GRAPHSCAPE_METRICS_KTRUSS_H_

// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// The degree-oriented DAG over a CSR graph — the one triangle-listing
// structure shared by triangle counting (metrics/triangles.cc) and K-Truss
// support counting (metrics/ktruss.cc).
//
// Every undirected edge {u, v} is kept once, oriented from the endpoint
// that comes first in degree order (id tie-break) to the other. The
// forward run of u is still sorted ascending by id (filtering a sorted CSR
// run keeps its order), so runs go straight into the sorted-run
// intersection layer (graph/intersect.h). Every triangle {u, v, w} has
// exactly one source — its degree-least vertex — and appears exactly once
// as w ∈ fwd(u) ∩ fwd(v) for v ∈ fwd(u). Orienting low -> high degree
// bounds every out-degree by O(sqrt(m)) on any graph.

#ifndef GRAPHSCAPE_GRAPH_FORWARD_ADJACENCY_H_
#define GRAPHSCAPE_GRAPH_FORWARD_ADJACENCY_H_

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"

namespace graphscape {

struct ForwardAdjacency {
  std::vector<uint32_t> offsets;   // n + 1
  std::vector<VertexId> targets;   // m
  std::vector<uint32_t> edge_ids;  // m when built with slot ids, else empty

  const VertexId* Run(VertexId u) const { return targets.data() + offsets[u]; }
  uint32_t RunLength(VertexId u) const {
    return offsets[u + 1] - offsets[u];
  }
  /// Edge id of each entry of Run(u), parallel to it.
  const uint32_t* EdgeIds(VertexId u) const {
    return edge_ids.data() + offsets[u];
  }
};

/// Builds the forward adjacency: the per-vertex passes run on the pool,
/// the offset prefix sum on the calling thread, so the result is the same
/// for every thread count. When `slot_edge_ids` is given (an
/// EdgeIndex::SlotEdgeIds() array, one id per CSR slot), each forward
/// entry also records the id of the edge it came from in `edge_ids`.
ForwardAdjacency BuildForward(
    const Graph& g, const ParallelOptions& options,
    const std::vector<uint32_t>* slot_edge_ids = nullptr);

}  // namespace graphscape

#endif  // GRAPHSCAPE_GRAPH_FORWARD_ADJACENCY_H_

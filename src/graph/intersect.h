// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Common-neighbor intersection over CSR adjacency runs: the graph-level
// wrappers over the one intersection core in graph/intersect_simd.h
// (runtime-dispatched SSE2/AVX2 block kernels, a scalar merge, a galloping
// path for skewed run pairs; each reports match positions or, in its
// count-only form, just counts). ForEachCommonPosition lives there too,
// since it works on raw runs.
//
// Preconditions (inherited by every path, vector or scalar): per-vertex
// adjacency runs are sorted ascending and duplicate-free — exactly what
// `Graph`'s CSR constructor guarantees. Determinism: every entry point
// produces identical counts and fires callbacks on identical ascending
// match sequences for any dispatch choice (docs/SIMD.md).
//
// Who calls what (keep this current when rewiring a metric):
//
//   count-only (never pays a callback):
//     * metrics/triangles.cc  — CountTriangles via intersect::Count over
//       forward (degree-oriented) runs;
//     * metrics/clustering.cc — TrianglesThrough (sampled cc):
//       CountCommonNeighbors(v, u);
//     * metrics/nucleus.cc    — per-triangle 4-clique support:
//       CountCommonNeighbors(a, b, c).
//
//   positions (ForEachCommonPosition; per-slot data parallel to the runs,
//   or the matched element itself):
//     * metrics/triangles.cc — VertexTriangleCounts (and so
//       LocalClusteringCoefficients) tallies u, v and the matched w per
//       forward run pair;
//     * metrics/ktruss.cc  — support counting lists each triangle once
//       over forward runs and reads its three edge ids at the matched
//       positions; the peel reads both side edges of every triangle from
//       EdgeIndex::SlotEdgeIds() at the matched CSR positions;
//     * metrics/nucleus.cc — triangle enumeration.
//
//   3-way callback (needs the elements):
//     * metrics/nucleus.cc — the 4-clique peel:
//       ForEachCommonNeighbor(a, b, c, ...).

#ifndef GRAPHSCAPE_GRAPH_INTERSECT_H_
#define GRAPHSCAPE_GRAPH_INTERSECT_H_

#include "graph/graph.h"
#include "graph/intersect_simd.h"

namespace graphscape {

/// Calls on_vertex(d) for every d adjacent to all of a, b, and c,
/// ascending: intersect::detail::ForEachCommon3, the body Count3 shares.
/// Count-only callers should use the 3-way CountCommonNeighbors below.
template <typename OnVertex>
inline void ForEachCommonNeighbor(const Graph& g, VertexId a, VertexId b,
                                  VertexId c, OnVertex&& on_vertex) {
  const Graph::NeighborRange ra = g.Neighbors(a);
  const Graph::NeighborRange rb = g.Neighbors(b);
  const Graph::NeighborRange rc = g.Neighbors(c);
  intersect::detail::ForEachCommon3(ra.begin(), ra.size(), rb.begin(),
                                    rb.size(), rc.begin(), rc.size(),
                                    on_vertex);
}

/// |N(u) ∩ N(v)| without a callback: reaches the dispatched SIMD count
/// kernel (or the galloping path on skewed degrees). Allocation-free.
inline uint32_t CountCommonNeighbors(const Graph& g, VertexId u,
                                     VertexId v) {
  const Graph::NeighborRange ru = g.Neighbors(u);
  const Graph::NeighborRange rv = g.Neighbors(v);
  return intersect::Count(ru.begin(), ru.size(), rv.begin(), rv.size());
}

/// |N(a) ∩ N(b) ∩ N(c)| without a callback (nucleus 4-clique support).
/// Allocation-free: fixed stack scratch inside intersect::Count3.
inline uint32_t CountCommonNeighbors(const Graph& g, VertexId a, VertexId b,
                                     VertexId c) {
  const Graph::NeighborRange ra = g.Neighbors(a);
  const Graph::NeighborRange rb = g.Neighbors(b);
  const Graph::NeighborRange rc = g.Neighbors(c);
  return intersect::Count3(ra.begin(), ra.size(), rb.begin(), rb.size(),
                           rc.begin(), rc.size());
}

}  // namespace graphscape

#endif  // GRAPHSCAPE_GRAPH_INTERSECT_H_

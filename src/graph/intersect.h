// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Common-neighbor intersection over CSR adjacency runs — the one inner
// loop all triangle-adjacent kernels share. The heavy lifting lives in
// graph/intersect_simd.h (runtime-dispatched SSE2/AVX2 block kernels, a
// galloping path for skewed run pairs, count-only variants); this header
// keeps the graph-level counts plus the position-reporting merge every
// metric calls.
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
//       forward (degree-oriented) runs; VertexTriangleCounts (and so
//       LocalClusteringCoefficients) via intersect::Into into a reused
//       per-lane scratch run;
//     * metrics/clustering.cc — TrianglesThrough (sampled cc):
//       CountCommonNeighbors(v, u);
//     * metrics/nucleus.cc    — per-triangle 4-clique support:
//       CountCommonNeighbors(a, b, c).
//
//   positions (needs per-slot data parallel to the runs):
//     * metrics/ktruss.cc  — support counting lists each triangle once
//       over forward runs (run pairs intersect::Count finds empty are
//       skipped) and reads its three edge ids at the matched
//       positions; the peel reads both side edges of every triangle from
//       EdgeIndex::SlotEdgeIds() at the matched CSR positions:
//       ForEachCommonPosition;
//     * metrics/nucleus.cc — triangle enumeration: ForEachCommonPosition.
//
//   callback (needs the elements):
//     * metrics/nucleus.cc — the 4-clique peel:
//       ForEachCommonNeighbor(a, b, c, ...).

#ifndef GRAPHSCAPE_GRAPH_INTERSECT_H_
#define GRAPHSCAPE_GRAPH_INTERSECT_H_

#include <algorithm>

#include "graph/graph.h"
#include "graph/intersect_simd.h"

namespace graphscape {

namespace intersect {
namespace detail {

// ForEachCommonPosition's body for na <= nb.
template <typename OnMatch>
inline void ForEachCommonPositionShortFirst(const VertexId* a, uint32_t na,
                                            const VertexId* b, uint32_t nb,
                                            OnMatch&& on_match) {
  if (na == 0) return;
  if (static_cast<size_t>(nb) >= static_cast<size_t>(na) * kGallopSkewRatio) {
    // Hub-vs-leaf shape: walk the short run, gallop through the long one.
    const VertexId* pb = b;
    const VertexId* eb = b + nb;
    for (uint32_t i = 0; i < na; ++i) {
      pb = GallopSeek(pb, eb, a[i]);
      if (pb == eb) return;
      if (*pb == a[i]) {
        on_match(i, static_cast<uint32_t>(pb - b));
        ++pb;
      }
    }
    return;
  }
  uint32_t i = 0, j = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      on_match(i, j);
      ++i;
      ++j;
    }
  }
}

}  // namespace detail
}  // namespace intersect

/// Calls on_match(i, j) for every common element a[i] == b[j] of two
/// sorted duplicate-free runs, in ascending element order. Reporting the
/// POSITIONS, not the element, is what lets a caller read per-slot data
/// parallel to the runs (edge ids) with no search. Skewed run pairs
/// gallop (exponential search through the longer run), balanced pairs
/// take the scalar merge — the match sequence is identical either way.
/// Callers that only count should use CountCommonNeighbors or
/// intersect::Count instead; they reach the vectorized count kernels.
template <typename OnMatch>
inline void ForEachCommonPosition(const VertexId* a, uint32_t na,
                                  const VertexId* b, uint32_t nb,
                                  OnMatch&& on_match) {
  if (na <= nb) {
    intersect::detail::ForEachCommonPositionShortFirst(a, na, b, nb,
                                                       on_match);
  } else {
    intersect::detail::ForEachCommonPositionShortFirst(
        b, nb, a, na, [&](uint32_t j, uint32_t i) { on_match(i, j); });
  }
}

/// Calls on_vertex(d) for every d adjacent to all of a, b, and c,
/// ascending. Each round advances ONLY the pointers lagging behind the
/// current maximum (galloping through large gaps), so two runs already
/// sitting at the frontier are never rescanned — the shape the skewed
/// nucleus adjacencies need. Count-only callers should use the 3-way
/// CountCommonNeighbors below.
template <typename OnVertex>
inline void ForEachCommonNeighbor(const Graph& g, VertexId a, VertexId b,
                                  VertexId c, OnVertex&& on_vertex) {
  const Graph::NeighborRange ra = g.Neighbors(a);
  const Graph::NeighborRange rb = g.Neighbors(b);
  const Graph::NeighborRange rc = g.Neighbors(c);
  const VertexId* pa = ra.begin();
  const VertexId* pb = rb.begin();
  const VertexId* pc = rc.begin();
  while (pa != ra.end() && pb != rb.end() && pc != rc.end()) {
    if (*pa == *pb && *pb == *pc) {
      on_vertex(*pa);
      ++pa;
      ++pb;
      ++pc;
      continue;
    }
    const VertexId hi = std::max({*pa, *pb, *pc});
    if (*pa < hi) pa = intersect::detail::GallopSeek(pa, ra.end(), hi);
    if (*pb < hi) pb = intersect::detail::GallopSeek(pb, rb.end(), hi);
    if (*pc < hi) pc = intersect::detail::GallopSeek(pc, rc.end(), hi);
  }
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

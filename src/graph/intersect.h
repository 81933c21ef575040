// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Common-neighbor intersection over CSR adjacency runs — the one inner
// loop all triangle-adjacent kernels share. The heavy lifting lives in
// graph/intersect_simd.h (runtime-dispatched SSE2/AVX2 block kernels, a
// galloping path for skewed run pairs, count-only variants); this header
// keeps the graph-level API every metric calls.
//
// Preconditions (inherited by every path, vector or scalar): per-vertex
// adjacency runs are sorted ascending and duplicate-free — exactly what
// `Graph`'s CSR constructor guarantees. Determinism: every entry point
// produces identical counts and fires callbacks on identical ascending
// element sequences for any dispatch choice (docs/SIMD.md).
//
// Who calls what (keep this current when rewiring a metric):
//
//   count-only (never pays a callback):
//     * metrics/triangles.cc  — CountTriangles via intersect::Count over
//       forward (degree-oriented) runs; VertexTriangleCounts (and so
//       LocalClusteringCoefficients) via intersect::Into into a reused
//       per-lane scratch run;
//     * metrics/ktruss.cc     — TrussNumbers' CountSupport:
//       CountCommonNeighbors(u, v);
//     * metrics/clustering.cc — TrianglesThrough (sampled cc):
//       CountCommonNeighbors(v, u);
//     * metrics/nucleus.cc    — per-triangle 4-clique support:
//       CountCommonNeighbors(a, b, c).
//
//   callback (needs the elements, not just the tally):
//     * metrics/ktruss.cc  — the peel demotes both side edges of every
//       surviving triangle: ForEachCommonNeighbor(u, v, ...);
//     * metrics/nucleus.cc — triangle enumeration (w > v filter) and the
//       3-way peel: ForEachCommonNeighbor(a, b, c, ...).

#ifndef GRAPHSCAPE_GRAPH_INTERSECT_H_
#define GRAPHSCAPE_GRAPH_INTERSECT_H_

#include <algorithm>

#include "graph/graph.h"
#include "graph/intersect_simd.h"

namespace graphscape {

/// Calls on_vertex(w) for every w adjacent to both u and v, ascending.
/// Thin wrapper over the intersection layer: skewed run pairs gallop
/// (exponential search through the longer run), balanced pairs take the
/// scalar merge — the callback sequence is identical either way. Callers
/// that only count should use CountCommonNeighbors instead; it reaches
/// the vectorized count kernels.
template <typename OnVertex>
inline void ForEachCommonNeighbor(const Graph& g, VertexId u, VertexId v,
                                  OnVertex&& on_vertex) {
  const Graph::NeighborRange ru = g.Neighbors(u);
  const Graph::NeighborRange rv = g.Neighbors(v);
  const VertexId* a = ru.begin();
  const VertexId* ea = ru.end();
  const VertexId* b = rv.begin();
  const VertexId* eb = rv.end();
  if (ea - a > eb - b) {
    std::swap(a, b);
    std::swap(ea, eb);
  }
  const size_t na = static_cast<size_t>(ea - a);
  const size_t nb = static_cast<size_t>(eb - b);
  if (na == 0) return;
  if (nb >= na * intersect::kGallopSkewRatio) {
    // Hub-vs-leaf shape: walk the short run, gallop through the long one.
    for (; a != ea; ++a) {
      b = intersect::detail::GallopSeek(b, eb, *a);
      if (b == eb) return;
      if (*b == *a) {
        on_vertex(*a);
        ++b;
      }
    }
    return;
  }
  while (a != ea && b != eb) {
    if (*a < *b) {
      ++a;
    } else if (*b < *a) {
      ++b;
    } else {
      on_vertex(*a);
      ++a;
      ++b;
    }
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

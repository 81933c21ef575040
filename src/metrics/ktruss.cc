// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "metrics/ktruss.h"

#include <algorithm>

#include "common/bucket_peel.h"
#include "common/parallel.h"
#include "graph/edge_index.h"
#include "graph/forward_adjacency.h"
#include "graph/intersect.h"

namespace graphscape {

std::vector<std::pair<VertexId, VertexId>> EdgeList(const Graph& g) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(g.NumEdges());
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (const VertexId v : g.Neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

namespace {

// Support = triangles per edge. Each triangle is listed once, from its
// degree-least vertex over the forward adjacency, and bumps the support
// of its three edges, whose ids sit parallel to the forward runs. On
// large sparse graphs nearly every run pair has no common element, so
// the vectorized count rejects those before the positional merge runs.
// Pivots run on the pool; the relaxed increments commute, so the tally
// is the same for every thread count. The forward arrays are freed on
// return, before the peel allocates its own.
std::vector<uint32_t> CountSupport(const Graph& g, const EdgeIndex& index,
                                   const ParallelOptions& options) {
  const ForwardAdjacency fwd = BuildForward(g, options, &index.SlotEdgeIds());
  std::vector<uint32_t> support(index.NumEdges(), 0);
  uint32_t* counts = support.data();
  const auto bump = [counts](uint32_t e) {
    __atomic_fetch_add(counts + e, 1u, __ATOMIC_RELAXED);
  };
  ParallelFor(0, g.NumVertices(), options, [&](uint64_t pivot) {
    const VertexId u = static_cast<VertexId>(pivot);
    const VertexId* run = fwd.Run(u);
    const uint32_t* ids = fwd.EdgeIds(u);
    const uint32_t len = fwd.RunLength(u);
    for (uint32_t k = 0; k < len; ++k) {
      const VertexId v = run[k];
      const VertexId* v_run = fwd.Run(v);
      const uint32_t v_len = fwd.RunLength(v);
      if (intersect::Count(run, len, v_run, v_len) == 0) continue;
      const uint32_t* v_ids = fwd.EdgeIds(v);
      ForEachCommonPosition(run, len, v_run, v_len,
                            [&](uint32_t i, uint32_t j) {
                              bump(ids[k]);
                              bump(ids[i]);
                              bump(v_ids[j]);
                            });
    }
  });
  return support;
}

// The peel proper: order-serial, since each peel demotes surviving edges,
// which decides who peels next. support[e] never falls below the number
// of live triangles through e (a dying triangle demotes both of its
// surviving side edges or neither, by at most one each), so an edge
// peeled at support 0 has none left and skips its intersection: truss 2.
// The others read both side edges from the slot ids at the matched CSR
// positions.
std::vector<uint32_t> PeelBySupport(const Graph& g, const EdgeIndex& index,
                                    std::vector<uint32_t>* support_in) {
  std::vector<uint32_t>& support = *support_in;
  const uint32_t m = index.NumEdges();
  const std::vector<uint32_t>& offsets = g.Offsets();
  const std::vector<uint32_t>& slot_eid = index.SlotEdgeIds();
  BucketPeeler peeler(&support);
  std::vector<char> peeled(m, 0);
  std::vector<uint32_t> truss(m, 2);
  for (uint32_t i = 0; i < m; ++i) {
    const uint32_t e = peeler.ItemAt(i);
    const uint32_t level = support[e];
    peeled[e] = 1;
    if (level == 0) continue;
    truss[e] = level + 2;
    const VertexId u = index.U(e), v = index.V(e);
    const Graph::NeighborRange ru = g.Neighbors(u);
    const Graph::NeighborRange rv = g.Neighbors(v);
    const uint32_t* u_ids = slot_eid.data() + offsets[u];
    const uint32_t* v_ids = slot_eid.data() + offsets[v];
    ForEachCommonPosition(
        ru.begin(), ru.size(), rv.begin(), rv.size(),
        [&](uint32_t iu, uint32_t iv) {
          const uint32_t e1 = u_ids[iu];
          const uint32_t e2 = v_ids[iv];
          // The triangle {u, v, w} only still supports e1/e2 if neither
          // has been peeled away already.
          if (!peeled[e1] && !peeled[e2]) {
            peeler.Demote(e1, level);
            peeler.Demote(e2, level);
          }
        });
  }
  return truss;
}

}  // namespace

std::vector<uint32_t> TrussNumbers(const Graph& g,
                                   const ParallelOptions& options) {
  const EdgeIndex index(g);
  std::vector<uint32_t> support = CountSupport(g, index, options);
  return PeelBySupport(g, index, &support);
}

}  // namespace graphscape

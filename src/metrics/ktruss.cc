// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "metrics/ktruss.h"

#include <algorithm>

#include "common/bucket_peel.h"
#include "common/parallel.h"
#include "graph/edge_index.h"
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

// The peel proper, after the support-counting pass. Order-serial: each
// peel demotes surviving edges, which decides who peels next.
std::vector<uint32_t> PeelBySupport(const Graph& g, const EdgeIndex& index,
                                    std::vector<uint32_t>* support_in);

// Support = triangles per edge; one independent count-only sorted-run
// intersection per edge (SIMD/galloping, no callback), so it runs on
// the pool with disjoint writes.
std::vector<uint32_t> CountSupport(const Graph& g, const EdgeIndex& index,
                                   const ParallelOptions& options) {
  std::vector<uint32_t> support(index.NumEdges(), 0);
  ParallelFor(0, support.size(), options, [&](uint64_t e) {
    support[e] = CountCommonNeighbors(g, index.U(static_cast<uint32_t>(e)),
                                      index.V(static_cast<uint32_t>(e)));
  });
  return support;
}

}  // namespace

std::vector<uint32_t> TrussNumbers(const Graph& g,
                                   const ParallelOptions& options) {
  const EdgeIndex index(g);
  std::vector<uint32_t> support = CountSupport(g, index, options);
  return PeelBySupport(g, index, &support);
}

namespace {

std::vector<uint32_t> PeelBySupport(const Graph& g, const EdgeIndex& index,
                                    std::vector<uint32_t>* support_in) {
  std::vector<uint32_t>& support = *support_in;
  const uint32_t m = index.NumEdges();
  BucketPeeler peeler(&support);
  std::vector<char> peeled(m, 0);
  std::vector<uint32_t> truss(m, 2);
  for (uint32_t i = 0; i < m; ++i) {
    const uint32_t e = peeler.ItemAt(i);
    const uint32_t level = support[e];
    truss[e] = level + 2;
    peeled[e] = 1;
    const VertexId u = index.U(e), v = index.V(e);
    ForEachCommonNeighbor(g, u, v, [&](VertexId w) {
      const uint32_t e1 = index.EdgeId(u, w);
      const uint32_t e2 = index.EdgeId(v, w);
      // The triangle {u, v, w} only still supports e1/e2 if neither has
      // been peeled away already.
      if (!peeled[e1] && !peeled[e2]) {
        peeler.Demote(e1, level);
        peeler.Demote(e2, level);
      }
    });
  }
  return truss;
}

}  // namespace

}  // namespace graphscape

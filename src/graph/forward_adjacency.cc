// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "graph/forward_adjacency.h"

#include <algorithm>

namespace graphscape {
namespace {

// Degree order with id tie-break.
inline bool Before(const Graph& g, VertexId a, VertexId b) {
  const uint32_t da = g.Degree(a), db = g.Degree(b);
  return da < db || (da == db && a < b);
}

}  // namespace

ForwardAdjacency BuildForward(const Graph& g, const ParallelOptions& options,
                              const std::vector<uint32_t>* slot_edge_ids) {
  const uint32_t n = g.NumVertices();
  ForwardAdjacency fwd;
  fwd.offsets.assign(n + 1, 0);
  ParallelFor(0, n, options, [&](uint64_t i) {
    const VertexId u = static_cast<VertexId>(i);
    uint32_t out = 0;
    for (const VertexId v : g.Neighbors(u)) {
      if (Before(g, u, v)) ++out;
    }
    fwd.offsets[u + 1] = out;
  });
  for (VertexId u = 0; u < n; ++u) {
    fwd.max_out_degree = std::max(fwd.max_out_degree, fwd.offsets[u + 1]);
    fwd.offsets[u + 1] += fwd.offsets[u];
  }

  fwd.targets.resize(fwd.offsets[n]);
  if (slot_edge_ids != nullptr) fwd.edge_ids.resize(fwd.offsets[n]);
  const uint32_t* slot_ids =
      slot_edge_ids != nullptr ? slot_edge_ids->data() : nullptr;
  const std::vector<uint32_t>& offsets = g.Offsets();
  const std::vector<VertexId>& adj = g.Adjacency();
  ParallelFor(0, n, options, [&](uint64_t i) {
    const VertexId u = static_cast<VertexId>(i);
    uint32_t next = fwd.offsets[u];
    for (uint32_t s = offsets[u]; s < offsets[u + 1]; ++s) {
      if (!Before(g, u, adj[s])) continue;
      fwd.targets[next] = adj[s];
      if (slot_ids != nullptr) fwd.edge_ids[next] = slot_ids[s];
      ++next;
    }
  });
  return fwd;
}

}  // namespace graphscape

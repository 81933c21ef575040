// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "metrics/pagerank.h"

#include <cmath>
#include <utility>

namespace graphscape {

std::vector<double> PageRank(const Graph& g, const PageRankOptions& options,
                             const ParallelOptions& parallel) {
  const uint32_t n = g.NumVertices();
  if (n == 0) return {};
  const double inv_n = 1.0 / static_cast<double>(n);
  std::vector<double> rank(n, inv_n);
  std::vector<double> next(n, 0.0);
  std::vector<double> share(n, 0.0);
  double* rank_data = rank.data();
  double* next_data = next.data();
  double* const share_data = share.data();

  for (uint32_t iter = 0; iter < options.max_iterations; ++iter) {
    double dangling = 0.0;
    for (uint32_t v = 0; v < n; ++v) {
      if (g.Degree(v) == 0) dangling += rank_data[v];
    }
    const double base = (1.0 - options.damping) * inv_n +
                        options.damping * dangling * inv_n;
    // share[v] is the `damping * rank[v] / deg(v)` term v sends to each
    // neighbor, computed once per vertex rather than once per edge.
    ParallelFor(0, n, parallel, [&](uint64_t v) {
      const uint32_t d = g.Degree(static_cast<VertexId>(v));
      if (d != 0) share_data[v] = options.damping * rank_data[v] / d;
    });
    // Pull form: next[u] adds its neighbors' shares in ascending-neighbor
    // order (CSR runs are sorted), the order a push loop over v
    // ascending would add them in; the u's are independent, hence the
    // parallel loop.
    ParallelFor(0, n, parallel, [&, base](uint64_t u) {
      double acc = base;
      for (const VertexId v : g.Neighbors(static_cast<VertexId>(u))) {
        acc += share_data[v];
      }
      next_data[u] = acc;
    });
    double delta = 0.0;
    for (uint32_t v = 0; v < n; ++v)
      delta += std::abs(next_data[v] - rank_data[v]);
    rank.swap(next);
    std::swap(rank_data, next_data);
    if (delta < options.tolerance) break;
  }
  return rank;
}

}  // namespace graphscape

// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// PageRank over the undirected graph (each edge walked both ways) by power
// iteration on two flat double arrays. Isolated vertices act as dangling
// nodes: their mass is redistributed uniformly so the vector keeps summing
// to 1.

#ifndef GRAPHSCAPE_METRICS_PAGERANK_H_
#define GRAPHSCAPE_METRICS_PAGERANK_H_

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"

namespace graphscape {

struct PageRankOptions {
  double damping = 0.85;
  uint32_t max_iterations = 50;
  double tolerance = 1e-10;  ///< L1 change threshold for early exit.
};

/// PageRank with the per-iteration gather on the pool — BIT-IDENTICAL
/// for every thread count. next[u] is pulled over u's sorted CSR run,
/// adding `damping * rank[v] / deg(v)` in ascending neighbor order, so
/// each sum is the same IEEE ops in the same order at any width (and the
/// same as the textbook push loop over v ascending). The u's are
/// independent of each other; the dangling-mass and L1-delta folds stay
/// sequential (O(n), and a tree reduction would reorder them).
std::vector<double> PageRank(const Graph& g,
                             const PageRankOptions& options = {},
                             const ParallelOptions& parallel = {1, 0});

/// Kept only for perfbench/, which the benchmark definition freezes; it
/// goes when the benchmark is next redefined.
inline std::vector<double> PageRankParallel(const Graph& g,
                                            const PageRankOptions& options,
                                            const ParallelOptions& parallel) {
  return PageRank(g, options, parallel);
}

}  // namespace graphscape

#endif  // GRAPHSCAPE_METRICS_PAGERANK_H_

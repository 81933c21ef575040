// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "metrics/triangles.h"

#include <algorithm>
#include <utility>

#include "graph/forward_adjacency.h"
#include "graph/intersect.h"

namespace graphscape {
namespace {

// Count-only per-pivot tally: triangles sourced at u. The pool
// partitions work by pivot; integer partial sums are
// partition-invariant, so thread count can never show through.
inline uint64_t TrianglesFromPivot(const ForwardAdjacency& fwd, VertexId u) {
  uint64_t count = 0;
  const VertexId* run = fwd.Run(u);
  const uint32_t len = fwd.RunLength(u);
  for (uint32_t k = 0; k < len; ++k) {
    const VertexId v = run[k];
    count += intersect::Count(run, len, fwd.Run(v), fwd.RunLength(v));
  }
  return count;
}

// Per-vertex tally from pivot u: each common neighbor w of (u, v ∈
// fwd(u)) closes one triangle touching u, v, and w. Needs the elements,
// so it goes through intersect::Into into the caller's reused scratch
// run (sized fwd.max_out_degree — never reallocated in the loop).
inline void VertexTrianglesFromPivot(const ForwardAdjacency& fwd, VertexId u,
                                     VertexId* scratch, uint32_t* counts) {
  const VertexId* run = fwd.Run(u);
  const uint32_t len = fwd.RunLength(u);
  for (uint32_t k = 0; k < len; ++k) {
    const VertexId v = run[k];
    const uint32_t hits =
        intersect::Into(run, len, fwd.Run(v), fwd.RunLength(v), scratch);
    counts[u] += hits;
    counts[v] += hits;
    for (uint32_t h = 0; h < hits; ++h) ++counts[scratch[h]];
  }
}

}  // namespace

uint64_t CountTriangles(const Graph& g, const ParallelOptions& options) {
  const uint32_t n = g.NumVertices();
  const ForwardAdjacency fwd = BuildForward(g, options);
  // Fixed-order sum of per-block integer partials: exact, so the
  // blocking (and therefore the thread count) cannot show through.
  return ParallelReduce<uint64_t>(
      0, n, options, 0,
      [&](uint64_t u, uint64_t* acc) {
        *acc += TrianglesFromPivot(fwd, static_cast<VertexId>(u));
      },
      [](uint64_t total, uint64_t partial) { return total + partial; });
}

std::vector<uint32_t> VertexTriangleCounts(const Graph& g,
                                           const ParallelOptions& options) {
  const uint32_t n = g.NumVertices();
  const uint64_t grain = options.grain == 0 ? 512 : options.grain;
  const uint64_t num_blocks = (n + grain - 1) / grain;
  // Must match what ParallelForBlocks below resolves to, so every lane
  // id the body sees has an arena.
  const uint32_t lanes =
      std::max(1u, EffectiveLanes({options.num_threads, 1}, num_blocks));
  const ForwardAdjacency fwd = BuildForward(g, options);

  // Per-lane count arenas plus one Into() scratch run per lane, all
  // allocated up front on the calling thread; a pivot's tallies go to
  // its lane's arena, so lanes never share mutable state. Which arena a
  // triangle lands in varies run to run (blocks are claimed
  // dynamically), but the per-vertex SUM over arenas is an integer and
  // therefore partition-invariant — exactly the one-lane counts.
  std::vector<std::vector<uint32_t>> arenas(lanes);
  for (std::vector<uint32_t>& arena : arenas) arena.assign(n, 0);
  std::vector<std::vector<VertexId>> scratch(lanes);
  for (std::vector<VertexId>& s : scratch) s.assign(fwd.max_out_degree, 0);
  ParallelForBlocks(num_blocks, options, [&](uint64_t block, uint32_t lane) {
    const uint64_t lo = block * grain;
    const uint64_t hi = lo + grain < n ? lo + grain : n;
    for (uint64_t u = lo; u < hi; ++u) {
      VertexTrianglesFromPivot(fwd, static_cast<VertexId>(u),
                               scratch[lane].data(), arenas[lane].data());
    }
  });

  // Lane 0's arena becomes the result; the others fold into it in fixed
  // lane order (integer, so order is moot — kept fixed anyway to match
  // the documented contract). A single lane skips the fold entirely.
  std::vector<uint32_t> counts = std::move(arenas[0]);
  if (lanes > 1) {
    ParallelFor(0, n, options, [&](uint64_t v) {
      for (uint32_t lane = 1; lane < lanes; ++lane) {
        counts[v] += arenas[lane][v];
      }
    });
  }
  return counts;
}

}  // namespace graphscape

// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// The shared core both scalar-tree paths (vertex fields, Algorithm 1;
// edge fields, Algorithm 3 — see PAPER.md / paper §II-C) instantiate:
// the (value, id) rank sort, the path-halving union-find primitive, the
// attach-and-union merge step, uniform level quantization (§II-E), and
// Algorithm 2's same-value chain contraction (§II-D).
//
// The invariants that make one core serve both element types:
//
//  * Rank sort (SortSweepOrder). The sweep runs DESCENDING in value —
//    the paper's superlevel-set orientation, G[t] = {x : f(x) >= t} —
//    because the analysis layer's whole vocabulary (peaks, dense cores,
//    persistence of maxima) is about components of superlevel sets: a
//    minima-first sweep provably cannot answer "how many disconnected
//    dense cores exist at level t" (two disconnected K-max cores would
//    contract into one same-value chain). Ties broken by ascending id
//    give a TOTAL order over field elements, so "the component
//    containing x when element y is swept" is well defined even on
//    plateau-heavy integer fields (K-Core, K-Truss). Both algorithms
//    sweep strictly in rank order; every downstream structure quotes
//    ranks, never raw values.
//
//  * Attach-and-union (AttachAndUnion). A union-find root stands for one
//    growing superlevel-set component; head[root] is the LAST element of
//    that component the sweep has seen. When the element being swept
//    touches a component, the component's head becomes its child — then
//    the two union-find classes merge by size and the surviving root's
//    head becomes the swept element. Consequences both paths rely on:
//    parents appear after children in sweep order (SweepOrder()), values
//    are non-increasing toward the root (leaves are local maxima, each
//    component's root is its minimum), and Algorithm 2 can contract in
//    ONE reverse pass (ContractSameValueChains).
//
//  * Element-space neutrality. Nothing here touches the graph: Algorithm
//    1 feeds vertex ids whose adjacency comes from CSR runs; Algorithm 3
//    feeds edge ids whose adjacency is implicit in the union-find over
//    ORIGINAL vertices (two edges are neighbors iff they share an
//    endpoint — the twin mapping in graph/edge_index.h fixes the id
//    space). That is why SimplifiedVertexSuperTree and
//    SimplifiedEdgeSuperTree bucket identically (SnapToLevels) and why
//    tests pin vertex-vs-edge bucketing to be the same.
//
//  * What the parallel builds lean on (docs/PARALLELISM.md). Three of
//    the invariants above are exactly what makes the chunked sweep of a
//    multi-lane BuildVertexScalarTree byte-identical to the one-lane
//    plain sweep: (1) the sweep comparator is a STRICT TOTAL order, so
//    the sorted (order, rank) arrays are unique — SortSweepOrder may
//    schedule its chunk sorts and co-rank merges any way it likes and
//    must still produce the same bytes; (2) at the moment element w is
//    swept, w's component is the singleton {w} (every edge of w
//    activates at key >= rank(w)), so a replay that re-derives Find(w)
//    sees exactly what the sequential sweep saw; (3) a chunk-local
//    union-find only ever processes a PREFIX-SUBSET of the edges the
//    global sweep has processed at the same point, so local connectivity
//    implies global connectivity — an intra-chunk edge that is locally
//    redundant is provably a no-op in the sequential sweep and can be
//    dropped before the ordered boundary replay. Per-chunk scratch
//    (local union-find arrays, kept-edge buffers) is allocated by the
//    CALLING thread before the region starts and owned by exactly one
//    chunk; lanes never share mutable state.
//
// Everything operates on pre-sized flat arrays so the callers' sweep
// loops stay allocation-free (tests/allocation_test.cc).

#ifndef GRAPHSCAPE_SCALAR_TREE_CORE_H_
#define GRAPHSCAPE_SCALAR_TREE_CORE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "scalar/scalar_tree.h"
#include "scalar/super_tree.h"

namespace graphscape {
namespace tree_core {

// Path-halving find: every probe shortcuts grandparent links, so repeated
// finds flatten the forest without a second pass. No recursion, no stack.
inline uint32_t Find(uint32_t* uf, uint32_t x) {
  while (uf[x] != x) {
    uf[x] = uf[uf[x]];
    x = uf[x];
  }
  return x;
}

// The single sort both algorithms hinge on: node ids by (value
// descending, id ascending) — the superlevel sweep order. Fills *order
// with the sorted ids and *rank with its inverse; comparing ranks is the
// total order used by every sweep (rank 0 is the global maximum). One
// lane, or fewer than 4096 elements, is a plain std::sort; wider runs
// sort per-lane chunks and merge them in co-rank-split rounds on the
// pool. The comparator is a strict total order, so the sorted sequence
// is UNIQUE — the output arrays are byte-identical for every thread
// count and every chunking.
void SortSweepOrder(const std::vector<double>& values,
                    std::vector<uint32_t>* order, std::vector<uint32_t>* rank,
                    const ParallelOptions& options = {1, 0});

// Rank-space chunk boundaries for the phase-A local sweeps of the
// multi-lane BuildVertexScalarTree: min(max_chunks, max(1, n / min_chunk))
// nearly equal ranges as a bounds array of size C+1. The chunking choice
// affects only load balance, never the result (see the header comment);
// tests shrink min_chunk to force adversarial boundaries.
std::vector<uint64_t> MakeSweepChunks(uint64_t n, uint32_t max_chunks,
                                      uint64_t min_chunk);

// One merge step of the sweep: the component rooted at `ru` finishes
// growing — its head becomes a child of sweep node `w` — then unions by
// size into `rw`. The surviving root's head becomes `w`; returns it.
inline uint32_t AttachAndUnion(uint32_t ru, uint32_t rw, uint32_t w,
                               uint32_t* uf, uint32_t* comp_size,
                               uint32_t* head, uint32_t* parent) {
  parent[head[ru]] = w;
  uint32_t big = rw, small = ru;
  if (comp_size[big] < comp_size[small]) std::swap(big, small);
  uf[small] = big;
  comp_size[big] += comp_size[small];
  head[big] = w;
  return big;
}

// §II-E quantization, shared verbatim by the vertex and edge paths so
// SimplifiedVertexSuperTree and SimplifiedEdgeSuperTree bucket
// identically: snap each value to the lower fence of its bucket among
// `levels` uniform buckets spanning [lo, hi]. levels == 0 is treated as
// 1; a degenerate range returns the values unchanged.
inline std::vector<double> SnapToLevels(const std::vector<double>& values,
                                        double lo, double hi,
                                        uint32_t levels) {
  if (levels == 0) levels = 1;
  const double range = hi - lo;
  std::vector<double> snapped(values);
  if (range <= 0.0) return snapped;

  const double width = range / static_cast<double>(levels);
  for (double& v : snapped) {
    uint32_t bucket = static_cast<uint32_t>((v - lo) / width);
    // The maximum lands exactly on the upper fence; fold it into the top
    // bucket so exactly `levels` distinct values are possible.
    bucket = std::min(bucket, levels - 1);
    v = lo + width * static_cast<double>(bucket);
  }
  return snapped;
}

// Algorithm 2's output, as flat arrays SuperTree adopts by move.
struct Contraction {
  std::vector<double> node_values;
  std::vector<uint32_t> node_parents;
  std::vector<uint32_t> member_counts;
  std::vector<uint32_t> node_of;  // tree node -> super node
  uint32_t num_roots = 0;
};

// Algorithm 2: contract every maximal same-value connected subtree into
// one super node. Works for any ScalarTree — the nodes may be graph
// vertices (Algorithm 1) or edges (Algorithm 3); contraction only reads
// parent links, values, and the sweep order. Because SweepOrder() lists
// parents after children, one reverse pass suffices: a node either joins
// its parent's super node (equal value) or opens a new one whose parent
// is its parent's super node.
inline Contraction ContractSameValueChains(const ScalarTree& tree) {
  const uint32_t n = tree.NumNodes();
  Contraction c;
  c.node_of.assign(n, kInvalidSuperNode);
  // Worst case (all values distinct) produces n super nodes; reserving
  // up front keeps the pass allocation-free.
  c.node_values.reserve(n);
  c.node_parents.reserve(n);
  c.member_counts.reserve(n);

  const std::vector<VertexId>& order = tree.SweepOrder();
  for (uint32_t i = n; i-- > 0;) {
    const VertexId v = order[i];
    const VertexId p = tree.Parent(v);
    if (p != kInvalidVertex && tree.Value(p) == tree.Value(v)) {
      const uint32_t node = c.node_of[p];
      c.node_of[v] = node;
      ++c.member_counts[node];
      continue;
    }
    const uint32_t node = static_cast<uint32_t>(c.node_values.size());
    c.node_values.push_back(tree.Value(v));
    c.member_counts.push_back(1);
    if (p == kInvalidVertex) {
      c.node_parents.push_back(kInvalidSuperNode);
      ++c.num_roots;
    } else {
      c.node_parents.push_back(c.node_of[p]);
    }
    c.node_of[v] = node;
  }
  return c;
}

}  // namespace tree_core
}  // namespace graphscape

#endif  // GRAPHSCAPE_SCALAR_TREE_CORE_H_

// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Algorithm 1 (paper §II-C): the vertex scalar tree.
//
// Every graph vertex is a tree node; Parent(v) is the vertex at which v's
// superlevel-set component G[t] = {x : f(x) >= t} merges into a component
// born higher. Values are non-increasing toward the root: leaves are
// local maxima of the field (the paper's peaks — dense cores under
// K-Core/K-Truss fields), each connected component's root is its minimum.
// Ties are broken by ascending vertex id, giving a total order ("rank")
// and a deterministic tree for duplicate-heavy fields.
//
// Construction is engineered for the memory-bound reality of merge trees
// (cf. TACHYON): ONE sort — vertices by (value desc, id asc) — then a
// union-find sweep over edges in nondecreasing activation order. An edge
// {u, v} activates at key max(rank(u), rank(v)); walking vertices in rank
// order and scanning each one's CSR run enumerates edges already grouped
// and sorted by that key, so the per-edge counting sort is implicit in the
// CSR layout and costs zero extra passes. The sweep uses path-halving find
// with union by size over three pre-sized flat uint32 arrays; tree nodes
// live in the parallel arrays below (a struct-of-arrays arena) — no
// per-node heap allocation anywhere in the loop.

#ifndef GRAPHSCAPE_SCALAR_SCALAR_TREE_H_
#define GRAPHSCAPE_SCALAR_SCALAR_TREE_H_

#include <cstdint>
#include <vector>

#include "common/budget.h"
#include "common/parallel.h"
#include "common/status.h"
#include "graph/graph.h"
#include "scalar/scalar_field.h"

namespace graphscape {

class ScalarTree {
 public:
  ScalarTree() = default;
  ScalarTree(std::vector<VertexId> parents, std::vector<double> values,
             std::vector<VertexId> order, uint32_t num_roots)
      : parents_(std::move(parents)),
        values_(std::move(values)),
        order_(std::move(order)),
        num_roots_(num_roots) {}

  /// One node per field element: graph vertices for Algorithm 1, edge
  /// ids for Algorithm 3 (scalar/edge_scalar_tree.h).
  uint32_t NumNodes() const { return static_cast<uint32_t>(parents_.size()); }

  /// kInvalidVertex for roots.
  VertexId Parent(VertexId v) const { return parents_[v]; }

  double Value(VertexId v) const { return values_[v]; }

  /// Connected components of the graph for vertex trees; edge-bearing
  /// components for edge trees (isolated vertices have no edge node).
  uint32_t NumRoots() const { return num_roots_; }

  const std::vector<VertexId>& Parents() const { return parents_; }
  const std::vector<double>& Values() const { return values_; }

  /// Node ids in (value descending, id ascending) order — the superlevel
  /// sweep order of Algorithms 1/3. Parents always appear AFTER their
  /// children here, which is what lets Algorithm 2 run as a single linear
  /// pass.
  const std::vector<VertexId>& SweepOrder() const { return order_; }

 private:
  std::vector<VertexId> parents_;
  std::vector<double> values_;
  std::vector<VertexId> order_;
  uint32_t num_roots_ = 0;
};

/// Algorithm 1. Requires field.Size() == g.NumVertices(). One lane (the
/// default) runs the plain sweep described above. Wider options run the
/// chunked build, byte-identical to the plain sweep for EVERY thread
/// count (pinned by tests/parallel_test.cc; determinism argument in
/// docs/PARALLELISM.md). Three phases: a parallel (value desc, id asc)
/// sort — unique result, the comparator is a total order — then
/// chunk-local union-find sweeps over rank-partitioned chunks that drop
/// provably redundant intra-chunk edges, then a sequential boundary
/// replay of the kept edges in sweep order, which performs the exact
/// merge sequence of the plain sweep. options.grain overrides the
/// minimum sweep-chunk length (default 4096 — tests shrink it to force
/// adversarial chunk boundaries).
ScalarTree BuildVertexScalarTree(const Graph& g, const VertexScalarField& field,
                                 const ParallelOptions& options = {1, 0});

/// Kept only for perfbench/, which the benchmark definition freezes; it
/// goes when the benchmark is next redefined.
inline ScalarTree BuildVertexScalarTreeParallel(
    const Graph& g, const VertexScalarField& field,
    const ParallelOptions& options) {
  return BuildVertexScalarTree(g, field, options);
}

/// Working-set bytes BuildVertexScalarTree allocates for an n-vertex
/// graph (order/rank, union-find state, parents, the values copy) — the
/// amount the guarded build charges before running.
uint64_t VertexScalarTreeBuildBytes(uint32_t num_vertices);

/// Budget-guarded Algorithm 1: charges the working set against `budget`
/// (nullptr = unlimited) before allocating and checks the deadline, so
/// an over-budget build refuses with ResourceExhausted /
/// DeadlineExceeded instead of dying in the allocator mid-sweep. A
/// field/graph size mismatch is InvalidArgument here (the unguarded
/// build asserts). The charge is NOT released on success — the caller
/// owns the returned tree's memory and releases when it drops it.
StatusOr<ScalarTree> BuildVertexScalarTreeGuarded(
    const Graph& g, const VertexScalarField& field,
    ResourceBudget* budget);

}  // namespace graphscape

#endif  // GRAPHSCAPE_SCALAR_SCALAR_TREE_H_

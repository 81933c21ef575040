// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Algorithm 3 (paper §II-C): the scalar tree of an *edge* field — K-Truss
// trussness, (3,4)-nucleus values, edge weights. Two edges are neighbors
// when they share an endpoint, so the level sets live on the dual (line)
// graph; the naive method materializes that graph and pays Θ(Σ deg²),
// which explodes on hubs (the paper's 16334 s Wikipedia cell).
//
// The optimized build never touches the dual graph. It runs the same
// sweep as Algorithm 1 — ONE sort, edges by (value desc, id asc), the
// superlevel orientation — but keeps the union-find over *vertices* of
// the original graph: an edge-level-set component is exactly a set of
// vertices connected by already-swept edges, so sweeping edge {u, v}
// merges the components at u and v and chains their head edges under the
// new edge. Total cost O(E log E) for the sort plus near-linear
// union-find, independent of degree skew.
//
// The result is an ordinary ScalarTree whose node ids are edge ids in
// EdgeList order (graph/edge_index.h) — Algorithm 2 (SuperTree) and the
// §II-E simplification apply unchanged, which is the point of the shared
// core in scalar/tree_core.h.

#ifndef GRAPHSCAPE_SCALAR_EDGE_SCALAR_TREE_H_
#define GRAPHSCAPE_SCALAR_EDGE_SCALAR_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/parallel.h"
#include "common/status.h"
#include "graph/graph.h"
#include "scalar/scalar_field.h"
#include "scalar/scalar_tree.h"
#include "scalar/super_tree.h"

namespace graphscape {

/// One scalar per undirected edge, indexed in EdgeList order (ascending
/// smaller endpoint, then larger) — the order TrussNumbers and
/// EdgeIndex use.
class EdgeScalarField : public internal::CheckedScalarField {
 public:
  EdgeScalarField(std::string name, std::vector<double> values)
      : CheckedScalarField("EdgeScalarField", std::move(name),
                           std::move(values)) {}

  /// Lifts an integer edge metric (truss numbers, ...) to a field.
  template <typename Count>
  static EdgeScalarField FromCounts(std::string name,
                                    const std::vector<Count>& counts) {
    std::vector<double> values(counts.begin(), counts.end());
    return EdgeScalarField(std::move(name), std::move(values));
  }
};

/// Algorithm 3. Requires field.Size() == g.NumEdges(). The returned
/// tree's nodes are edge ids; NumRoots() is the number of connected
/// components that contain at least one edge (isolated vertices have no
/// edge-tree presence). The sweep loop itself performs zero heap
/// allocations. With wider options the (value desc, id asc) sort runs on
/// the pool, byte-identical for every thread count; the sweep stays
/// sequential BY DESIGN: its same-component case is a plateau CHAIN
/// (parent[head] = e; head = e), not a no-op, so the prune-and-replay
/// filter that parallelizes the vertex sweep is unsound here — a
/// chunk-local sweep cannot know the global head an edge must chain
/// under. See docs/PARALLELISM.md.
ScalarTree BuildEdgeScalarTree(const Graph& g, const EdgeScalarField& field,
                               const ParallelOptions& options = {1, 0});

/// Kept only for perfbench/, which the benchmark definition freezes; it
/// goes when the benchmark is next redefined.
inline ScalarTree BuildEdgeScalarTreeParallel(const Graph& g,
                                              const EdgeScalarField& field,
                                              const ParallelOptions& options) {
  return BuildEdgeScalarTree(g, field, options);
}

/// Working-set bytes BuildEdgeScalarTree allocates for n vertices and m
/// edges — what the guarded build charges before running.
uint64_t EdgeScalarTreeBuildBytes(uint32_t num_vertices, uint64_t num_edges);

/// Budget-guarded Algorithm 3 (see BuildVertexScalarTreeGuarded for the
/// charge/deadline contract): ResourceExhausted / DeadlineExceeded
/// instead of allocator death, InvalidArgument on a field size mismatch.
StatusOr<ScalarTree> BuildEdgeScalarTreeGuarded(const Graph& g,
                                                const EdgeScalarField& field,
                                                ResourceBudget* budget);

/// The naive dual-graph baseline: materialize the line graph and run
/// Algorithm 1 on it. Produces a tree identical to BuildEdgeScalarTree
/// (same definition, same tie-break) at Θ(Σ deg²) cost; kept as the
/// Table II / microbench comparison point and as a cross-check oracle.
/// Fails with ResourceExhausted when the line graph would exceed
/// `max_line_edges` adjacencies instead of exhausting memory.
StatusOr<ScalarTree> BuildEdgeScalarTreeNaive(
    const Graph& g, const EdgeScalarField& field,
    uint64_t max_line_edges = 1ull << 28);

/// Algorithm 2 over an edge tree. A SuperTree whose nodes contract
/// same-value edge chains; MemberCount() counts edges, NodeOf() maps
/// edge ids.
using EdgeSuperTree = SuperTree;
EdgeSuperTree BuildEdgeSuperTree(const Graph& g,
                                 const EdgeScalarField& field);

// ---- Field producers: the paper's real edge fields (§III, Fig. 7). ----

/// K-Truss trussness as an edge field (values >= 2).
EdgeScalarField TrussnessEdgeField(const Graph& g);

/// (3,4)-nucleus values lifted to edges: each edge takes the maximum
/// nucleus number over the triangles containing it (0 if triangle-free).
/// Inherits Nucleus34's < 2^21-vertex precondition.
EdgeScalarField NucleusEdgeField(const Graph& g);

}  // namespace graphscape

#endif  // GRAPHSCAPE_SCALAR_EDGE_SCALAR_TREE_H_

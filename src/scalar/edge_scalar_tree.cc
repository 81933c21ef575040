// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "scalar/edge_scalar_tree.h"

#include <cassert>
#include <numeric>

#include "common/string_util.h"
#include "graph/edge_index.h"
#include "graph/graph_builder.h"
#include "metrics/ktruss.h"
#include "metrics/nucleus.h"
#include "scalar/tree_core.h"

namespace graphscape {

namespace {

// The Algorithm 3 sweep proper, given the sweep order (adopted into the
// returned tree). It only needs endpoints per edge id, never the CSR
// twin mapping — the graph already stores them in EdgeList order.
ScalarTree SweepEdges(const Graph& g, const std::vector<double>& values,
                      std::vector<uint32_t> order) {
  const uint32_t n = g.NumVertices();
  const uint32_t m = static_cast<uint32_t>(order.size());
  const VertexId* const eu = g.EdgeSources().data();
  const VertexId* const ev = g.EdgeTargets().data();
  // Union-find over the ORIGINAL graph's vertices — this is what makes
  // the dual graph unnecessary. head[r] is the latest-swept edge in the
  // vertex component rooted at r, or kInvalidVertex while the component
  // has no active edges.
  std::vector<uint32_t> uf(n);
  std::iota(uf.begin(), uf.end(), 0u);
  std::vector<uint32_t> comp_size(n, 1);
  std::vector<uint32_t> head(n, kInvalidVertex);
  std::vector<VertexId> parents(m, kInvalidVertex);

  // Sweep edges in rank order. Zero heap allocations in this loop.
  uint32_t* const uf_data = uf.data();
  uint32_t* const size_data = comp_size.data();
  uint32_t* const head_data = head.data();
  VertexId* const parent_data = parents.data();
  uint32_t num_roots = 0;
  for (uint32_t k = 0; k < m; ++k) {
    const uint32_t e = order[k];
    const uint32_t ru = tree_core::Find(uf_data, eu[e]);
    const uint32_t rv = tree_core::Find(uf_data, ev[e]);
    if (ru == rv) {
      // Both endpoints already joined by swept edges: e extends that
      // component's chain. (A union always sets the head, so it's valid.)
      parent_data[head_data[ru]] = e;
      head_data[ru] = e;
      continue;
    }
    const bool u_active = head_data[ru] != kInvalidVertex;
    const bool v_active = head_data[rv] != kInvalidVertex;
    if (u_active) parent_data[head_data[ru]] = e;
    if (v_active) parent_data[head_data[rv]] = e;
    if (!u_active && !v_active) ++num_roots;  // e opens a new component
    if (u_active && v_active) --num_roots;    // e merges two components
    uint32_t big = ru, small = rv;
    if (size_data[big] < size_data[small]) std::swap(big, small);
    uf_data[small] = big;
    size_data[big] += size_data[small];
    head_data[big] = e;
  }

  return ScalarTree(std::move(parents), std::vector<double>(values),
                    std::move(order), num_roots);
}

}  // namespace

ScalarTree BuildEdgeScalarTree(const Graph& g, const EdgeScalarField& field,
                               const ParallelOptions& options) {
  assert(field.Size() == g.NumEdges());
  // The single sort: edges by (value desc, id asc) — superlevel sweep.
  std::vector<uint32_t> order, rank;
  tree_core::SortSweepOrder(field.Values(), &order, &rank, options);
  return SweepEdges(g, field.Values(), std::move(order));
}

uint64_t EdgeScalarTreeBuildBytes(uint32_t num_vertices,
                                  uint64_t num_edges) {
  // Per vertex: uf + comp_size + head (u32 each). Per edge: order +
  // rank + parents (u32 each; endpoints come straight from the graph)
  // plus the values copy (f64).
  return static_cast<uint64_t>(num_vertices) * 12 + num_edges * (3 * 4 + 8);
}

StatusOr<ScalarTree> BuildEdgeScalarTreeGuarded(const Graph& g,
                                                const EdgeScalarField& field,
                                                ResourceBudget* budget) {
  if (field.Size() != g.NumEdges()) {
    return Status::InvalidArgument(StrPrintf(
        "edge_scalar_tree: field has %u values for %llu edges",
        field.Size(), static_cast<unsigned long long>(g.NumEdges())));
  }
  Status status = CheckBudgetDeadline(budget, "BuildEdgeScalarTree");
  if (!status.ok()) return status;
  status = ChargeBudget(
      budget, EdgeScalarTreeBuildBytes(g.NumVertices(), g.NumEdges()),
      "BuildEdgeScalarTree");
  if (!status.ok()) return status;
  return BuildEdgeScalarTree(g, field);
}

StatusOr<ScalarTree> BuildEdgeScalarTreeNaive(const Graph& g,
                                              const EdgeScalarField& field,
                                              uint64_t max_line_edges) {
  const EdgeIndex index(g);
  const uint32_t m = index.NumEdges();
  assert(field.Size() == m);

  // Guard the Θ(Σ deg²) blowup before committing memory: every pair of
  // CSR slots at a vertex becomes a line-graph edge.
  uint64_t line_edges = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const uint64_t d = g.Degree(v);
    line_edges += d * (d - 1) / 2;
  }
  if (line_edges > max_line_edges) {
    return Status::ResourceExhausted(StrPrintf(
        "line graph needs %llu edges, cap is %llu",
        static_cast<unsigned long long>(line_edges),
        static_cast<unsigned long long>(max_line_edges)));
  }

  // Materialize the dual: one vertex per edge id, cliques over each
  // original vertex's incident edges.
  GraphBuilder builder(m);
  builder.Reserve(static_cast<size_t>(line_edges));
  const std::vector<uint32_t>& offsets = g.Offsets();
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (uint32_t s = offsets[v]; s < offsets[v + 1]; ++s) {
      for (uint32_t t = s + 1; t < offsets[v + 1]; ++t) {
        builder.AddEdge(index.EdgeAtSlot(s), index.EdgeAtSlot(t));
      }
    }
  }
  const Graph line_graph = builder.Build();
  return BuildVertexScalarTree(
      line_graph, VertexScalarField(field.Name(), field.Values()));
}

EdgeSuperTree BuildEdgeSuperTree(const Graph& g,
                                 const EdgeScalarField& field) {
  return SuperTree(BuildEdgeScalarTree(g, field));
}

EdgeScalarField TrussnessEdgeField(const Graph& g) {
  return EdgeScalarField::FromCounts("trussness", TrussNumbers(g));
}

EdgeScalarField NucleusEdgeField(const Graph& g) {
  return EdgeScalarField::FromCounts("nucleus34", NucleusEdgeNumbers(g));
}

}  // namespace graphscape

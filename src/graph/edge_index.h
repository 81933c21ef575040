// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Canonical undirected edge ids over the CSR structure, shared by every
// edge-indexed subsystem (K-Truss support peeling, nucleus lifting, edge
// scalar trees). Edge e's id is its position in EdgeList order: ascending
// smaller endpoint, then larger — exactly the order TrussNumbers and
// EdgeScalarField values are laid out in.
//
// This id space is the hinge between the paper's two tree algorithms
// (PAPER.md §II-C): Algorithm 3 builds an edge scalar tree whose NODES
// are these edge ids while its union-find runs over the ORIGINAL
// graph's vertices, and the resulting ScalarTree flows through the same
// Algorithm 2 contraction and §II-E simplification as Algorithm 1's
// vertex trees (scalar/tree_core.h). For that to be sound the mapping
// must satisfy two invariants: (1) twin consistency — both CSR slots of
// an undirected edge {u, v} carry the SAME id, so "the edge at this
// slot" is direction-free; (2) order agreement — ids are dense in
// EdgeList order, so a metric vector computed by edge peeling
// (TrussNumbers) indexes an EdgeScalarField with no permutation.
//
// Construction resolves the undirected-twin mapping once: one forward
// pass mints ids on the u < v slots, and each reverse slot finds its twin
// with a binary search in the already-minted run. After that every
// adjacency slot answers "which edge am I?" in O(1), which is what lets
// the naive dual-graph construction and the per-slot sweeps stay free of
// hashing.

#ifndef GRAPHSCAPE_GRAPH_EDGE_INDEX_H_
#define GRAPHSCAPE_GRAPH_EDGE_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace graphscape {

class EdgeIndex {
 public:
  explicit EdgeIndex(const Graph& g) : graph_(&g) {
    const uint32_t n = g.NumVertices();
    const std::vector<uint32_t>& offsets = g.Offsets();
    const std::vector<VertexId>& adj = g.Adjacency();
    slot_eid_.resize(adj.size());
    uint32_t next = 0;
    for (VertexId u = 0; u < n; ++u) {
      for (uint32_t s = offsets[u]; s < offsets[u + 1]; ++s) {
        const VertexId v = adj[s];
        if (u < v) {
          slot_eid_[s] = next;
          ++next;
        } else {
          // v < u, so v's run already minted the id; find u's slot in it.
          const VertexId* lo = adj.data() + offsets[v];
          const VertexId* hi = adj.data() + offsets[v + 1];
          const VertexId* it = std::lower_bound(lo, hi, u);
          slot_eid_[s] = slot_eid_[static_cast<uint32_t>(it - adj.data())];
        }
      }
    }
  }

  uint32_t NumEdges() const {
    return static_cast<uint32_t>(graph_->NumEdges());
  }

  /// Endpoints of edge e, U(e) < V(e). Served by the graph's own
  /// EdgeList-order endpoint arrays — the ids minted here agree with
  /// Graph::EdgeEndpoints by construction (same CSR traversal order).
  VertexId U(uint32_t e) const { return graph_->EdgeSources()[e]; }
  VertexId V(uint32_t e) const { return graph_->EdgeTargets()[e]; }

  /// Edge id of the s-th CSR adjacency slot.
  uint32_t EdgeAtSlot(uint32_t slot) const { return slot_eid_[slot]; }
  const std::vector<uint32_t>& SlotEdgeIds() const { return slot_eid_; }

  /// Edge id of existing edge {a, b}; O(log deg(min(a, b))).
  uint32_t EdgeId(VertexId a, VertexId b) const {
    const VertexId x = std::min(a, b), y = std::max(a, b);
    const std::vector<uint32_t>& offsets = graph_->Offsets();
    const std::vector<VertexId>& adj = graph_->Adjacency();
    const VertexId* lo = adj.data() + offsets[x];
    const VertexId* hi = adj.data() + offsets[x + 1];
    const VertexId* it = std::lower_bound(lo, hi, y);
    return slot_eid_[static_cast<uint32_t>(it - adj.data())];
  }

 private:
  const Graph* graph_;
  std::vector<uint32_t> slot_eid_;  // 2m: CSR slot -> edge id
};

}  // namespace graphscape

#endif  // GRAPHSCAPE_GRAPH_EDGE_INDEX_H_

// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Algorithm 3 correctness: hand-computable examples, the undirected-twin
// EdgeIndex mapping, a brute-force merge-tree oracle over random graphs
// from three generator families, agreement with the naive dual-graph
// baseline, and the constant-per-component property with connected
// components as the oracle.

#include "scalar/edge_scalar_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/edge_index.h"
#include "graph/graph_algos.h"
#include "graph/graph_builder.h"
#include "metrics/ktruss.h"
#include "metrics/nucleus.h"
#include "scalar/simplify.h"

namespace graphscape {
namespace {

Graph Path(uint32_t n) {
  GraphBuilder builder(n);
  for (uint32_t v = 0; v + 1 < n; ++v) builder.AddEdge(v, v + 1);
  return builder.Build();
}

EdgeScalarField RandomEdgeField(const Graph& g, uint64_t seed,
                                uint32_t distinct) {
  Rng rng(seed);
  std::vector<double> values(static_cast<size_t>(g.NumEdges()));
  for (auto& v : values) v = static_cast<double>(rng.UniformInt(distinct));
  return EdgeScalarField("f", std::move(values));
}

// Brute-force merge-tree reference, independent of union-find and of the
// CSR sweep tricks: explicit line-graph adjacency, components tracked as
// plain vectors, every step by linear scan. For node w in rank order,
// every existing component touching a neighbor of w chains its head
// under w, then all of them fuse with w into one component.
std::vector<uint32_t> BruteForceMergeParents(
    uint32_t num_nodes, const std::vector<std::vector<uint32_t>>& adjacency,
    const std::vector<double>& values) {
  std::vector<uint32_t> order(num_nodes);
  for (uint32_t i = 0; i < num_nodes; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&values](uint32_t a, uint32_t b) {
    return values[a] > values[b] || (values[a] == values[b] && a < b);
  });

  struct Component {
    std::vector<uint32_t> nodes;
    uint32_t head;
  };
  std::vector<Component> components;
  std::vector<uint32_t> parents(num_nodes, kInvalidVertex);

  for (const uint32_t w : order) {
    Component merged;
    merged.nodes.push_back(w);
    merged.head = w;
    for (size_t c = 0; c < components.size();) {
      const bool touches = std::any_of(
          components[c].nodes.begin(), components[c].nodes.end(),
          [&](uint32_t node) {
            const auto& nbrs = adjacency[node];
            return std::find(nbrs.begin(), nbrs.end(), w) != nbrs.end();
          });
      if (!touches) {
        ++c;
        continue;
      }
      parents[components[c].head] = w;
      merged.nodes.insert(merged.nodes.end(), components[c].nodes.begin(),
                          components[c].nodes.end());
      components.erase(components.begin() + static_cast<long>(c));
    }
    components.push_back(std::move(merged));
  }
  return parents;
}

// Line-graph adjacency for the oracle: edges are nodes, shared endpoint
// means adjacent.
std::vector<std::vector<uint32_t>> LineGraphAdjacency(const Graph& g) {
  const EdgeIndex index(g);
  std::vector<std::vector<uint32_t>> adjacency(index.NumEdges());
  const std::vector<uint32_t>& offsets = g.Offsets();
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (uint32_t s = offsets[v]; s < offsets[v + 1]; ++s) {
      for (uint32_t t = s + 1; t < offsets[v + 1]; ++t) {
        adjacency[index.EdgeAtSlot(s)].push_back(index.EdgeAtSlot(t));
        adjacency[index.EdgeAtSlot(t)].push_back(index.EdgeAtSlot(s));
      }
    }
  }
  return adjacency;
}

void ExpectMatchesOracle(const Graph& g, const EdgeScalarField& field) {
  const ScalarTree tree = BuildEdgeScalarTree(g, field);
  const std::vector<uint32_t> expected = BruteForceMergeParents(
      static_cast<uint32_t>(g.NumEdges()), LineGraphAdjacency(g),
      field.Values());
  ASSERT_EQ(tree.NumNodes(), expected.size());
  for (uint32_t e = 0; e < expected.size(); ++e) {
    EXPECT_EQ(tree.Parent(e), expected[e]) << "edge " << e;
  }
}

TEST(EdgeIndexTest, TwinMappingMatchesEdgeList) {
  Rng rng(3);
  const Graph g = ErdosRenyi(60, 0.1, &rng);
  const EdgeIndex index(g);
  const auto edges = EdgeList(g);
  ASSERT_EQ(index.NumEdges(), edges.size());
  for (uint32_t e = 0; e < edges.size(); ++e) {
    EXPECT_EQ(index.U(e), edges[e].first);
    EXPECT_EQ(index.V(e), edges[e].second);
    EXPECT_EQ(index.EdgeId(edges[e].first, edges[e].second), e);
    EXPECT_EQ(index.EdgeId(edges[e].second, edges[e].first), e);
  }
  // Every CSR slot maps to the id of the edge it belongs to.
  const std::vector<uint32_t>& offsets = g.Offsets();
  const std::vector<VertexId>& adj = g.Adjacency();
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (uint32_t s = offsets[u]; s < offsets[u + 1]; ++s) {
      const uint32_t e = index.EdgeAtSlot(s);
      EXPECT_EQ(std::min(u, adj[s]), index.U(e));
      EXPECT_EQ(std::max(u, adj[s]), index.V(e));
    }
  }
}

TEST(EdgeScalarTreeTest, MonotonePathChainsItsEdges) {
  // Path 0-1-2-3: edges e0={0,1}, e1={1,2}, e2={2,3} with increasing
  // values chain leaf-to-root; the minimum edge e0 is the root.
  const Graph g = Path(4);
  const EdgeScalarField field("f", {1.0, 2.0, 3.0});
  const ScalarTree tree = BuildEdgeScalarTree(g, field);
  ASSERT_EQ(tree.NumNodes(), 3u);
  EXPECT_EQ(tree.Parent(2), 1u);
  EXPECT_EQ(tree.Parent(1), 0u);
  EXPECT_EQ(tree.Parent(0), kInvalidVertex);
  EXPECT_EQ(tree.NumRoots(), 1u);
}

TEST(EdgeScalarTreeTest, StarEdgesChainThroughTheHub) {
  // Star center 0, leaves 1..3: edges e0={0,1}, e1={0,2}, e2={0,3} all
  // share vertex 0, so they chain in value order regardless of layout.
  GraphBuilder builder(4);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);
  builder.AddEdge(0, 3);
  const Graph g = builder.Build();
  const EdgeScalarField field("f", {3.0, 1.0, 2.0});
  const ScalarTree tree = BuildEdgeScalarTree(g, field);
  EXPECT_EQ(tree.Parent(0), 2u);  // value 3 chains under value 2
  EXPECT_EQ(tree.Parent(2), 1u);  // value 2 chains under value 1
  EXPECT_EQ(tree.Parent(1), kInvalidVertex);
  EXPECT_EQ(tree.NumRoots(), 1u);
}

TEST(EdgeScalarTreeTest, BridgeEdgeMergesTwoComponentsAtTheSaddle) {
  // Two triangles {0,1,2} (high values) and {3,4,5} (mid values) joined
  // by bridge 2-3 carrying the minimum: the bridge is the root and has
  // both triangle heads (their minima e0 and e4) as children.
  GraphBuilder builder(6);
  builder.AddEdge(0, 1);  // e0
  builder.AddEdge(0, 2);  // e1
  builder.AddEdge(1, 2);  // e2
  builder.AddEdge(2, 3);  // e3 (bridge)
  builder.AddEdge(3, 4);  // e4
  builder.AddEdge(3, 5);  // e5
  builder.AddEdge(4, 5);  // e6
  const Graph g = builder.Build();
  const EdgeScalarField field("f", {7.0, 8.0, 9.0, 1.0, 4.0, 5.0, 6.0});
  const ScalarTree tree = BuildEdgeScalarTree(g, field);
  EXPECT_EQ(tree.Parent(3), kInvalidVertex);
  EXPECT_EQ(tree.NumRoots(), 1u);
  // Heads of the two triangle chains (their minima e0 and e4) attach to
  // the bridge.
  EXPECT_EQ(tree.Parent(0), 3u);
  EXPECT_EQ(tree.Parent(4), 3u);
}

TEST(EdgeScalarTreeTest, IsolatedVerticesContributeNothing) {
  GraphBuilder builder(5);
  builder.AddEdge(0, 1);
  builder.AddEdge(2, 3);  // vertex 4 isolated
  const Graph g = builder.Build();
  const EdgeScalarField field("f", {1.0, 2.0});
  const ScalarTree tree = BuildEdgeScalarTree(g, field);
  EXPECT_EQ(tree.NumNodes(), 2u);
  EXPECT_EQ(tree.NumRoots(), 2u);
  EXPECT_EQ(tree.Parent(0), kInvalidVertex);
  EXPECT_EQ(tree.Parent(1), kInvalidVertex);
}

TEST(EdgeScalarTreeTest, FieldRejectsNonFiniteValues) {
  EXPECT_THROW(EdgeScalarField("f", {1.0, std::nan("")}),
               std::invalid_argument);
}

TEST(EdgeScalarTreeTest, MatchesBruteForceOracleOnThreeGraphFamilies) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    const Graph ba = BarabasiAlbert(120, 3, &rng);
    ExpectMatchesOracle(ba, RandomEdgeField(ba, seed * 11, 8));
    ExpectMatchesOracle(ba, RandomEdgeField(ba, seed * 13, 1000000));

    const Graph er = ErdosRenyi(150, 0.04, &rng);
    ExpectMatchesOracle(er, RandomEdgeField(er, seed * 17, 8));

    CollaborationOptions options;
    options.num_vertices = 160;
    options.num_planted_cores = 2;
    options.planted_core_size = 8;
    const Graph collab = CollaborationNetwork(options, &rng);
    ExpectMatchesOracle(collab, RandomEdgeField(collab, seed * 19, 6));
  }
}

TEST(EdgeScalarTreeTest, NaiveDualGraphBaselineProducesIdenticalTrees) {
  Rng rng(5);
  const Graph g = BarabasiAlbert(800, 4, &rng);
  const EdgeScalarField field = RandomEdgeField(g, 23, 16);
  const ScalarTree optimized = BuildEdgeScalarTree(g, field);
  const auto naive = BuildEdgeScalarTreeNaive(g, field);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  ASSERT_EQ(naive.value().NumNodes(), optimized.NumNodes());
  EXPECT_EQ(naive.value().NumRoots(), optimized.NumRoots());
  for (uint32_t e = 0; e < optimized.NumNodes(); ++e) {
    EXPECT_EQ(naive.value().Parent(e), optimized.Parent(e)) << "edge " << e;
  }
}

TEST(EdgeScalarTreeTest, NaiveBaselineGuardsAgainstLineGraphBlowup) {
  // A hub of degree 200 needs 200*199/2 = 19900 line edges; cap at 1000.
  GraphBuilder builder(201);
  for (uint32_t i = 1; i <= 200; ++i) builder.AddEdge(0, i);
  const Graph g = builder.Build();
  const EdgeScalarField field = RandomEdgeField(g, 1, 4);
  const auto naive = BuildEdgeScalarTreeNaive(g, field, 1000);
  ASSERT_FALSE(naive.ok());
  EXPECT_EQ(naive.status().code(), StatusCode::kResourceExhausted);
}

TEST(EdgeScalarTreeTest,
     ConstantPerComponentFieldYieldsOneContractedChainPerComponent) {
  // Property (oracle: graph_algos connected components): on a field
  // constant within each component, every edge-bearing component's edges
  // collapse into a single same-value chain — the component's max edge
  // id is its root, and Algorithm 2 contracts the whole chain to exactly
  // one super node per component.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    // Sparse ER fragments into many components; add isolated vertices.
    const Graph g = ErdosRenyi(200, 0.008, &rng);
    const ComponentLabeling comps = ConnectedComponents(g);
    const EdgeIndex index(g);

    std::vector<double> values(index.NumEdges());
    std::vector<char> component_has_edge(comps.num_components, 0);
    std::vector<uint32_t> max_edge_of(comps.num_components, 0);
    for (uint32_t e = 0; e < index.NumEdges(); ++e) {
      const uint32_t c = comps.ComponentOf(index.U(e));
      values[e] = static_cast<double>(c);
      component_has_edge[c] = 1;
      max_edge_of[c] = std::max(max_edge_of[c], e);
    }
    uint32_t edge_bearing = 0;
    for (const char has : component_has_edge) edge_bearing += has;

    const EdgeScalarField field("component", std::move(values));
    const ScalarTree tree = BuildEdgeScalarTree(g, field);
    EXPECT_EQ(tree.NumRoots(), edge_bearing);

    // Each edge's leaf-to-root walk stays inside its component and ends
    // at the component's maximum edge id.
    for (uint32_t e = 0; e < tree.NumNodes(); ++e) {
      const uint32_t c = comps.ComponentOf(index.U(e));
      uint32_t node = e;
      while (tree.Parent(node) != kInvalidVertex) {
        node = tree.Parent(node);
        EXPECT_EQ(comps.ComponentOf(index.U(node)), c);
      }
      EXPECT_EQ(node, max_edge_of[c]);
    }

    // Algorithm 2 contracts each component's chain to one super node.
    const SuperTree super(tree);
    EXPECT_EQ(super.NumNodes(), edge_bearing);
    EXPECT_EQ(super.NumRoots(), edge_bearing);
  }
}

TEST(EdgeSuperTreeTest, BuildEdgeSuperTreeContractsLevels) {
  Rng rng(7);
  const Graph g = BarabasiAlbert(500, 3, &rng);
  const EdgeScalarField field = RandomEdgeField(g, 31, 4);  // few levels
  const EdgeSuperTree super = BuildEdgeSuperTree(g, field);
  EXPECT_GT(super.NumNodes(), 0u);
  EXPECT_LT(super.NumNodes(), g.NumEdges());  // contraction really fires
  uint32_t members = 0;
  for (uint32_t node = 0; node < super.NumNodes(); ++node)
    members += super.MemberCount(node);
  EXPECT_EQ(members, g.NumEdges());  // every edge in exactly one node
}

TEST(EdgeFieldProducersTest, TrussnessFieldMatchesTrussNumbers) {
  CollaborationOptions options;
  options.num_vertices = 120;
  options.num_planted_cores = 1;
  options.planted_core_size = 8;
  Rng rng(2);
  const Graph g = CollaborationNetwork(options, &rng);
  const EdgeScalarField field = TrussnessEdgeField(g);
  const std::vector<uint32_t> truss = TrussNumbers(g);
  ASSERT_EQ(field.Size(), truss.size());
  for (uint32_t e = 0; e < truss.size(); ++e)
    EXPECT_EQ(field[e], static_cast<double>(truss[e]));
  EXPECT_GE(field.MinValue(), 2.0);
  // The planted 8-clique drives trussness to 8 somewhere.
  EXPECT_GE(field.MaxValue(), 8.0);
  // And the field feeds the tree pipeline end to end.
  const SuperTree super = SimplifiedEdgeSuperTree(g, field, 4);
  EXPECT_GT(super.NumNodes(), 0u);
}

TEST(EdgeFieldProducersTest, NucleusFieldLiftsTriangleValuesToEdges) {
  // A 5-clique: every triangle has nucleus number 2 (each triangle is in
  // two 4-cliques), so every edge lifts to 2.
  GraphBuilder builder(5);
  for (VertexId u = 0; u < 5; ++u)
    for (VertexId v = u + 1; v < 5; ++v) builder.AddEdge(u, v);
  const Graph clique = builder.Build();
  const EdgeScalarField field = NucleusEdgeField(clique);
  ASSERT_EQ(field.Size(), 10u);
  for (uint32_t e = 0; e < field.Size(); ++e) EXPECT_EQ(field[e], 2.0);

  // Triangle-free edges take value 0.
  const Graph path = Path(4);
  const EdgeScalarField path_field = NucleusEdgeField(path);
  for (uint32_t e = 0; e < path_field.Size(); ++e)
    EXPECT_EQ(path_field[e], 0.0);
}

}  // namespace
}  // namespace graphscape

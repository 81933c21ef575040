// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/intersect_simd.h"
#include "metrics/centrality.h"
#include "metrics/kcore.h"
#include "metrics/ktruss.h"
#include "metrics/nucleus.h"
#include "metrics/pagerank.h"
#include "metrics/triangles.h"

namespace graphscape {
namespace {

Graph Clique(uint32_t n) {
  GraphBuilder builder(n);
  for (uint32_t u = 0; u < n; ++u)
    for (uint32_t v = u + 1; v < n; ++v) builder.AddEdge(u, v);
  return builder.Build();
}

Graph Path(uint32_t n) {
  GraphBuilder builder(n);
  for (uint32_t v = 0; v + 1 < n; ++v) builder.AddEdge(v, v + 1);
  return builder.Build();
}

TEST(CoreNumbersTest, CliqueWithTail) {
  // K4 on {0..3}, tail 3-4-5: clique cores are 3, tail cores are 1.
  GraphBuilder builder(6);
  for (uint32_t u = 0; u < 4; ++u)
    for (uint32_t v = u + 1; v < 4; ++v) builder.AddEdge(u, v);
  builder.AddEdge(3, 4);
  builder.AddEdge(4, 5);
  const std::vector<uint32_t> core = CoreNumbers(builder.Build());
  EXPECT_EQ(core, (std::vector<uint32_t>{3, 3, 3, 3, 1, 1}));
}

TEST(CoreNumbersTest, StarIsOneCore) {
  GraphBuilder builder(5);
  for (uint32_t v = 1; v < 5; ++v) builder.AddEdge(0, v);
  const std::vector<uint32_t> core = CoreNumbers(builder.Build());
  EXPECT_EQ(core, (std::vector<uint32_t>{1, 1, 1, 1, 1}));
}

TEST(CoreNumbersTest, TwoCliquesBridged) {
  // Two K4s joined by one edge: the bridge cannot raise anyone's core.
  GraphBuilder builder(8);
  for (uint32_t base : {0u, 4u})
    for (uint32_t u = 0; u < 4; ++u)
      for (uint32_t v = u + 1; v < 4; ++v)
        builder.AddEdge(base + u, base + v);
  builder.AddEdge(3, 4);
  const std::vector<uint32_t> core = CoreNumbers(builder.Build());
  for (uint32_t v = 0; v < 8; ++v) EXPECT_EQ(core[v], 3u);
}

TEST(TrianglesTest, CountsMatchClosedForms) {
  EXPECT_EQ(CountTriangles(Clique(4)), 4u);
  EXPECT_EQ(CountTriangles(Clique(5)), 10u);
  EXPECT_EQ(CountTriangles(Path(10)), 0u);
}

TEST(TrianglesTest, PerVertexCountsOnClique) {
  // In K4 every vertex lies on C(3,2) = 3 triangles.
  const std::vector<uint32_t> counts = VertexTriangleCounts(Clique(4));
  EXPECT_EQ(counts, (std::vector<uint32_t>{3, 3, 3, 3}));
}

TEST(TrussNumbersTest, CliquesAndPendants) {
  // K4 is a 4-truss; a pendant edge hanging off it has no triangles.
  GraphBuilder builder(5);
  for (uint32_t u = 0; u < 4; ++u)
    for (uint32_t v = u + 1; v < 4; ++v) builder.AddEdge(u, v);
  builder.AddEdge(3, 4);
  const Graph g = builder.Build();
  const std::vector<uint32_t> truss = TrussNumbers(g);
  const auto edges = EdgeList(g);
  ASSERT_EQ(truss.size(), edges.size());
  for (size_t e = 0; e < edges.size(); ++e) {
    const uint32_t expected = edges[e].second == 4 ? 2u : 4u;
    EXPECT_EQ(truss[e], expected) << "edge " << edges[e].first << "-"
                                  << edges[e].second;
  }
  const std::vector<uint32_t> k5 = TrussNumbers(Clique(5));
  for (const uint32_t t : k5) EXPECT_EQ(t, 5u);
}

// K-Truss straight from its definition: the k-truss is the largest
// subgraph in which every edge lies in at least k - 2 of its triangles.
// For k = 3, 4, ... drop every surviving edge whose support, recounted
// from scratch over the surviving edges, is below k - 2, until none is;
// an edge's truss number is the largest k it survives (2 if none).
std::vector<uint32_t> BruteForceTruss(const Graph& g) {
  const auto edges = EdgeList(g);
  const uint32_t m = static_cast<uint32_t>(edges.size());
  std::map<std::pair<VertexId, VertexId>, uint32_t> id_of;
  for (uint32_t e = 0; e < m; ++e) id_of[edges[e]] = e;
  const auto edge_id = [&](VertexId a, VertexId b) {
    return id_of.at({std::min(a, b), std::max(a, b)});
  };
  std::vector<char> alive(m, 1);
  std::vector<uint32_t> truss(m, 2);
  for (uint32_t k = 3;; ++k) {
    for (bool dropped = true; dropped;) {
      dropped = false;
      std::vector<uint32_t> support(m, 0);
      for (uint32_t e = 0; e < m; ++e) {
        if (!alive[e]) continue;
        const auto [u, v] = edges[e];
        for (const VertexId w : g.Neighbors(u)) {
          const auto nv = g.Neighbors(v);
          if (w == v || !std::binary_search(nv.begin(), nv.end(), w)) {
            continue;
          }
          if (alive[edge_id(u, w)] && alive[edge_id(v, w)]) ++support[e];
        }
      }
      for (uint32_t e = 0; e < m; ++e) {
        if (alive[e] && support[e] < k - 2) {
          alive[e] = 0;
          dropped = true;
        }
      }
    }
    bool any = false;
    for (uint32_t e = 0; e < m; ++e) {
      if (alive[e]) {
        truss[e] = k;
        any = true;
      }
    }
    if (!any) return truss;
  }
}

void ExpectTrussMatchesBruteForce(const Graph& g) {
  const std::vector<uint32_t> oracle = BruteForceTruss(g);
  for (const uint32_t width : {1u, 4u}) {
    EXPECT_EQ(TrussNumbers(g, {width, 0}), oracle) << "width " << width;
  }
}

TEST(TrussNumbersTest, MatchesBruteForceOnErdosRenyi) {
  Rng rng(5);
  ExpectTrussMatchesBruteForce(ErdosRenyi(300, 0.05, &rng));
}

TEST(TrussNumbersTest, MatchesBruteForceOnBarabasiAlbert) {
  Rng rng(6);
  ExpectTrussMatchesBruteForce(BarabasiAlbert(400, 5, &rng));
}

TEST(TrussNumbersTest, MatchesBruteForceOnCollaborationGraph) {
  CollaborationOptions options;
  options.num_vertices = 500;
  options.num_planted_cores = 2;
  options.planted_core_size = 9;
  Rng rng(7);
  ExpectTrussMatchesBruteForce(CollaborationNetwork(options, &rng));
}

TEST(TrussNumbersTest, MatchesBruteForceOnSparseHubWithPlantedCliques) {
  // A hub with 600 leaves, a random tree over another 1400 vertices, and
  // a few planted cliques (one through the hub): nearly every edge has
  // zero support, the shape of the large sparse benchmark graphs where
  // the peel's zero-support skip does almost all the work.
  const uint32_t n = 2001;
  GraphBuilder builder(n);
  for (VertexId leaf = 1; leaf <= 600; ++leaf) builder.AddEdge(0, leaf);
  Rng rng(8);
  for (VertexId v = 602; v < n; ++v) {
    builder.AddEdge(v, 601 + rng.UniformInt(v - 601));
  }
  const auto plant = [&](std::vector<VertexId> members) {
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        builder.AddEdge(members[i], members[j]);
      }
    }
  };
  plant({0, 10, 20, 30, 40});
  for (const uint32_t size : {4u, 6u, 8u}) {
    std::vector<VertexId> members;
    while (members.size() < size) {
      const VertexId v = 601 + rng.UniformInt(n - 601);
      if (std::find(members.begin(), members.end(), v) == members.end()) {
        members.push_back(v);
      }
    }
    plant(members);
  }
  const Graph g = builder.Build();
  const std::vector<uint32_t> oracle = BruteForceTruss(g);
  const uint64_t zero_support = static_cast<uint64_t>(
      std::count(oracle.begin(), oracle.end(), 2u));
  EXPECT_GT(zero_support, g.NumEdges() * 9 / 10);
  EXPECT_EQ(*std::max_element(oracle.begin(), oracle.end()), 8u);
  ExpectTrussMatchesBruteForce(g);
}

// (3,4)-nucleus numbers straight from the definition: enumerate every
// triangle and every 4-clique, then for k = 1, 2, ... drop each surviving
// triangle whose 4-clique support, recounted from scratch over cliques
// whose four triangles all survive, is below k, until none is; a
// triangle's number is the largest k it survives (0 if none).
NucleusDecomposition BruteForceNucleus(const Graph& g) {
  NucleusDecomposition result;
  std::map<std::array<VertexId, 3>, uint32_t> id_of;
  const uint32_t n = g.NumVertices();
  for (VertexId a = 0; a < n; ++a) {
    for (VertexId b = a + 1; b < n; ++b) {
      if (!g.HasEdge(a, b)) continue;
      for (VertexId c = b + 1; c < n; ++c) {
        if (!g.HasEdge(a, c) || !g.HasEdge(b, c)) continue;
        id_of[{a, b, c}] = static_cast<uint32_t>(result.triangles.size());
        result.triangles.push_back({a, b, c});
      }
    }
  }
  std::vector<std::array<uint32_t, 4>> cliques;
  for (const auto& [a, b, c] : result.triangles) {
    for (VertexId d = c + 1; d < n; ++d) {
      if (!g.HasEdge(a, d) || !g.HasEdge(b, d) || !g.HasEdge(c, d)) continue;
      cliques.push_back({id_of.at({a, b, c}), id_of.at({a, b, d}),
                         id_of.at({a, c, d}), id_of.at({b, c, d})});
    }
  }
  const uint32_t t = static_cast<uint32_t>(result.triangles.size());
  std::vector<char> alive(t, 1);
  result.nucleus_numbers.assign(t, 0);
  for (uint32_t k = 1;; ++k) {
    for (bool dropped = true; dropped;) {
      dropped = false;
      std::vector<uint32_t> support(t, 0);
      for (const auto& clique : cliques) {
        if (!alive[clique[0]] || !alive[clique[1]] || !alive[clique[2]] ||
            !alive[clique[3]]) {
          continue;
        }
        for (const uint32_t tri : clique) ++support[tri];
      }
      for (uint32_t i = 0; i < t; ++i) {
        if (alive[i] && support[i] < k) {
          alive[i] = 0;
          dropped = true;
        }
      }
    }
    bool any = false;
    for (uint32_t i = 0; i < t; ++i) {
      if (alive[i]) {
        result.nucleus_numbers[i] = k;
        any = true;
      }
    }
    if (!any) return result;
  }
}

// Checks Nucleus34 and NucleusEdgeNumbers against the oracle under every
// intersection kernel: the triangle enumeration, the 4-clique support
// and the peel's 3-way callback all run on the dispatched kernel.
void ExpectNucleusMatchesBruteForce(const Graph& g) {
  const NucleusDecomposition oracle = BruteForceNucleus(g);
  ASSERT_GT(*std::max_element(oracle.nucleus_numbers.begin(),
                              oracle.nucleus_numbers.end()),
            1u)
      << "the graph needs nested 4-clique levels to test the peel";
  const auto edges = EdgeList(g);
  std::map<std::pair<VertexId, VertexId>, uint32_t> edge_oracle;
  for (size_t i = 0; i < oracle.triangles.size(); ++i) {
    const auto& [a, b, c] = oracle.triangles[i];
    for (const auto& edge : {std::make_pair(a, b), std::make_pair(a, c),
                             std::make_pair(b, c)}) {
      uint32_t& value = edge_oracle[edge];
      value = std::max(value, oracle.nucleus_numbers[i]);
    }
  }
  std::vector<uint32_t> edge_values(edges.size(), 0);
  for (size_t e = 0; e < edges.size(); ++e) {
    const auto it = edge_oracle.find(edges[e]);
    if (it != edge_oracle.end()) edge_values[e] = it->second;
  }
  for (const intersect::Kernel kernel :
       {intersect::Kernel::kScalar, intersect::Kernel::kSse2,
        intersect::Kernel::kAvx2}) {
    if (!intersect::KernelSupported(kernel)) continue;
    const intersect::Kernel previous = intersect::ActiveKernel();
    ASSERT_TRUE(intersect::SetKernelForTesting(kernel));
    const NucleusDecomposition got = Nucleus34(g);
    EXPECT_EQ(got.triangles, oracle.triangles)
        << intersect::KernelName(kernel);
    EXPECT_EQ(got.nucleus_numbers, oracle.nucleus_numbers)
        << intersect::KernelName(kernel);
    EXPECT_EQ(NucleusEdgeNumbers(g), edge_values)
        << intersect::KernelName(kernel);
    intersect::SetKernelForTesting(previous);
  }
}

TEST(Nucleus34Test, MatchesBruteForceOnErdosRenyi) {
  Rng rng(11);
  ExpectNucleusMatchesBruteForce(ErdosRenyi(120, 0.25, &rng));
}

TEST(Nucleus34Test, MatchesBruteForceOnBarabasiAlbert) {
  Rng rng(12);
  ExpectNucleusMatchesBruteForce(BarabasiAlbert(200, 8, &rng));
}

TEST(Nucleus34Test, MatchesBruteForceOnCollaborationGraph) {
  CollaborationOptions options;
  options.num_vertices = 300;
  options.num_planted_cores = 2;
  options.planted_core_size = 9;
  Rng rng(13);
  ExpectNucleusMatchesBruteForce(CollaborationNetwork(options, &rng));
}

TEST(Nucleus34Test, MatchesBruteForceOnPlantedCliques) {
  // A sparse random tree with overlapping planted cliques of sizes 5-10
  // (K_s gives its triangles number s - 3) and a hub joined to every
  // vertex of two of them: several nested nucleus levels, hub-vs-leaf
  // skew in the 3-way intersections.
  const uint32_t n = 400;
  GraphBuilder builder(n);
  Rng rng(14);
  for (VertexId v = 2; v < n; ++v) {
    builder.AddEdge(v, 1 + rng.UniformInt(v - 1));
  }
  for (VertexId v = 1; v < n; v += 3) builder.AddEdge(0, v);
  std::vector<VertexId> previous;
  for (const uint32_t size : {5u, 6u, 7u, 8u, 10u}) {
    std::vector<VertexId> members;
    // Share two vertices with the previous clique, so cliques overlap.
    for (size_t i = 0; i < 2 && i < previous.size(); ++i) {
      members.push_back(previous[i]);
    }
    while (members.size() < size) {
      const VertexId v = 1 + rng.UniformInt(n - 1);
      if (std::find(members.begin(), members.end(), v) == members.end()) {
        members.push_back(v);
      }
    }
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        builder.AddEdge(members[i], members[j]);
      }
    }
    if (size >= 8) {
      for (const VertexId v : members) builder.AddEdge(0, v);
    }
    previous = members;
  }
  ExpectNucleusMatchesBruteForce(builder.Build());
}

TEST(PageRankTest, SumsToOneAndUniformOnCycle) {
  GraphBuilder builder(8);
  for (uint32_t v = 0; v < 8; ++v) builder.AddEdge(v, (v + 1) % 8);
  const std::vector<double> pr = PageRank(builder.Build());
  const double sum = std::accumulate(pr.begin(), pr.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (const double r : pr) EXPECT_NEAR(r, 1.0 / 8.0, 1e-9);
}

TEST(PageRankTest, HubOutranksLeaves) {
  GraphBuilder builder(6);
  for (uint32_t v = 1; v < 6; ++v) builder.AddEdge(0, v);
  const std::vector<double> pr = PageRank(builder.Build());
  for (uint32_t v = 1; v < 6; ++v) EXPECT_GT(pr[0], pr[v]);
  EXPECT_NEAR(std::accumulate(pr.begin(), pr.end(), 0.0), 1.0, 1e-9);
}

TEST(BetweennessTest, ExactOnPathMatchesPairCounts) {
  // On a path, betweenness(v) = (#vertices left of v) * (#right of v).
  BetweennessOptions options;
  options.num_samples = 100;  // >= n, so exact
  const std::vector<double> bc = BetweennessCentrality(Path(5), options);
  EXPECT_NEAR(bc[0], 0.0, 1e-9);
  EXPECT_NEAR(bc[1], 3.0, 1e-9);
  EXPECT_NEAR(bc[2], 4.0, 1e-9);
  EXPECT_NEAR(bc[3], 3.0, 1e-9);
  EXPECT_NEAR(bc[4], 0.0, 1e-9);
}

TEST(BetweennessTest, SampledEstimateIsFiniteAndNonNegative) {
  BetweennessOptions options;
  options.num_samples = 3;
  const std::vector<double> bc = BetweennessCentrality(Path(20), options);
  for (const double b : bc) EXPECT_GE(b, 0.0);
}

TEST(Nucleus34Test, CliqueTrianglesShareUniformSupport) {
  // K5: C(5,3) = 10 triangles, each completed to a 4-clique by 2 vertices.
  const NucleusDecomposition k5 = Nucleus34(Clique(5));
  ASSERT_EQ(k5.triangles.size(), 10u);
  for (const uint32_t s : k5.nucleus_numbers) EXPECT_EQ(s, 2u);

  const NucleusDecomposition k4 = Nucleus34(Clique(4));
  ASSERT_EQ(k4.triangles.size(), 4u);
  for (const uint32_t s : k4.nucleus_numbers) EXPECT_EQ(s, 1u);
}

TEST(Nucleus34Test, TriangleFreeGraphIsEmpty) {
  const NucleusDecomposition d = Nucleus34(Path(6));
  EXPECT_TRUE(d.triangles.empty());
  EXPECT_TRUE(d.nucleus_numbers.empty());
}

TEST(Nucleus34Test, RejectsGraphsBeyondKeyPacking) {
  // The 3x21-bit triangle keys cap the vertex count; the guard must hold
  // in Release builds too, not just under assert().
  GraphBuilder builder(1u << 21);
  EXPECT_THROW(Nucleus34(builder.Build()), std::invalid_argument);
}

}  // namespace
}  // namespace graphscape

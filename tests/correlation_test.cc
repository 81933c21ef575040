// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Field-vs-field comparison: Pearson/Spearman against hand-computed
// values (including tie handling), the LCI/GCI neighborhood conventions,
// the outlier field's sign contract, top-peak Jaccard overlap (against a
// std::set oracle), and the edge-to-vertex lift that gives KC-vs-KT pairs
// a shared support.

#include "scalar/correlation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "metrics/kcore.h"
#include "scalar/scalar_tree.h"
#include "scalar/tree_queries.h"

namespace graphscape {
namespace {

Graph Star(uint32_t leaves) {
  GraphBuilder builder(leaves + 1);
  for (uint32_t v = 1; v <= leaves; ++v) builder.AddEdge(0, v);
  return builder.Build();
}

TEST(CorrelationTest, PearsonMatchesHandComputation) {
  // Exact linear relations hit ±1; an affine shift changes nothing.
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> up{10.0, 30.0, 50.0, 70.0};
  const std::vector<double> down{8.0, 6.0, 4.0, 2.0};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, up), 1.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, down), -1.0);

  // Hand-computed non-trivial case: x = {1,2,3}, y = {1,3,2}:
  // cov = 1, var_x = 2, var_y = 2 -> r = 0.5.
  EXPECT_DOUBLE_EQ(
      PearsonCorrelation({1.0, 2.0, 3.0}, {1.0, 3.0, 2.0}), 0.5);
}

TEST(CorrelationTest, DegenerateWindowsAreNeutral) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1.0, 2.0}, {3.0, 4.0}), 0.0);
  EXPECT_DOUBLE_EQ(
      PearsonCorrelation({5.0, 5.0, 5.0}, {1.0, 2.0, 3.0}), 0.0);
  EXPECT_DOUBLE_EQ(SpearmanCorrelation({1.0, 2.0}, {3.0, 4.0}), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({}, {}), 0.0);
}

TEST(CorrelationTest, SpearmanSeesMonotoneThroughNonlinearity) {
  // Exponential growth is far from linear but perfectly rank-correlated.
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> y{1.0, 10.0, 100.0, 1000.0, 10000.0};
  EXPECT_LT(PearsonCorrelation(x, y), 0.95);
  EXPECT_DOUBLE_EQ(SpearmanCorrelation(x, y), 1.0);
  // Ties get average ranks: x = {1,1,2}, y = {2,2,7} agree exactly.
  EXPECT_DOUBLE_EQ(
      SpearmanCorrelation({1.0, 1.0, 2.0}, {2.0, 2.0, 7.0}), 1.0);
}

TEST(CorrelationTest, LciFollowsNeighborhoodConventions) {
  // Star: the center's closed neighborhood is the whole graph; each
  // spoke's window has only 2 points -> neutral 0.
  const Graph g = Star(4);
  const VertexScalarField a("a", {0.0, 1.0, 2.0, 3.0, 4.0});
  const VertexScalarField b("b", {0.0, 10.0, 30.0, 50.0, 70.0});
  const std::vector<double> lci = LocalCorrelationIndices(g, a, b);
  ASSERT_EQ(lci.size(), 5u);
  EXPECT_DOUBLE_EQ(lci[0], PearsonCorrelation(a.Values(), b.Values()));
  for (VertexId v = 1; v <= 4; ++v) EXPECT_DOUBLE_EQ(lci[v], 0.0);

  // GCI is the mean LCI, and the outlier field is its negation.
  double mean = 0.0;
  for (const double v : lci) mean += v;
  mean /= lci.size();
  EXPECT_DOUBLE_EQ(Gci(g, a, b), mean);
  const VertexScalarField outlier = OutlierScoreField(g, a, b);
  for (VertexId v = 0; v < 5; ++v)
    EXPECT_DOUBLE_EQ(outlier[v], -lci[v]);
}

TEST(CorrelationTest, BridgeBetweenCliquesIsTheLciOutlier) {
  // Two 5-cliques joined through a low-degree bridge vertex: degree and
  // a clique-indicator field agree inside the cliques but disagree at
  // the bridge, so the bridge carries the lowest LCI — the paper's
  // outlier-terrain story in miniature.
  GraphBuilder builder(11);
  for (VertexId u = 0; u < 5; ++u)
    for (VertexId v = u + 1; v < 5; ++v) builder.AddEdge(u, v);
  for (VertexId u = 5; u < 10; ++u)
    for (VertexId v = u + 1; v < 10; ++v) builder.AddEdge(u, v);
  builder.AddEdge(4, 10);
  builder.AddEdge(10, 5);
  const Graph g = builder.Build();

  std::vector<double> degree(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) degree[v] = g.Degree(v);
  // High inside cliques, highest at the bridge: anti-correlated with
  // degree only around the bridge.
  std::vector<double> betweenness_proxy(g.NumVertices(), 1.0);
  betweenness_proxy[10] = 10.0;
  betweenness_proxy[4] = 5.0;
  betweenness_proxy[5] = 5.0;

  const VertexScalarField da("deg", degree);
  const VertexScalarField bb("btw", betweenness_proxy);
  const std::vector<double> lci = LocalCorrelationIndices(g, da, bb);
  uint32_t argmin = 0;
  for (VertexId v = 1; v < g.NumVertices(); ++v)
    if (lci[v] < lci[argmin]) argmin = v;
  EXPECT_EQ(argmin, 10u);
  EXPECT_LT(lci[10], 0.0);
}

TEST(CorrelationTest, GciOnMatchingStructuralFieldsIsStronglyPositive) {
  CollaborationOptions options;
  options.num_vertices = 400;
  options.num_planted_cores = 2;
  options.planted_core_size = 10;
  Rng rng(7);
  const Graph g = CollaborationNetwork(options, &rng);
  std::vector<double> degree(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) degree[v] = g.Degree(v);
  const VertexScalarField deg_field("degree", degree);
  const VertexScalarField kc =
      VertexScalarField::FromCounts("KC", CoreNumbers(g));
  const double gci = Gci(g, deg_field, kc);
  EXPECT_GT(gci, 0.3);  // degree and coreness rank neighborhoods alike
  EXPECT_LE(gci, 1.0);
}

TEST(CorrelationTest, TopPeakJaccardBoundsAndIdentity) {
  Rng rng(3);
  const Graph g = BarabasiAlbert(300, 3, &rng);
  std::vector<double> values(g.NumVertices());
  for (auto& v : values) v = static_cast<double>(rng.UniformInt(10));
  const VertexScalarField field("f", values);
  const SuperTree tree(BuildVertexScalarTree(g, field));
  EXPECT_DOUBLE_EQ(TopPeakJaccard(tree, tree, 5), 1.0);

  // Disjoint peak sets: shift which vertices peak.
  std::vector<double> shifted(values);
  for (VertexId v = 0; v < g.NumVertices(); ++v)
    shifted[v] = 9.0 - shifted[v];
  const SuperTree flipped(
      BuildVertexScalarTree(g, VertexScalarField("g", shifted)));
  const double j = TopPeakJaccard(tree, flipped, 3);
  EXPECT_GE(j, 0.0);
  EXPECT_LE(j, 1.0);

  // Mixing element spaces (a vertex tree vs an edge tree) is refused in
  // every build type — the ids would index the wrong space.
  std::vector<double> edge_values(static_cast<size_t>(g.NumEdges()), 1.0);
  const SuperTree edge_tree(
      BuildEdgeScalarTree(g, EdgeScalarField("e", edge_values)));
  EXPECT_THROW(TopPeakJaccard(tree, edge_tree, 3), std::invalid_argument);
}

TEST(CorrelationTest, AverageRanksShareTheMeanOfATiedRun) {
  EXPECT_EQ(AverageRanks({3.0, 1.0, 3.0, 2.0, 3.0}),
            (std::vector<double>{3.0, 0.0, 3.0, 1.0, 3.0}));
  EXPECT_EQ(AverageRanks({2.0, 2.0}), (std::vector<double>{0.5, 0.5}));
  EXPECT_TRUE(AverageRanks({}).empty());
}

// The elements claimed by TopPeaks(tree, k), by brute force.
std::set<uint32_t> TopPeakMembers(const SuperTree& tree, uint32_t k) {
  std::set<uint32_t> members;
  for (const Peak& peak : TopPeaks(tree, k)) {
    for (const uint32_t e : tree.Members(peak.super_node)) members.insert(e);
  }
  return members;
}

TEST(CorrelationTest, TopPeakJaccardMatchesSetOracle) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    const Graph g = BarabasiAlbert(200 + 37 * seed, 2, &rng);
    std::vector<double> va(g.NumVertices()), vb(g.NumVertices());
    for (auto& v : va) v = static_cast<double>(rng.UniformInt(12));
    for (auto& v : vb) v = static_cast<double>(rng.UniformInt(6));
    const SuperTree a(BuildVertexScalarTree(g, VertexScalarField("a", va)));
    const SuperTree b(BuildVertexScalarTree(g, VertexScalarField("b", vb)));
    const uint32_t most_peaks = static_cast<uint32_t>(std::max(
        TopPeaks(a, UINT32_MAX).size(), TopPeaks(b, UINT32_MAX).size()));
    // k = 0 leaves both unions empty; the last k exceeds every peak count.
    for (const uint32_t k : {0u, 1u, 3u, 10u, most_peaks + 5}) {
      const std::set<uint32_t> in_a = TopPeakMembers(a, k);
      const std::set<uint32_t> in_b = TopPeakMembers(b, k);
      std::set<uint32_t> either = in_a;
      either.insert(in_b.begin(), in_b.end());
      size_t both = 0;
      for (const uint32_t e : in_a) both += in_b.count(e);
      const double expected =
          either.empty() ? 1.0
                         : static_cast<double>(both) / either.size();
      EXPECT_EQ(TopPeakJaccard(a, b, k), expected)
          << "seed " << seed << " k " << k;

      // The mask holds exactly the oracle's members, in whole words.
      const std::vector<uint64_t> mask = TopPeakMask(a, k);
      ASSERT_EQ(mask.size(), (g.NumVertices() + 63) / 64);
      for (uint32_t e = 0; e < g.NumVertices(); ++e) {
        EXPECT_EQ((mask[e / 64] >> (e % 64)) & 1, in_a.count(e))
            << "seed " << seed << " k " << k << " element " << e;
      }
    }
  }
}

TEST(CorrelationTest, MismatchedElementSpacesThrow) {
  // 100 and 120 elements round to the same two mask words, so only the
  // trees' element counts tell the spaces apart.
  Rng rng(9);
  const Graph small = BarabasiAlbert(100, 2, &rng);
  const Graph large = BarabasiAlbert(120, 2, &rng);
  const SuperTree a(BuildVertexScalarTree(
      small, VertexScalarField("a", std::vector<double>(100, 1.0))));
  const SuperTree b(BuildVertexScalarTree(
      large, VertexScalarField("b", std::vector<double>(120, 1.0))));
  ASSERT_EQ(TopPeakMask(a, 3).size(), TopPeakMask(b, 3).size());
  EXPECT_THROW(TopPeakJaccard(a, b, 3), std::invalid_argument);
  EXPECT_THROW(MaskJaccard(std::vector<uint64_t>(2), std::vector<uint64_t>(3)),
               std::invalid_argument);
  EXPECT_EQ(MaskJaccard({}, {}), 1.0);
}

TEST(CorrelationTest, LiftEdgeFieldTakesMaxIncidentValue) {
  // Path 0-1-2-3 with edge values {5, 1, 3} plus an isolated vertex 4.
  GraphBuilder builder(5);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  const Graph g = builder.Build();
  const EdgeScalarField kt("KT", {5.0, 1.0, 3.0});
  const VertexScalarField lifted = LiftEdgeFieldToVertices(g, kt);
  ASSERT_EQ(lifted.Size(), 5u);
  EXPECT_DOUBLE_EQ(lifted[0], 5.0);
  EXPECT_DOUBLE_EQ(lifted[1], 5.0);
  EXPECT_DOUBLE_EQ(lifted[2], 3.0);
  EXPECT_DOUBLE_EQ(lifted[3], 3.0);
  EXPECT_DOUBLE_EQ(lifted[4], 1.0);  // edge-free: the field minimum
}

}  // namespace
}  // namespace graphscape

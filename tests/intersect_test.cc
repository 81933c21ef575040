// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Differential suite for the sorted-run intersection layer
// (graph/intersect_simd.h + graph/intersect.h): every execution strategy
// — scalar merge, galloping, SSE2, AVX2, and the public dispatched entry
// points — must agree with a brute-force oracle and with each other, on
// counts, on reported positions, AND on their order, across 10k seeded
// adversarial run pairs (empty, disjoint, identical, 1:4096 skew,
// all-ties at block boundaries, lengths 0/1/non-multiple-of-lane-width).
// The suite runs under ASan/UBSan and TSan via the regular CI matrix, and
// in the -DGRAPHSCAPE_SIMD=OFF leg, where the vector kernels report
// unsupported and the dispatched paths must still pass everything.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/intersect.h"
#include "graph/intersect_simd.h"
#include "metrics/clustering.h"
#include "metrics/ktruss.h"
#include "metrics/nucleus.h"
#include "metrics/triangles.h"

namespace graphscape {
namespace {

using intersect::Kernel;

std::vector<Kernel> SupportedKernels() {
  std::vector<Kernel> kernels;
  for (const Kernel k : {Kernel::kScalar, Kernel::kSse2, Kernel::kAvx2}) {
    if (intersect::KernelSupported(k)) kernels.push_back(k);
  }
  return kernels;
}

// Restores the process-wide dispatch no matter how a test exits.
class ScopedKernel {
 public:
  explicit ScopedKernel(Kernel kernel) : previous_(intersect::ActiveKernel()) {
    EXPECT_TRUE(intersect::SetKernelForTesting(kernel));
  }
  ~ScopedKernel() { intersect::SetKernelForTesting(previous_); }

 private:
  Kernel previous_;
};

std::vector<uint32_t> OracleIntersect(const std::vector<uint32_t>& a,
                                      const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<uint32_t> OracleIntersect3(const std::vector<uint32_t>& a,
                                       const std::vector<uint32_t>& b,
                                       const std::vector<uint32_t>& c) {
  return OracleIntersect(OracleIntersect(a, b), c);
}

// Sorted duplicate-free run of `len` values drawn from [0, universe).
std::vector<uint32_t> MakeRun(uint32_t len, uint32_t universe, Rng* rng) {
  std::set<uint32_t> values;
  while (values.size() < len && values.size() < universe) {
    values.insert(static_cast<uint32_t>(rng->UniformInt(universe)));
  }
  return std::vector<uint32_t>(values.begin(), values.end());
}

// ForEachCommonPosition(a, b)'s matched elements, each match checked as
// it arrives: positions in range, a[i] == b[j], and strictly ascending in
// both runs.
std::vector<uint32_t> PositionMatches(const std::vector<uint32_t>& a,
                                      const std::vector<uint32_t>& b) {
  std::vector<uint32_t> matched;
  int64_t last_i = -1, last_j = -1;
  ForEachCommonPosition(
      a.data(), static_cast<uint32_t>(a.size()), b.data(),
      static_cast<uint32_t>(b.size()), [&](uint32_t i, uint32_t j) {
        if (i >= a.size() || j >= b.size()) {
          ADD_FAILURE() << "position (" << i << ", " << j << ") out of range";
          return;
        }
        EXPECT_EQ(a[i], b[j]);
        EXPECT_GT(static_cast<int64_t>(i), last_i);
        EXPECT_GT(static_cast<int64_t>(j), last_j);
        last_i = i;
        last_j = j;
        matched.push_back(a[i]);
      });
  return matched;
}

void ExpectAllPathsAgree(const std::vector<uint32_t>& a,
                         const std::vector<uint32_t>& b) {
  const std::vector<uint32_t> oracle = OracleIntersect(a, b);
  const uint32_t na = static_cast<uint32_t>(a.size());
  const uint32_t nb = static_cast<uint32_t>(b.size());

  // Non-dispatched reference paths, both orientations.
  EXPECT_EQ(oracle.size(), intersect::detail::CountMerge(a.data(), na,
                                                         b.data(), nb));
  EXPECT_EQ(oracle.size(), intersect::detail::CountMerge(b.data(), nb,
                                                         a.data(), na));
  EXPECT_EQ(oracle.size(), intersect::detail::CountGallop(a.data(), na,
                                                          b.data(), nb));
  EXPECT_EQ(oracle.size(), intersect::detail::CountGallop(b.data(), nb,
                                                          a.data(), na));

  // Dispatched entry points under every kernel this machine supports,
  // both argument orders: counts, and the position form's matches.
  for (const Kernel kernel : SupportedKernels()) {
    ScopedKernel scoped(kernel);
    EXPECT_EQ(oracle.size(), intersect::Count(a.data(), na, b.data(), nb))
        << "kernel " << intersect::KernelName(kernel);
    EXPECT_EQ(oracle.size(), intersect::Count(b.data(), nb, a.data(), na))
        << "kernel " << intersect::KernelName(kernel);
    EXPECT_EQ(oracle, PositionMatches(a, b))
        << "kernel " << intersect::KernelName(kernel);
    EXPECT_EQ(oracle, PositionMatches(b, a))
        << "kernel " << intersect::KernelName(kernel);
  }
}

TEST(IntersectKernelTest, ScalarKernelIsAlwaysSupported) {
  EXPECT_TRUE(intersect::KernelSupported(Kernel::kScalar));
  EXPECT_TRUE(intersect::SetKernelForTesting(intersect::ActiveKernel()));
}

TEST(IntersectKernelTest, UnsupportedKernelIsRejected) {
#ifdef GRAPHSCAPE_SIMD_DISABLED
  // The SIMD-off build must refuse both vector kernels and stay scalar.
  EXPECT_FALSE(intersect::KernelSupported(Kernel::kSse2));
  EXPECT_FALSE(intersect::KernelSupported(Kernel::kAvx2));
  EXPECT_FALSE(intersect::SetKernelForTesting(Kernel::kAvx2));
  EXPECT_EQ(Kernel::kScalar, intersect::ActiveKernel());
#else
  GTEST_SKIP() << "vector kernels compiled in; nothing to reject";
#endif
}

TEST(IntersectKernelTest, KernelNamesAreStable) {
  EXPECT_STREQ("scalar", intersect::KernelName(Kernel::kScalar));
  EXPECT_STREQ("sse2", intersect::KernelName(Kernel::kSse2));
  EXPECT_STREQ("avx2", intersect::KernelName(Kernel::kAvx2));
}

TEST(IntersectDifferentialTest, HandPickedAdversarialPairs) {
  const std::vector<std::pair<std::vector<uint32_t>, std::vector<uint32_t>>>
      cases = {
          {{}, {}},
          {{}, {1, 2, 3}},
          {{5}, {5}},
          {{5}, {4}},
          {{1, 2, 3, 4, 5, 6, 7, 8}, {1, 2, 3, 4, 5, 6, 7, 8}},
          // Disjoint but interleaved: every merge step alternates sides.
          {{0, 2, 4, 6, 8, 10, 12, 14}, {1, 3, 5, 7, 9, 11, 13, 15}},
          // Match exactly at the 4-lane and 8-lane block boundaries.
          {{0, 1, 2, 3, 100, 101, 102, 103},
           {3, 100, 200, 201, 202, 203, 204, 205}},
          {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
           {7, 8, 15, 16, 23, 24, 31, 32, 39, 40, 47, 48, 55, 56, 63, 64}},
          // Non-multiple-of-lane-width lengths with a tail match.
          {{1, 2, 3, 4, 5}, {5}},
          {{1, 2, 3, 4, 5, 6, 7, 8, 9}, {9, 10, 11}},
          // One giant gap the galloping path must leap in one bound.
          {{1, 1000000000}, {2, 3, 4, 5, 6, 7, 8, 9, 1000000000}},
      };
  for (const auto& [a, b] : cases) ExpectAllPathsAgree(a, b);
}

TEST(IntersectDifferentialTest, SeededFuzzTenThousandPairs) {
  // 10k adversarial pairs: lengths sweep 0..~4096 including 1 and
  // non-multiples of the lane width, skews up to 1:4096, and universe
  // sizes from all-ties (dense overlap) to near-disjoint.
  Rng rng(20260807);
  for (uint32_t trial = 0; trial < 10000; ++trial) {
    const uint32_t shape = static_cast<uint32_t>(rng.UniformInt(4));
    uint32_t na, nb;
    switch (shape) {
      case 0:  // balanced small (tails + boundaries)
        na = static_cast<uint32_t>(rng.UniformInt(18));
        nb = static_cast<uint32_t>(rng.UniformInt(18));
        break;
      case 1:  // balanced blocky
        na = 16 + static_cast<uint32_t>(rng.UniformInt(113));
        nb = 16 + static_cast<uint32_t>(rng.UniformInt(113));
        break;
      case 2:  // skewed ~1:100
        na = 1 + static_cast<uint32_t>(rng.UniformInt(8));
        nb = 256 + static_cast<uint32_t>(rng.UniformInt(512));
        break;
      default:  // heavy skew up to 1:4096
        na = 1;
        nb = 4096;
        break;
    }
    // Universe factor 1 forces maximal ties; 16 makes sparse overlap.
    const uint32_t factor = 1u << rng.UniformInt(5);
    const uint32_t universe = std::max(1u, std::max(na, nb) * factor);
    const std::vector<uint32_t> a = MakeRun(na, universe, &rng);
    const std::vector<uint32_t> b = MakeRun(nb, universe, &rng);
    ExpectAllPathsAgree(a, b);
    if (HasFailure()) {
      ADD_FAILURE() << "first failing trial " << trial << " na=" << a.size()
                    << " nb=" << b.size() << " universe=" << universe;
      break;
    }
  }
}

TEST(IntersectDifferentialTest, ThreeWayCountMatchesOracle) {
  Rng rng(99);
  for (uint32_t trial = 0; trial < 2000; ++trial) {
    const uint32_t universe = 1 + static_cast<uint32_t>(rng.UniformInt(600));
    const std::vector<uint32_t> a =
        MakeRun(static_cast<uint32_t>(rng.UniformInt(300)), universe, &rng);
    const std::vector<uint32_t> b =
        MakeRun(static_cast<uint32_t>(rng.UniformInt(300)), universe, &rng);
    const std::vector<uint32_t> c =
        MakeRun(static_cast<uint32_t>(rng.UniformInt(300)), universe, &rng);
    const size_t expected = OracleIntersect3(a, b, c).size();
    for (const Kernel kernel : SupportedKernels()) {
      ScopedKernel scoped(kernel);
      EXPECT_EQ(expected,
                intersect::Count3(a.data(), static_cast<uint32_t>(a.size()),
                                  b.data(), static_cast<uint32_t>(b.size()),
                                  c.data(), static_cast<uint32_t>(c.size())))
          << "trial " << trial << " kernel "
          << intersect::KernelName(kernel);
    }
  }
}

TEST(IntersectDifferentialTest, ThreeWayCountCrossesChunkBoundaries) {
  // Runs longer than the 256-element internal chunk, dense overlap: the
  // chunked pair pass plus the galloping filter must not drop or double
  // count matches at chunk seams.
  std::vector<uint32_t> a, b, c;
  for (uint32_t i = 0; i < 1500; ++i) {
    a.push_back(i);
    if (i % 2 == 0) b.push_back(i);
    if (i % 3 == 0) c.push_back(i);
  }
  const size_t expected = OracleIntersect3(a, b, c).size();  // i % 6 == 0
  ASSERT_EQ(expected, 250u);
  for (const Kernel kernel : SupportedKernels()) {
    ScopedKernel scoped(kernel);
    EXPECT_EQ(expected,
              intersect::Count3(a.data(), static_cast<uint32_t>(a.size()),
                                b.data(), static_cast<uint32_t>(b.size()),
                                c.data(), static_cast<uint32_t>(c.size())));
  }
}

TEST(IntersectDifferentialTest, PositionsCrossChunkBoundaries) {
  // Shorter runs around and past kPositionChunk: ForEachCommonPosition
  // cuts them into chunks and gallop-bounds the longer run per chunk, so
  // matches at chunk seams must be neither dropped nor repeated, on
  // balanced pairs (block kernels) and on 40:1 pairs (gallop per chunk).
  Rng rng(20261019);
  const uint32_t chunk = intersect::kPositionChunk;
  for (const uint32_t short_len :
       {chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 7, 1500u}) {
    for (const uint32_t ratio : {1u, 3u, 40u}) {
      for (const uint32_t factor : {1u, 2u, 8u}) {
        const uint32_t long_len = short_len * ratio;
        const uint32_t universe = long_len * factor;
        const std::vector<uint32_t> a = MakeRun(short_len, universe, &rng);
        const std::vector<uint32_t> b = MakeRun(long_len, universe, &rng);
        ExpectAllPathsAgree(a, b);
      }
    }
  }
  // Every element a match, and matches exactly on the chunk seams.
  std::vector<uint32_t> all(3 * chunk), seams;
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  for (uint32_t i = chunk - 1; i < all.size(); i += chunk) {
    seams.push_back(i);
    seams.push_back(i + 1);
  }
  ExpectAllPathsAgree(all, all);
  ExpectAllPathsAgree(all, seams);
}

TEST(IntersectGraphApiTest, CallbackWrapperMatchesCountOnEveryPair) {
  Rng rng(7);
  const Graph g = BarabasiAlbert(1 << 9, 6, &rng);
  for (const Kernel kernel : SupportedKernels()) {
    ScopedKernel scoped(kernel);
    for (VertexId u = 0; u < g.NumVertices(); u += 3) {
      for (VertexId v = u + 1; v < g.NumVertices(); v += 97) {
        const Graph::NeighborRange ru = g.Neighbors(u);
        const Graph::NeighborRange rv = g.Neighbors(v);
        std::vector<VertexId> via_callback;
        ForEachCommonPosition(ru.begin(), ru.size(), rv.begin(), rv.size(),
                              [&](uint32_t i, uint32_t j) {
                                EXPECT_EQ(ru.begin()[i], rv.begin()[j]);
                                via_callback.push_back(ru.begin()[i]);
                              });
        const std::vector<uint32_t> oracle =
            OracleIntersect(std::vector<uint32_t>(ru.begin(), ru.end()),
                            std::vector<uint32_t>(rv.begin(), rv.end()));
        EXPECT_TRUE(std::is_sorted(via_callback.begin(), via_callback.end()));
        EXPECT_EQ(via_callback, oracle);
        EXPECT_EQ(via_callback.size(), CountCommonNeighbors(g, u, v));
      }
    }
  }
}

TEST(IntersectGraphApiTest, PositionsMatchOracleOnSkewedRuns) {
  // Short-vs-long run pairs past kGallopSkewRatio, in both argument
  // orders: the galloping path must report the same (i, j) pairs the
  // merge does, with i indexing the FIRST argument either way.
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<uint32_t> short_run = MakeRun(12, 5000, &rng);
    const std::vector<uint32_t> long_run = MakeRun(2000, 5000, &rng);
    const std::vector<uint32_t> oracle = OracleIntersect(short_run, long_run);
    EXPECT_EQ(PositionMatches(short_run, long_run), oracle);
    EXPECT_EQ(PositionMatches(long_run, short_run), oracle);
  }
}

TEST(IntersectGraphApiTest, ThreeWayCallbackMatchesOracleAndCount) {
  // Star-of-cliques: vertex 0 is a hub adjacent to everyone, so its run
  // is always the longest and becomes the gallop filter, under every
  // kernel.
  GraphBuilder builder(64);
  for (VertexId v = 1; v < 64; ++v) builder.AddEdge(0, v);
  for (VertexId base = 1; base + 4 <= 64; base += 4) {
    for (VertexId i = 0; i < 4; ++i) {
      for (VertexId j = i + 1; j < 4; ++j) {
        builder.AddEdge(base + i, base + j);
      }
    }
  }
  const Graph g = builder.Build();
  for (VertexId a = 0; a < 16; ++a) {
    for (VertexId b = a + 1; b < 16; ++b) {
      for (VertexId c = b + 1; c < 16; ++c) {
        std::vector<VertexId> na(g.Neighbors(a).begin(),
                                 g.Neighbors(a).end());
        std::vector<VertexId> nb(g.Neighbors(b).begin(),
                                 g.Neighbors(b).end());
        std::vector<VertexId> nc(g.Neighbors(c).begin(),
                                 g.Neighbors(c).end());
        const std::vector<uint32_t> oracle = OracleIntersect3(na, nb, nc);
        for (const Kernel kernel : SupportedKernels()) {
          ScopedKernel scoped(kernel);
          std::vector<VertexId> via_callback;
          ForEachCommonNeighbor(g, a, b, c, [&](VertexId d) {
            via_callback.push_back(d);
          });
          EXPECT_EQ(oracle, via_callback) << intersect::KernelName(kernel);
          EXPECT_EQ(oracle.size(), CountCommonNeighbors(g, a, b, c))
              << intersect::KernelName(kernel);
        }
      }
    }
  }
}

// The end-to-end determinism pin: every triangle-adjacent metric must be
// exactly identical under every kernel — the SIMD-off CI leg re-proves
// this cross-build via the Table II readout diff.
TEST(IntersectMetricsTest, MetricsAreKernelInvariant) {
  Rng rng(31);
  const Graph ba = BarabasiAlbert(1 << 10, 5, &rng);
  CollaborationOptions collab_options;
  collab_options.num_vertices = 1 << 10;
  collab_options.num_groups = 1 << 9;
  collab_options.num_planted_cores = 2;
  collab_options.planted_core_size = 16;
  Rng collab_rng(5);
  const Graph collab = CollaborationNetwork(collab_options, &collab_rng);

  for (const Graph* g : {&ba, &collab}) {
    uint64_t triangles = 0;
    std::vector<uint32_t> per_vertex, truss, truss4, nucleus;
    std::vector<double> local_cc;
    double avg_cc = 0.0, sampled_cc = 0.0;
    bool first = true;
    for (const Kernel kernel : SupportedKernels()) {
      ScopedKernel scoped(kernel);
      const uint64_t t = CountTriangles(*g);
      const std::vector<uint32_t> pv = VertexTriangleCounts(*g, {4, 0});
      const std::vector<uint32_t> tr = TrussNumbers(*g);
      const std::vector<uint32_t> tr4 = TrussNumbers(*g, {4, 0});
      const std::vector<uint32_t> nu = NucleusEdgeNumbers(*g);
      const std::vector<double> lcc = LocalClusteringCoefficients(*g);
      const double cc = AverageClusteringCoefficient(*g);
      Rng sample_rng(17);
      const double scc = SampledAverageClusteringCoefficient(*g, 200,
                                                             &sample_rng);
      if (first) {
        triangles = t;
        per_vertex = pv;
        truss = tr;
        truss4 = tr4;
        nucleus = nu;
        local_cc = lcc;
        avg_cc = cc;
        sampled_cc = scc;
        first = false;
        continue;
      }
      EXPECT_EQ(triangles, t) << intersect::KernelName(kernel);
      EXPECT_EQ(per_vertex, pv) << intersect::KernelName(kernel);
      EXPECT_EQ(truss, tr) << intersect::KernelName(kernel);
      EXPECT_EQ(truss4, tr4) << intersect::KernelName(kernel);
      EXPECT_EQ(nucleus, nu) << intersect::KernelName(kernel);
      // Bit-identical, not merely close: the kernels change instruction
      // choice, never the arithmetic.
      EXPECT_EQ(local_cc, lcc) << intersect::KernelName(kernel);
      EXPECT_EQ(avg_cc, cc) << intersect::KernelName(kernel);
      EXPECT_EQ(sampled_cc, scc) << intersect::KernelName(kernel);
    }
  }
}

TEST(IntersectMetricsTest, TriangleCountsMatchBruteForceOracle) {
  // The forward-adjacency restructure of metrics/triangles.cc against an
  // O(n^3) oracle, under the widest kernel available.
  Rng rng(13);
  const Graph g = BarabasiAlbert(96, 4, &rng);
  uint64_t oracle = 0;
  std::vector<uint32_t> oracle_per_vertex(g.NumVertices(), 0);
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v = u + 1; v < g.NumVertices(); ++v) {
      if (!g.HasEdge(u, v)) continue;
      for (VertexId w = v + 1; w < g.NumVertices(); ++w) {
        if (g.HasEdge(u, w) && g.HasEdge(v, w)) {
          ++oracle;
          ++oracle_per_vertex[u];
          ++oracle_per_vertex[v];
          ++oracle_per_vertex[w];
        }
      }
    }
  }
  EXPECT_EQ(oracle, CountTriangles(g));
  EXPECT_EQ(oracle_per_vertex, VertexTriangleCounts(g));
}

}  // namespace
}  // namespace graphscape

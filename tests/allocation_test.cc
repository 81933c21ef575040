// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Enforces the arena discipline of Algorithms 1/2/3: the number of heap
// allocations per build is a small constant (the up-front flat arrays),
// independent of graph size — i.e., the sweep loops themselves never
// allocate. A per-node or per-edge allocation would make the count scale
// with n and fail these bounds immediately. Both the vertex sweep and
// the edge sweep run under the same counting-operator-new harness.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.h"
#include "community/bigclam.h"
#include "gen/generators.h"
#include "graph/intersect.h"
#include "graph/intersect_simd.h"
#include "layout/spring_layout.h"
#include "metrics/triangles.h"
#include "scalar/edge_scalar_tree.h"
#include "scalar/scalar_tree.h"
#include "scalar/super_tree.h"
#include "scalar/tree_queries.h"
#include "terrain/terrain_layout.h"
#include "terrain/terrain_raster.h"

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// libstdc++'s std::get_temporary_buffer (stable_sort) allocates through
// the nothrow variant; override it too so every new/delete pair stays on
// malloc/free (ASan flags a mixed pair as alloc-dealloc-mismatch).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace graphscape {
namespace {

uint64_t AllocationsDuringBuild(uint32_t n) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(n, 4, &rng);
  Rng field_rng(7);
  std::vector<double> values(g.NumVertices());
  for (auto& v : values) v = field_rng.UniformDouble();
  const VertexScalarField field("f", values);

  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const ScalarTree tree = BuildVertexScalarTree(g, field);
  const SuperTree super(tree);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_GT(super.NumNodes(), 0u);
  return after - before;
}

TEST(AllocationDisciplineTest, BuildAllocationCountIsConstantInGraphSize) {
  const uint64_t small = AllocationsDuringBuild(1 << 8);
  const uint64_t large = AllocationsDuringBuild(1 << 14);
  EXPECT_EQ(small, large)
      << "allocation count scales with graph size - something allocates "
         "inside the sweep loop";
  // Algorithm 1's six flat arrays + the field copy + Algorithm 2's five;
  // leave headroom for minor standard-library noise but stay well below
  // anything per-node.
  EXPECT_LE(large, 24u);
}

uint64_t AllocationsDuringParallelBuild(uint32_t n, uint32_t threads) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(n, 4, &rng);
  Rng field_rng(7);
  std::vector<double> values(g.NumVertices());
  for (auto& v : values) v = field_rng.UniformDouble();
  const VertexScalarField field("f", values);

  // grain 64 pins the chunk count at the lane ceiling for both sizes
  // (n / 64 >> 4 lanes), so the two runs allocate the same NUMBER of
  // per-chunk scratch arrays and differ only in array lengths.
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const ScalarTree tree =
      BuildVertexScalarTree(g, field, {threads, /*grain=*/64});
  const SuperTree super(tree);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_GT(super.NumNodes(), 0u);
  return after - before;
}

TEST(AllocationDisciplineTest,
     ParallelBuildAllocationCountIsConstantInGraphSize) {
  // Warm-up: spawn the pool's worker threads outside the counted window
  // (thread creation allocates; it happens once per process, not per
  // build). The parallel build then follows the same discipline as the
  // sequential one — the per-chunk scratch (local union-find, kept-edge
  // streams, sort runs) is a fixed NUMBER of arrays per chunk, and the
  // chunk count depends only on the thread count, never on n. The sweep
  // and merge loops themselves never allocate.
  // Both sizes sit above the parallel-sort threshold so the two runs
  // take the identical code path end to end.
  (void)AllocationsDuringParallelBuild(1 << 13, 4);
  const uint64_t small = AllocationsDuringParallelBuild(1 << 13, 4);
  const uint64_t large = AllocationsDuringParallelBuild(1 << 16, 4);
  EXPECT_EQ(small, large)
      << "allocation count scales with graph size - something allocates "
         "inside the chunked parallel sweep";
  // The sequential build's arrays + the sort aux buffer + per-chunk
  // scratch (3 arrays x <=4 chunks) + the packed kept-edge streams.
  EXPECT_LE(large, 48u);
}

uint64_t AllocationsDuringEdgeBuild(uint32_t n) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(n, 4, &rng);
  Rng field_rng(7);
  std::vector<double> values(static_cast<size_t>(g.NumEdges()));
  for (auto& v : values) v = field_rng.UniformDouble();
  const EdgeScalarField field("f", values);

  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const ScalarTree tree = BuildEdgeScalarTree(g, field);
  const SuperTree super(tree);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_GT(super.NumNodes(), 0u);
  return after - before;
}

TEST(AllocationDisciplineTest, EdgeBuildAllocationCountIsConstantInGraphSize) {
  const uint64_t small = AllocationsDuringEdgeBuild(1 << 8);
  const uint64_t large = AllocationsDuringEdgeBuild(1 << 14);
  EXPECT_EQ(small, large)
      << "allocation count scales with graph size - something allocates "
         "inside the edge sweep loop";
  // The endpoint pair of arrays + Algorithm 3's six + the field copy +
  // Algorithm 2's five; same headroom rule as the vertex bound.
  EXPECT_LE(large, 28u);
}

uint64_t AllocationsDuringIndexBuild(uint32_t n) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(n, 4, &rng);
  Rng field_rng(7);
  std::vector<double> values(g.NumVertices());
  for (auto& v : values)
    v = static_cast<double>(field_rng.UniformInt(32));
  const VertexScalarField field("f", values);
  const SuperTree super(BuildVertexScalarTree(g, field));

  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const TreeMemberIndex index(super);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_GT(index.SubtreeMemberCount(0), 0u);
  return after - before;
}

TEST(AllocationDisciplineTest, MemberIndexBuildAllocatesConstantArrays) {
  // The query index is the same flat-array discipline: a fixed set of
  // pre-sized vectors (children CSR, Euler positions, member CSR, the
  // reserved DFS stack) — nothing per node or per member.
  const uint64_t small = AllocationsDuringIndexBuild(1 << 8);
  const uint64_t large = AllocationsDuringIndexBuild(1 << 14);
  EXPECT_EQ(small, large)
      << "allocation count scales with tree size - something allocates "
         "inside the index build loops";
  EXPECT_LE(large, 16u);
}

TEST(AllocationDisciplineTest, IntersectKernelsNeverAllocate) {
  // The intersection layer (graph/intersect_simd.h) is allocation-free by
  // contract: zero heap allocations across Count, Count3,
  // ForEachCommonPosition and the 3-way ForEachCommonNeighbor, for every
  // dispatchable kernel. The position paths in particular must keep
  // their chunk buffers on the stack.
  Rng rng(42);
  const Graph g = BarabasiAlbert(1 << 10, 4, &rng);
  uint64_t sink = 0;

  for (const auto kernel :
       {intersect::Kernel::kScalar, intersect::Kernel::kSse2,
        intersect::Kernel::kAvx2}) {
    if (!intersect::KernelSupported(kernel)) continue;
    const intersect::Kernel previous = intersect::ActiveKernel();
    ASSERT_TRUE(intersect::SetKernelForTesting(kernel));
    const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (VertexId u = 0; u < 64; ++u) {
      for (VertexId v = u + 1; v < 64; ++v) {
        const VertexId w = (u + v) % g.NumVertices();
        sink += CountCommonNeighbors(g, u, v);
        sink += CountCommonNeighbors(g, u, v, w);
        const Graph::NeighborRange ru = g.Neighbors(u);
        const Graph::NeighborRange rv = g.Neighbors(v);
        ForEachCommonPosition(
            ru.begin(), ru.size(), rv.begin(), rv.size(),
            [&](uint32_t i, uint32_t j) { sink += ru.begin()[i] + j; });
        ForEachCommonNeighbor(g, u, v, w, [&](VertexId d) { sink += d; });
      }
    }
    const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
    intersect::SetKernelForTesting(previous);
    EXPECT_EQ(before, after)
        << "kernel " << intersect::KernelName(kernel)
        << " allocated inside the intersection hot path";
  }
  EXPECT_GT(sink, 0u);
}

uint64_t AllocationsDuringTriangleCount(uint32_t n) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(n, 4, &rng);
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const uint64_t total = CountTriangles(g);
  const std::vector<uint32_t> per_vertex = VertexTriangleCounts(g);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_GT(total, 0u);
  EXPECT_EQ(per_vertex.size(), g.NumVertices());
  return after - before;
}

TEST(AllocationDisciplineTest, TriangleCountAllocationsConstantInGraphSize) {
  // CountTriangles/VertexTriangleCounts allocate a fixed set of arrays
  // up front (the forward adjacency's offsets + targets, the counts
  // vector) and nothing per vertex or per intersection inside the sweep.
  const uint64_t small = AllocationsDuringTriangleCount(1 << 8);
  const uint64_t large = AllocationsDuringTriangleCount(1 << 14);
  EXPECT_EQ(small, large)
      << "allocation count scales with graph size - something allocates "
         "inside the triangle sweep";
  EXPECT_LE(large, 12u);
}

uint64_t AllocationsDuringSpringRefine(uint32_t iterations) {
  Rng rng(21);
  const Graph g = BarabasiAlbert(1 << 10, 4, &rng);
  Positions pos(g.NumVertices());
  Rng scatter(3);
  for (auto& p : pos) {
    p.x = scatter.UniformDouble();
    p.y = scatter.UniformDouble();
  }
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  SpringLayoutOptions options;
  options.iterations = iterations;
  RefineSpringLayout(g, options, &pos);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_GT(pos.size(), 0u);
  return after - before;
}

TEST(AllocationDisciplineTest, SpringIterationLoopDoesNotAllocate) {
  // The grid-binned force loop reuses one set of pre-sized buffers:
  // more iterations must not mean more allocations.
  const uint64_t few = AllocationsDuringSpringRefine(4);
  const uint64_t many = AllocationsDuringSpringRefine(32);
  EXPECT_EQ(few, many)
      << "allocation count scales with iterations - something allocates "
         "inside the spring iteration loop";
  EXPECT_LE(many, 12u);
}

uint64_t AllocationsDuringBigClamFit(uint32_t iterations) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(1 << 10, 4, &rng);
  BigClamOptions options;
  options.num_communities = 4;
  options.iterations = iterations;
  options.num_threads = 1;  // inline dispatch: no pool in the window
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const BigClamAffiliations fit = BigClamFit(g, options);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_GT(fit.num_vertices, 0u);
  return after - before;
}

TEST(AllocationDisciplineTest, BigClamIterationLoopDoesNotAllocate) {
  // The projected-gradient loop ping-pongs between two pre-sized factor
  // matrices; the BFS seeding scratch is allocated once up front. More
  // iterations must not mean more allocations.
  const uint64_t few = AllocationsDuringBigClamFit(2);
  const uint64_t many = AllocationsDuringBigClamFit(80);
  EXPECT_EQ(few, many)
      << "allocation count scales with iterations - something allocates "
         "inside the BigCLAM gradient loop";
  EXPECT_LE(many, 24u);
}

uint64_t AllocationsDuringRasterize(uint32_t resolution) {
  Rng rng(42);
  const Graph g = BarabasiAlbert(1 << 10, 4, &rng);
  Rng field_rng(7);
  std::vector<double> values(g.NumVertices());
  for (auto& v : values) v = static_cast<double>(field_rng.UniformInt(16));
  const SuperTree super(
      BuildVertexScalarTree(g, VertexScalarField("f", values)));
  const TerrainLayout layout = BuildTerrainLayout(super);
  RasterOptions options;
  options.width = options.height = resolution;
  const uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const HeightField field = RasterizeTerrain(layout, options);
  const uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_GT(field.height_at.size(), 0u);
  return after - before;
}

TEST(AllocationDisciplineTest, RasterPaintLoopAllocatesOnlyOutputArrays) {
  // The painter's loop writes row spans into the two up-front output
  // arrays; neither resolution nor node count adds allocations.
  const uint64_t small = AllocationsDuringRasterize(64);
  const uint64_t large = AllocationsDuringRasterize(512);
  EXPECT_EQ(small, large)
      << "allocation count scales with resolution - something allocates "
         "inside the raster paint loop";
  EXPECT_LE(large, 4u);
}

}  // namespace
}  // namespace graphscape

// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Microbenchmarks: Algorithm 1 (vertex scalar tree) and Algorithm 2 (super
// tree) scaling, and the duplicate-ratio ablation — integer fields with few
// distinct values stress Algorithm 2's merge, continuous fields stress the
// sort.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "gen/generators.h"
#include "metrics/kcore.h"
#include "scalar/scalar_tree.h"
#include "scalar/simplify.h"
#include "scalar/super_tree.h"

namespace graphscape {
namespace {

Graph MakeBenchGraph(uint32_t n) {
  Rng rng(42);
  return BarabasiAlbert(n, 4, &rng);
}

void BM_Algorithm1_Distinct(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const Graph g = MakeBenchGraph(n);
  Rng rng(7);
  std::vector<double> values(n);
  for (auto& v : values) v = rng.UniformDouble();
  const VertexScalarField field("f", values);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildVertexScalarTree(g, field));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_Algorithm1_Distinct)->Range(1 << 10, 1 << 17);

void BM_Algorithm1_IntegerField(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const Graph g = MakeBenchGraph(n);
  const VertexScalarField field =
      VertexScalarField::FromCounts("KC", CoreNumbers(g));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildVertexScalarTree(g, field));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_Algorithm1_IntegerField)->Range(1 << 10, 1 << 17);

// Fixed-size sequential reference for the scaling gate: the /threads:N
// rows below divide against this row, and bench/compare_bench.py checks
// the 4-thread ratio on machines with enough cores.
void BM_BuildVertexScalarTree(benchmark::State& state) {
  const uint32_t n = 1 << 17;
  const Graph g = MakeBenchGraph(n);
  Rng rng(7);
  std::vector<double> values(n);
  for (auto& v : values) v = rng.UniformDouble();
  const VertexScalarField field("f", values);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildVertexScalarTree(g, field));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_BuildVertexScalarTree);

// Chunked parallel build (docs/PARALLELISM.md): parallel sweep-order sort
// + per-chunk pruning sweeps + sequential replay of the kept stream.
// Output is byte-identical to the sequential row for every thread count
// (tests/parallel_test.cc); these rows measure the speed side of that
// contract.
void BM_BuildVertexScalarTreeParallel(benchmark::State& state) {
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  const uint32_t n = 1 << 17;
  const Graph g = MakeBenchGraph(n);
  Rng rng(7);
  std::vector<double> values(n);
  for (auto& v : values) v = rng.UniformDouble();
  const VertexScalarField field("f", values);
  const ParallelOptions options{threads, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildVertexScalarTree(g, field, options));
  }
  state.SetItemsProcessed(state.iterations() * g.NumEdges());
}
BENCHMARK(BM_BuildVertexScalarTreeParallel)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);

void BM_Algorithm2_SuperTree(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  const Graph g = MakeBenchGraph(n);
  const VertexScalarField field =
      VertexScalarField::FromCounts("KC", CoreNumbers(g));
  const ScalarTree tree = BuildVertexScalarTree(g, field);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SuperTree(tree));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Algorithm2_SuperTree)->Range(1 << 10, 1 << 17);

// Ablation: how the number of distinct scalar levels drives end-to-end
// (Alg.1 + Alg.2) cost and output size.
void BM_PipelineByDistinctLevels(benchmark::State& state) {
  const uint32_t levels = static_cast<uint32_t>(state.range(0));
  const Graph g = MakeBenchGraph(1 << 14);
  Rng rng(7);
  std::vector<double> values(g.NumVertices());
  for (auto& v : values)
    v = static_cast<double>(rng.UniformInt(levels));
  const VertexScalarField field("f", values);
  uint32_t super_nodes = 0;
  for (auto _ : state) {
    const SuperTree super(BuildVertexScalarTree(g, field));
    super_nodes = super.NumNodes();
    benchmark::DoNotOptimize(super_nodes);
  }
  state.counters["super_nodes"] = super_nodes;
}
BENCHMARK(BM_PipelineByDistinctLevels)->RangeMultiplier(4)->Range(2, 2048);

// Ablation: simplification levels vs tree size (the §II-E rendering knob).
void BM_Simplification(benchmark::State& state) {
  const uint32_t levels = static_cast<uint32_t>(state.range(0));
  const Graph g = MakeBenchGraph(1 << 14);
  Rng rng(9);
  std::vector<double> values(g.NumVertices());
  for (auto& v : values) v = rng.UniformDouble();
  const VertexScalarField field("f", values);
  uint32_t super_nodes = 0;
  for (auto _ : state) {
    const SuperTree super = SimplifiedVertexSuperTree(g, field, levels);
    super_nodes = super.NumNodes();
    benchmark::DoNotOptimize(super_nodes);
  }
  state.counters["super_nodes"] = super_nodes;
}
BENCHMARK(BM_Simplification)->RangeMultiplier(4)->Range(4, 1024);

}  // namespace
}  // namespace graphscape

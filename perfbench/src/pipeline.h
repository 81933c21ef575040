// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// The build pipeline both build workloads and the serve-mixed corpus use,
// one stage per call into a graphscape module, each wrapped in a span
// named after its per-layer metric:
//
//   metrics.ktruss / metrics.kcore / metrics.pagerank   the scalar field
//   scalar.edge_tree / scalar.vertex_tree_{kc,pr}       Algorithm 3 / 1
//   scalar.super_tree                                   Algorithm 2
//   scalar.cache_put                                    ArtifactCache::Put
//   scalar.simplify      Simplified*SuperTree(.., 64), trees over 50k nodes
//   terrain.layout / terrain.raster / terrain.render    terrain bytes
//
// This mirrors the fig7 flow (bench/bench_fig7_large_scale.cpp) with the
// thread count as a parameter, so the same code runs at the measured
// thread count and at one thread for the determinism reference.

#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/status.h"
#include "graph/graph.h"
#include "harness.h"
#include "scalar/artifact_cache.h"
#include "scalar/edge_scalar_tree.h"
#include "scalar/scalar_field.h"
#include "scalar/tree_io.h"

namespace perfbench {

enum class FieldKind : uint8_t { kTruss, kCore, kPageRank };

/// Artifact key of the field: "KT", "KC" or "PR".
const char* FieldKey(FieldKind kind);
/// Lower-case key for metric names: "kt", "kc" or "pr".
const char* FieldMetricKey(FieldKind kind);

/// Super trees with more nodes than this are simplified to
/// kSimplifyLevels levels before the terrain is drawn (paper §II-E).
inline constexpr uint32_t kSimplifyAboveNodes = 50000;
inline constexpr uint32_t kSimplifyLevels = 64;
inline constexpr uint32_t kImageWidth = 960;
inline constexpr uint32_t kImageHeight = 720;

struct PipelineContext {
  const graphscape::Graph* graph = nullptr;
  uint32_t threads = 1;
  Tracer* tracer = nullptr;
  RssByStage* rss = nullptr;  ///< null: no RSS samples
};

/// One field, its scalar tree and its super tree, as an artifact plus the
/// field object the simplifier needs.
struct FieldTree {
  FieldKind kind = FieldKind::kCore;
  std::optional<graphscape::VertexScalarField> vertex_field;
  std::optional<graphscape::EdgeScalarField> edge_field;
  graphscape::TreeArtifact artifact;
};

FieldTree BuildFieldTree(const PipelineContext& ctx, FieldKind kind);

graphscape::Status PutArtifact(const PipelineContext& ctx,
                               graphscape::ArtifactCache* cache,
                               const std::string& dataset,
                               const FieldTree& field);

struct TerrainResult {
  std::string ppm;                ///< EncodePpm of the oblique render
  uint32_t rendered_nodes = 0;    ///< nodes of the tree actually drawn
  bool simplified = false;
};

TerrainResult RenderTerrain(const PipelineContext& ctx, const FieldTree& field);

/// Field-by-field equality of two artifacts (tree arrays, roots, field
/// name and values).
bool ArtifactsEqual(const graphscape::TreeArtifact& a,
                    const graphscape::TreeArtifact& b);

/// Distinct values of a field.
uint32_t DistinctValues(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_

// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "pipeline.h"

#include <algorithm>
#include <vector>

#include "metrics/kcore.h"
#include "metrics/ktruss.h"
#include "metrics/pagerank.h"
#include "scalar/scalar_tree.h"
#include "scalar/simplify.h"
#include "scalar/super_tree.h"
#include "terrain/render.h"
#include "terrain/terrain_layout.h"
#include "terrain/terrain_raster.h"

namespace perfbench {

using graphscape::ArtifactCache;
using graphscape::ArtifactKey;
using graphscape::EdgeScalarField;
using graphscape::ParallelOptions;
using graphscape::ScalarTree;
using graphscape::Status;
using graphscape::SuperTree;
using graphscape::TreeArtifact;
using graphscape::VertexScalarField;

namespace {

void NoteRss(const PipelineContext& ctx, const char* stage) {
  if (ctx.rss != nullptr) ctx.rss->Note(stage);
}

}  // namespace

const char* FieldKey(FieldKind kind) {
  switch (kind) {
    case FieldKind::kTruss:
      return "KT";
    case FieldKind::kCore:
      return "KC";
    case FieldKind::kPageRank:
      return "PR";
  }
  return "?";
}

const char* FieldMetricKey(FieldKind kind) {
  switch (kind) {
    case FieldKind::kTruss:
      return "kt";
    case FieldKind::kCore:
      return "kc";
    case FieldKind::kPageRank:
      return "pr";
  }
  return "?";
}

FieldTree BuildFieldTree(const PipelineContext& ctx, FieldKind kind) {
  const graphscape::Graph& g = *ctx.graph;
  const ParallelOptions parallel{ctx.threads, 0};
  FieldTree out;
  out.kind = kind;
  ScalarTree tree;
  if (kind == FieldKind::kTruss) {
    {
      Tracer::Span span(ctx.tracer, "metrics.ktruss", 0, true);
      out.edge_field.emplace(EdgeScalarField::FromCounts(
          FieldKey(kind), graphscape::TrussNumbersParallel(g, parallel)));
    }
    NoteRss(ctx, "field");
    Tracer::Span span(ctx.tracer, "scalar.edge_tree", 0, true);
    tree =
        graphscape::BuildEdgeScalarTreeParallel(g, *out.edge_field, parallel);
  } else {
    if (kind == FieldKind::kCore) {
      Tracer::Span span(ctx.tracer, "metrics.kcore", 0, true);
      out.vertex_field.emplace(VertexScalarField::FromCounts(
          FieldKey(kind), graphscape::CoreNumbers(g)));
    } else {
      Tracer::Span span(ctx.tracer, "metrics.pagerank", 0, true);
      out.vertex_field.emplace(
          FieldKey(kind), graphscape::PageRankParallel(g, {}, parallel));
    }
    NoteRss(ctx, "field");
    Tracer::Span span(ctx.tracer,
                      kind == FieldKind::kCore ? "scalar.vertex_tree_kc"
                                               : "scalar.vertex_tree_pr",
                      0, true);
    tree = graphscape::BuildVertexScalarTreeParallel(g, *out.vertex_field,
                                                     parallel);
  }
  NoteRss(ctx, "tree");
  {
    Tracer::Span span(ctx.tracer, "scalar.super_tree", 0, true);
    out.artifact.tree = SuperTree(tree);
  }
  tree = ScalarTree();  // the fig7 flow drops the scalar tree here too
  NoteRss(ctx, "super_tree");
  out.artifact.field_name = FieldKey(kind);
  out.artifact.field_values = out.edge_field ? out.edge_field->Values()
                                             : out.vertex_field->Values();
  return out;
}

Status PutArtifact(const PipelineContext& ctx, ArtifactCache* cache,
                   const std::string& dataset, const FieldTree& field) {
  Status status = Status::Ok();
  {
    Tracer::Span span(ctx.tracer, "scalar.cache_put", 0, true);
    status = cache->Put(ArtifactKey{dataset, FieldKey(field.kind)},
                        field.artifact);
  }
  NoteRss(ctx, "put");
  return status;
}

TerrainResult RenderTerrain(const PipelineContext& ctx,
                            const FieldTree& field) {
  TerrainResult out;
  const SuperTree& full = field.artifact.tree;
  SuperTree simplified;
  if (full.NumNodes() > kSimplifyAboveNodes) {
    Tracer::Span span(ctx.tracer, "scalar.simplify", 0, true);
    simplified = field.edge_field
                     ? graphscape::SimplifiedEdgeSuperTree(
                           *ctx.graph, *field.edge_field, kSimplifyLevels)
                     : graphscape::SimplifiedVertexSuperTree(
                           *ctx.graph, *field.vertex_field, kSimplifyLevels);
    out.simplified = true;
  }
  const SuperTree& drawn = out.simplified ? simplified : full;
  out.rendered_nodes = drawn.NumNodes();
  graphscape::TerrainLayout layout;
  {
    Tracer::Span span(ctx.tracer, "terrain.layout", 0, true);
    layout = graphscape::BuildTerrainLayout(drawn);
  }
  graphscape::HeightField height;
  {
    Tracer::Span span(ctx.tracer, "terrain.raster", 0, true);
    graphscape::RasterOptions raster;
    raster.num_threads = ctx.threads;
    height = graphscape::RasterizeTerrain(layout, raster);
  }
  {
    Tracer::Span span(ctx.tracer, "terrain.render", 0, true);
    out.ppm = graphscape::EncodePpm(graphscape::RenderOblique(
        height, graphscape::HeightColors(drawn), graphscape::Camera{},
        kImageWidth, kImageHeight));
  }
  NoteRss(ctx, "terrain");
  return out;
}

bool ArtifactsEqual(const TreeArtifact& a, const TreeArtifact& b) {
  return a.field_name == b.field_name && a.field_values == b.field_values &&
         a.tree.NumRoots() == b.tree.NumRoots() &&
         a.tree.NodeValues() == b.tree.NodeValues() &&
         a.tree.NodeParents() == b.tree.NodeParents() &&
         a.tree.MemberCounts() == b.tree.MemberCounts() &&
         a.tree.ElementNodes() == b.tree.ElementNodes();
}

uint32_t DistinctValues(const std::vector<double>& values) {
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  return static_cast<uint32_t>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
}

}  // namespace perfbench

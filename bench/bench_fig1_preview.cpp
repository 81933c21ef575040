// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Fig. 1: the paper's preview — (a) a K-Core terrain of a collaboration
// network colored by degree (second measure), and (b) a four-community
// terrain of a DBLP-like network. Writes both renders and prints the
// structural readouts the paper calls out.

#include <cstdio>

#include "bench_util.h"
#include "community/bigclam.h"
#include "gen/datasets.h"
#include "gen/generators.h"
#include "metrics/kcore.h"
#include "scalar/scalar_tree.h"
#include "scalar/tree_queries.h"
#include "terrain/render.h"
#include "terrain/terrain_raster.h"

int main() {
  using namespace graphscape;
  bench::Banner("Fig. 1 — preview terrains",
                "paper Fig. 1(a) K-Core terrain, Fig. 1(b) community terrain");
  const std::string out = bench::OutputDir();

  // (a) K-Core terrain colored by degree.
  const Dataset grqc = MakeDataset(DatasetId::kGrQc);
  const VertexScalarField kc =
      VertexScalarField::FromCounts("KC", CoreNumbers(grqc.graph));
  const SuperTree core_tree(BuildVertexScalarTree(grqc.graph, kc));
  std::vector<double> degrees(grqc.graph.NumVertices());
  for (VertexId v = 0; v < grqc.graph.NumVertices(); ++v)
    degrees[v] = grqc.graph.Degree(v);
  const TerrainLayout core_layout = BuildTerrainLayout(core_tree);
  const HeightField core_field = RasterizeTerrain(core_layout);
  const Image core_terrain = RenderOblique(
      core_field, SuperNodeColors(core_tree, degrees), Camera{}, 960, 720);
  const std::string core_path = out + "/fig1a_kcore_terrain.ppm";
  bench::WriteChecked(core_path,
                      [&] { return WritePpm(core_terrain, core_path); });
  const auto top = PeaksAtLevel(core_tree, kc.MaxValue());
  std::printf("Fig 1(a): densest K-Core K=%g, %zu disconnected densest "
              "core(s); click-to-inspect set sizes:", kc.MaxValue(),
              top.size());
  for (const auto& peak : top) std::printf(" %u", peak.member_count);
  std::printf("\n  -> %s/fig1a_kcore_terrain.ppm (height=KC, color=degree)\n",
              out.c_str());

  // (b) Four communities in one picture: terrain of max community score
  // (scores stand in for ref [14]'s output; see DESIGN.md substitution 2).
  OverlappingCommunityOptions community_options;
  community_options.num_communities = 4;
  community_options.vertices_per_community = 300;
  Rng rng(1);
  const CommunityGraphResult dblp =
      OverlappingCommunities(community_options, &rng);

  std::vector<double> best_score(dblp.graph.NumVertices(), 0.0);
  std::vector<double> best_community(dblp.graph.NumVertices(), 0.0);
  for (uint32_t c = 0; c < 4; ++c) {
    for (VertexId v = 0; v < dblp.graph.NumVertices(); ++v) {
      if (dblp.scores[c][v] > best_score[v]) {
        best_score[v] = dblp.scores[c][v];
        best_community[v] = c;
      }
    }
  }
  const VertexScalarField field("max_community_score", best_score);
  const SuperTree tree(BuildVertexScalarTree(dblp.graph, field));
  const TerrainLayout layout = BuildTerrainLayout(tree);
  const HeightField height_field = RasterizeTerrain(layout);
  const Image community_terrain = RenderOblique(
      height_field, SuperNodeColors(tree, best_community), Camera{}, 960, 720);
  const std::string community_path = out + "/fig1b_community_terrain.ppm";
  bench::WriteChecked(community_path, [&] {
    return WritePpm(community_terrain, community_path);
  });
  std::printf("Fig 1(b): %u major peaks at score >= 0.5 (expect ~4, one per "
              "community)\n",
              CountComponentsAtLevel(tree, 0.5));
  std::printf("  -> %s/fig1b_community_terrain.ppm (height=score, "
              "color=community id)\n",
              out.c_str());
  return bench::ExitCode();
}

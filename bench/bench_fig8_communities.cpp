// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Fig. 8: community terrains on the DBLP(sub)-like network. The community
// score vectors play the role of ref [14]'s (BigCLAM) output: the planted
// generator emits them directly (DESIGN.md §3, substitution 2), and our
// BigCLAM-lite implementation is run as a secondary recovery check. The
// headline structure is the *two disconnected core peaks* inside each
// community (the paper's US-vs-China researcher groups).

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "community/bigclam.h"
#include "gen/generators.h"
#include "scalar/scalar_tree.h"
#include "scalar/tree_queries.h"
#include "terrain/render.h"
#include "terrain/terrain_raster.h"

int main() {
  using namespace graphscape;
  bench::Banner("Fig. 8 — two communities in the DBLP network",
                "paper Fig. 8(a)/(b): twin core peaks inside one community");
  const std::string out = bench::OutputDir();

  OverlappingCommunityOptions options;
  options.num_communities = 4;
  options.vertices_per_community = 300;
  options.subclusters = 2;
  Rng rng(2017);
  const CommunityGraphResult dblp = OverlappingCommunities(options, &rng);
  std::printf("DBLP(sub)-like: %u vertices, %u edges, 4 overlapping "
              "communities\n",
              dblp.graph.NumVertices(), dblp.graph.NumEdges());

  for (uint32_t c = 0; c < 4; ++c) {
    const VertexScalarField score("community" + std::to_string(c),
                                  dblp.scores[c]);
    const SuperTree tree(BuildVertexScalarTree(dblp.graph, score));
    const TerrainLayout layout = BuildTerrainLayout(tree);
    const HeightField field = RasterizeTerrain(layout);
    const std::string path =
        out + "/fig8_community" + std::to_string(c) + ".ppm";
    const Image terrain =
        RenderOblique(field, HeightColors(tree), Camera{}, 800, 600);
    bench::WriteChecked(path, [&] { return WritePpm(terrain, path); });

    // Sub-peak structure near the summit: disconnected high-score cores.
    const auto core_peaks = PeaksAtLevel(tree, 0.8);
    std::printf("community %u: %zu core peak(s) at score >= 0.8;", c,
                core_peaks.size());
    for (const auto& peak : core_peaks)
      std::printf(" [%u members, summit %.2f]", peak.member_count,
                  peak.max_scalar);
    std::printf(" -> %s\n", path.c_str());
    if (core_peaks.size() >= 2) {
      std::printf("  twin peaks are disconnected at score 0.8 -> their "
                  "member sets do not collaborate directly (the paper's "
                  "geographic-split reading)\n");
    }
  }

  // Secondary check: BigCLAM-lite recovery of the planted communities.
  BigClamOptions bigclam;
  bigclam.num_communities = 4;
  bigclam.iterations = 80;
  const auto affinities = BigClamFit(dblp.graph, bigclam);
  std::printf("\nBigCLAM-lite recovery (best member-overlap per planted "
              "community):\n");
  for (uint32_t planted = 0; planted < 4; ++planted) {
    double best = 0.0;
    for (uint32_t fitted = 0; fitted < 4; ++fitted) {
      const VertexScalarField fit = CommunityScoreField(affinities, fitted);
      uint32_t hits = 0, size = 0;
      for (VertexId v = 0; v < dblp.graph.NumVertices(); ++v) {
        if (dblp.scores[planted][v] > 0.2) {
          ++size;
          if (fit[v] > 0.3) ++hits;
        }
      }
      if (size > 0) best = std::max(best, static_cast<double>(hits) / size);
    }
    std::printf("  community %u: overlap %.2f\n", planted, best);
  }
  std::printf("\nshape check: every community = one major peak; twin "
              "sub-communities = 2 disconnected core peaks near the summit.\n");
  return bench::ExitCode();
}

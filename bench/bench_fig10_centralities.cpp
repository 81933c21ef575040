// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Fig. 10: comparing degree and betweenness centrality on the Astro
// network. Reports GCI (paper: 0.89), draws the outlier-score terrain
// colored by degree, and drills into the two most prominent outlier peaks
// (paper: bridge vertices connecting multiple communities).

#include <cstdio>

#include "bench_util.h"
#include "gen/datasets.h"
#include "graph/graph_algos.h"
#include "layout/spring_layout.h"
#include "metrics/centrality.h"
#include "scalar/correlation.h"
#include "scalar/persistence.h"
#include "scalar/scalar_tree.h"
#include "scalar/tree_queries.h"
#include "terrain/render.h"
#include "terrain/svg.h"
#include "terrain/terrain_raster.h"

int main() {
  using namespace graphscape;
  bench::Banner("Fig. 10 — degree vs betweenness on Astro",
                "paper §III-C: GCI=0.89; outlier terrain; bridge drilldowns");
  const std::string out = bench::OutputDir();

  DatasetOptions options;
  if (bench::FullScale()) options.scale_divisor = 1;
  const Dataset astro = MakeDataset(DatasetId::kAstro, options);
  std::printf("Astro-like: %u vertices, %llu edges\n",
              astro.graph.NumVertices(),
              static_cast<unsigned long long>(astro.graph.NumEdges()));

  const VertexScalarField degree("degree", DegreeCentrality(astro.graph));
  BetweennessOptions bo;
  bo.num_samples = 256;
  const VertexScalarField betweenness(
      "betweenness", BetweennessCentrality(astro.graph, bo));

  const double gci = Gci(astro.graph, degree, betweenness);
  std::printf("GCI(Sd, Sb) = %.2f   (paper: 0.89 — strongly positive)\n",
              gci);

  const VertexScalarField outlier =
      OutlierScoreField(astro.graph, degree, betweenness);
  const SuperTree tree(BuildVertexScalarTree(astro.graph, outlier));
  const TerrainLayout layout = BuildTerrainLayout(tree);
  const HeightField field = RasterizeTerrain(layout);
  const Image terrain = RenderOblique(
      field, SuperNodeColors(tree, degree.values()), Camera{}, 960, 720);
  const std::string terrain_path = out + "/fig10a_outlier_terrain.ppm";
  bench::WriteChecked(terrain_path,
                      [&] { return WritePpm(terrain, terrain_path); });
  std::printf("(a) outlier terrain (height=-LCI, color=degree) -> "
              "fig10a_outlier_terrain.ppm\n");

  // The paper's color observation: "most high peaks are blue", i.e. the
  // outlier vertices have low degree relative to the degree scale set by
  // the network's hubs. Check the color band of the most prominent peaks.
  const auto colors = SuperNodeColors(tree, degree.values());
  const Rgb blue = FourBandColor(0.0);
  uint32_t blue_peaks = 0, checked = 0;
  for (const auto& peak : PeaksAtLevel(tree, 0.0)) {  // outlier territory
    if (checked >= 10) break;
    ++checked;
    if (colors[peak.super_node] == blue) ++blue_peaks;
  }
  if (checked > 0) {
    std::printf("top outlier peaks colored blue (low degree): %u of %u "
                "(paper: \"most high peaks are blue\")\n",
                blue_peaks, checked);
  }

  // (b, c) drill into the two most prominent outlier peaks.
  const auto peaks = PeaksAtLevel(tree, 0.0);  // negative-LCI territory
  int drawn = 0;
  for (const auto& peak : peaks) {
    if (drawn >= 2) break;
    VertexId top = kInvalidVertex;
    for (uint32_t member : tree.SubtreeMembers(peak.super_node))
      if (top == kInvalidVertex || outlier[member] > outlier[top])
        top = member;
    if (top == kInvalidVertex) continue;
    const auto hood = KHopNeighborhood(astro.graph, top, 2);
    const Subgraph sub = InducedSubgraph(astro.graph, hood);
    SpringLayoutOptions spring;
    spring.iterations = 60;
    const Positions pos = SpringLayout(sub.graph, spring);
    std::vector<Rgb> colors(sub.graph.NumVertices(), Rgb{59, 130, 246});
    colors[0] = Rgb{220, 38, 38};
    const std::string path = out + "/fig10" + (drawn == 0 ? "b" : "c") +
                             "_outlier_neighborhood.svg";
    bench::WriteChecked(path, [&] {
      return WriteNodeLinkSvg(sub.graph, pos, colors, path, 600, 3.5);
    });
    std::printf("(%c) outlier vertex %u: LCI=%.2f, degree=%u, betweenness "
                "rank high -> %s\n",
                drawn == 0 ? 'b' : 'c', top, -outlier[top],
                astro.graph.Degree(top), path.c_str());
    ++drawn;
  }
  std::printf("shape check: outlier vertices look like bridges between "
              "communities in the 2-hop drilldowns.\n");
  return bench::ExitCode();
}

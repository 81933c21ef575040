// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Fig. 6: visualizing dense subgraphs. Regenerates every panel:
//   (a,b) spring layouts of GrQc / WikiVote — the uninformative baseline;
//   (c,d) K-Core terrains — GrQc shows several high peaks, WikiVote one;
//   (e)   K-Truss terrain of GrQc;
//   (f)   LaNet-vi-style K-Core plot of GrQc;
//   (g)   CSV plot of K-Truss density.
// Prints the structural readouts that distinguish the two regimes.

#include <cstdio>

#include "bench_util.h"
#include "gen/datasets.h"
#include "layout/csv_plot.h"
#include "layout/lanetvi_layout.h"
#include "layout/spring_layout.h"
#include "metrics/kcore.h"
#include "metrics/ktruss.h"
#include "scalar/edge_scalar_tree.h"
#include "scalar/tree_queries.h"
#include "terrain/render.h"
#include "terrain/svg.h"
#include "terrain/terrain_raster.h"

namespace {

using namespace graphscape;

void SpringPanel(const Dataset& ds, const std::string& path) {
  SpringLayoutOptions options;
  options.iterations = 50;
  const Positions pos = SpringLayout(ds.graph, options);
  const std::vector<uint32_t> core = CoreNumbers(ds.graph);
  uint32_t kmax = 0;
  for (uint32_t c : core) kmax = std::max(kmax, c);
  std::vector<Rgb> colors(ds.graph.NumVertices());
  for (VertexId v = 0; v < ds.graph.NumVertices(); ++v)
    colors[v] = FourBandColor(static_cast<double>(core[v]) / kmax);
  bench::WriteChecked(path, [&] {
    return WriteNodeLinkSvg(ds.graph, pos, colors, path, 700, 1.2);
  });
}

uint32_t TerrainPanel(const Dataset& ds, const std::string& path,
                      double* densest_k) {
  const VertexScalarField kc =
      VertexScalarField::FromCounts("KC", CoreNumbers(ds.graph));
  const SuperTree tree(BuildVertexScalarTree(ds.graph, kc));
  const TerrainLayout layout = BuildTerrainLayout(tree);
  const HeightField field = RasterizeTerrain(layout);
  const Image terrain =
      RenderOblique(field, HeightColors(tree), Camera{}, 960, 720);
  bench::WriteChecked(path, [&] { return WritePpm(terrain, path); });
  *densest_k = kc.MaxValue();
  // "High peaks": disconnected components in the top 30% of the K range.
  const double high = kc.MinValue() + 0.7 * (kc.MaxValue() - kc.MinValue());
  return CountComponentsAtLevel(tree, high);
}

}  // namespace

int main() {
  using namespace graphscape;
  bench::Banner("Fig. 6 — visualizing dense subgraphs",
                "paper Fig. 6(a)-(g): spring vs terrain vs LaNet-vi vs CSV");
  const std::string out = bench::OutputDir();

  const Dataset grqc = MakeDataset(DatasetId::kGrQc);
  const Dataset wikivote = MakeDataset(DatasetId::kWikiVote);

  // (a, b) spring layouts.
  SpringPanel(grqc, out + "/fig6a_grqc_spring.svg");
  SpringPanel(wikivote, out + "/fig6b_wikivote_spring.svg");
  std::printf("(a,b) spring layouts -> fig6a/fig6b (dense-core structure "
              "unreadable there)\n");

  // (c, d) K-Core terrains: the two regimes.
  double grqc_k = 0.0, wikivote_k = 0.0;
  const uint32_t grqc_high =
      TerrainPanel(grqc, out + "/fig6c_grqc_kcore_terrain.ppm", &grqc_k);
  const uint32_t wikivote_high = TerrainPanel(
      wikivote, out + "/fig6d_wikivote_kcore_terrain.ppm", &wikivote_k);
  std::printf("(c) GrQc terrain: densest K=%g, high peaks=%u (paper: "
              "SEVERAL disconnected dense cores)\n",
              grqc_k, grqc_high);
  std::printf("(d) WikiVote terrain: densest K=%g, high peaks=%u (paper: ONE "
              "dominant core)\n",
              wikivote_k, wikivote_high);

  // (e) K-Truss terrain of GrQc.
  const EdgeScalarField kt =
      EdgeScalarField::FromCounts("KT", TrussNumbers(grqc.graph));
  const SuperTree truss_tree(BuildEdgeScalarTree(grqc.graph, kt));
  const HeightField truss_field =
      RasterizeTerrain(BuildTerrainLayout(truss_tree));
  const Image truss_terrain =
      RenderOblique(truss_field, HeightColors(truss_tree), Camera{}, 960, 720);
  const std::string truss_path = out + "/fig6e_grqc_ktruss_terrain.ppm";
  bench::WriteChecked(truss_path,
                      [&] { return WritePpm(truss_terrain, truss_path); });
  std::printf("(e) GrQc K-Truss terrain: densest KT=%g\n", kt.MaxValue());

  // Hierarchy readout the 2D tools cannot show: how many dense cores sit
  // on shared foundations (nested peaks).
  const VertexScalarField kc_field =
      VertexScalarField::FromCounts("KC", CoreNumbers(grqc.graph));
  const SuperTree core_tree(BuildVertexScalarTree(grqc.graph, kc_field));
  const auto top_peaks = PeaksAtLevel(core_tree, kc_field.MaxValue());
  uint32_t nested = 0;
  for (const auto& peak : top_peaks)
    if (core_tree.Parent(peak.super_node) != kNoParent) ++nested;
  std::printf("    hierarchy: %u of %zu densest cores rest on less-dense "
              "foundations (containment)\n",
              nested, top_peaks.size());

  // (f) LaNet-vi-style plot.
  const LanetViLayoutResult lanetvi = LanetViLayout(grqc.graph);
  std::vector<Rgb> shell_colors(grqc.graph.NumVertices());
  for (VertexId v = 0; v < grqc.graph.NumVertices(); ++v)
    shell_colors[v] = ContinuousColor(
        static_cast<double>(lanetvi.core_of[v]) /
        std::max(1u, lanetvi.max_core));
  const std::string lanetvi_path = out + "/fig6f_grqc_lanetvi.svg";
  bench::WriteChecked(lanetvi_path, [&] {
    return WriteNodeLinkSvg(grqc.graph, lanetvi.positions, shell_colors,
                            lanetvi_path, 700, 1.5);
  });
  std::printf("(f) LaNet-vi plot -> fig6f (color-coded shells, no "
              "containment channel)\n");

  // (g) CSV plot over the truss density.
  std::vector<double> density(grqc.graph.NumVertices(), 0.0);
  const std::vector<uint32_t> truss = TrussNumbers(grqc.graph);
  for (EdgeId e = 0; e < grqc.graph.NumEdges(); ++e) {
    const auto [u, v] = grqc.graph.EdgeEndpoints(e);
    density[u] = std::max(density[u], static_cast<double>(truss[e]));
    density[v] = std::max(density[v], static_cast<double>(truss[e]));
  }
  const CsvPlot plot = BuildCsvPlot(grqc.graph, density);
  const std::string plot_path = out + "/fig6g_grqc_csv_plot.svg";
  bench::WriteChecked(plot_path,
                      [&] { return WriteCsvPlotSvg(plot, plot_path); });
  std::printf("(g) CSV plot -> fig6g (1D density curve; peaks without "
              "hierarchy)\n");
  return bench::ExitCode();
}

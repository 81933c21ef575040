// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Fig. 11: SQL-query-result terrains over the plant-genus NN graph. Checks
// the three observations the paper reads off the figure: (i) three genus
// clusters with the blue genus well separated; (ii) red genus contained
// within / adjacent to green; (iii) attribute 1 separates genus better than
// attribute 2 (greater terrain-height variance across genus).

#include <cstdio>
#include <map>
#include <string>

#include "bench_util.h"
#include "common/rng.h"
#include "graph/graph_algos.h"
#include "query/nn_graph.h"
#include "query/table.h"
#include "scalar/scalar_tree.h"
#include "scalar/tree_queries.h"
#include "terrain/render.h"
#include "terrain/terrain_raster.h"

int main() {
  using namespace graphscape;
  bench::Banner("Fig. 11 — query result understanding",
                "paper Fig. 11(a)/(b): plant-genus NN-graph terrains");
  const std::string out = bench::OutputDir();

  Rng rng(11);
  const Table table = MakePlantGenusTable(120, &rng);
  NnGraphOptions nn;
  nn.normalize = false;
  nn.distance_threshold = 2.5;
  nn.max_neighbors = 8;
  const Graph graph = BuildNnGraph(table, nn);
  std::printf("query result: %zu rows -> NN graph %u vertices, %u edges\n",
              table.NumRows(), graph.NumVertices(), graph.NumEdges());

  // (i)+(ii) genus separation in the NN graph itself: the blue genus
  // (genusC) is well separated; red (genusA) and green (genusB) are the
  // adjacent pair, so any cross edges should be A-B.
  const ComponentLabeling comps = ConnectedComponents(graph);
  std::map<std::string, uint32_t> cross;
  for (EdgeId e = 0; e < graph.NumEdges(); ++e) {
    const auto [u, v] = graph.EdgeEndpoints(e);
    if (table.Label(u) != table.Label(v)) {
      std::string key = table.Label(u) < table.Label(v)
                            ? table.Label(u) + "-" + table.Label(v)
                            : table.Label(v) + "-" + table.Label(u);
      ++cross[key];
    }
  }
  std::printf("(i) %u components; cross-genus edges:", comps.num_components);
  if (cross.empty()) std::printf(" none");
  for (const auto& [pair, count] : cross)
    std::printf(" %s:%u", pair.c_str(), count);
  std::printf("\n(ii) genusC (blue) touches no other genus: %s; any contact "
              "is A-B (red within green's reach): %s\n",
              cross.count("genusA-genusC") == 0 &&
                      cross.count("genusB-genusC") == 0
                  ? "HOLDS"
                  : "VIOLATED",
              cross.size() == cross.count("genusA-genusB") ? "HOLDS"
                                                            : "VIOLATED");

  const std::map<std::string, Rgb> genus_color = {
      {"genusA", Rgb{220, 38, 38}},
      {"genusB", Rgb{46, 166, 76}},
      {"genusC", Rgb{41, 98, 255}}};

  double separability[2] = {0.0, 0.0};
  for (uint32_t attribute : {0u, 1u}) {
    const VertexScalarField field = ColumnAsField(table, attribute);
    const SuperTree tree(BuildVertexScalarTree(graph, field));
    const TerrainLayout layout = BuildTerrainLayout(tree);
    const HeightField height_field = RasterizeTerrain(layout);

    std::vector<Rgb> colors(tree.NumNodes(), Rgb{156, 163, 175});
    for (uint32_t node = 0; node < tree.NumNodes(); ++node) {
      std::map<std::string, uint32_t> votes;
      for (uint32_t member : tree.Members(node)) ++votes[table.Label(member)];
      uint32_t best = 0;
      for (const auto& [label, count] : votes)
        if (count > best) {
          best = count;
          colors[node] = genus_color.at(label);
        }
    }
    const std::string path = out + "/fig11" +
                             (attribute == 0 ? "a" : "b") + "_attr" +
                             std::to_string(attribute + 1) + "_terrain.ppm";
    const Image terrain =
        RenderOblique(height_field, colors, Camera{}, 800, 600);
    bench::WriteChecked(path, [&] { return WritePpm(terrain, path); });

    // Separability: variance of per-genus mean heights.
    std::map<std::string, std::pair<double, uint32_t>> genus_height;
    for (size_t row = 0; row < table.NumRows(); ++row) {
      auto& [sum, count] = genus_height[table.Label(row)];
      sum += table.Value(row, attribute);
      ++count;
    }
    double mean_of_means = 0.0;
    for (const auto& [label, acc] : genus_height)
      mean_of_means += acc.first / acc.second;
    mean_of_means /= genus_height.size();
    for (const auto& [label, acc] : genus_height) {
      const double m = acc.first / acc.second;
      separability[attribute] += (m - mean_of_means) * (m - mean_of_means);
    }
    std::printf("attribute %u terrain -> %s (height variance across genus: "
                "%.2f)\n",
                attribute + 1, path.c_str(), separability[attribute]);
  }
  std::printf("(iii) attribute 1 variance %.2f > attribute 2 variance %.2f: "
              "%s\n",
              separability[0], separability[1],
              separability[0] > separability[1] ? "HOLDS" : "VIOLATED");
  return bench::ExitCode();
}

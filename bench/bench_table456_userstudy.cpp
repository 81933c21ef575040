// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Tables IV, V, VI: the simulated user study (see DESIGN.md §3,
// substitution 4 — simulated participants replace the paper's human
// subjects; evidence is extracted from the actual rendered artifacts).
// Also regenerates the Fig. 12/13 panels as files.
//
// Shape to hold: terrain accuracy 1.0 on Tasks 1-2 with the lowest times;
// LaNet-vi/OpenOrd drop accuracy on PPI/DBLP and cost 1.5-3x the time;
// Task 3 favors terrain over OpenOrd on both accuracy and time.

#include <cstdio>

#include "bench_util.h"
#include "gen/datasets.h"
#include "layout/openord_layout.h"
#include "metrics/centrality.h"
#include "metrics/kcore.h"
#include "scalar/correlation.h"
#include "scalar/scalar_tree.h"
#include "terrain/render.h"
#include "terrain/svg.h"
#include "terrain/terrain_raster.h"
#include "userstudy/evidence.h"
#include "userstudy/simulated_user.h"

namespace {

using namespace graphscape;

struct ToolArtifacts {
  SuperTree tree;
  LanetViLayoutResult lanetvi;
  Positions openord;
  std::vector<uint32_t> cores;
};

ToolArtifacts BuildArtifacts(const Graph& graph) {
  ToolArtifacts artifacts;
  artifacts.cores = CoreNumbers(graph);
  artifacts.tree = SuperTree(BuildVertexScalarTree(
      graph, VertexScalarField::FromCounts("KC", artifacts.cores)));
  artifacts.lanetvi = LanetViLayout(graph);
  OpenOrdOptions oo;
  oo.coarse_iterations = 60;
  oo.refine_iterations = 15;
  artifacts.openord = OpenOrdLayout(graph, oo);
  return artifacts;
}

void EmitFig12Panels(const char* name, const Graph& graph,
                     const ToolArtifacts& artifacts, const std::string& out) {
  const HeightField field =
      RasterizeTerrain(BuildTerrainLayout(artifacts.tree));
  const Image terrain =
      RenderOblique(field, HeightColors(artifacts.tree), Camera{}, 700, 520);
  const std::string prefix = out + "/fig12_" + name;
  const std::string terrain_path = prefix + "_terrain.ppm";
  bench::WriteChecked(terrain_path,
                      [&] { return WritePpm(terrain, terrain_path); });
  uint32_t kmax = 1;
  for (uint32_t c : artifacts.cores) kmax = std::max(kmax, c);
  std::vector<Rgb> colors(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v)
    colors[v] =
        ContinuousColor(static_cast<double>(artifacts.cores[v]) / kmax);
  const std::string lanetvi_svg = prefix + "_lanetvi.svg";
  bench::WriteChecked(lanetvi_svg, [&] {
    return WriteNodeLinkSvg(graph, artifacts.lanetvi.positions, colors,
                            lanetvi_svg, 600, 1.5);
  });
  const std::string openord_svg = prefix + "_openord.svg";
  bench::WriteChecked(openord_svg, [&] {
    return WriteNodeLinkSvg(graph, artifacts.openord, colors, openord_svg, 600,
                            1.5);
  });
}

void RunCoreTask(StudyTask task, const char* table_name,
                 EvidenceTable* evidence_table) {
  std::printf("\n%s\n", table_name);
  std::printf("%-8s | %-8s %-8s | %-8s %-8s | %-8s %-8s\n", "Dataset",
              "Terr.acc", "Terr.t", "LaNet.acc", "LaNet.t", "Open.acc",
              "Open.t");
  const DatasetId sets[] = {DatasetId::kGrQc, DatasetId::kPPI,
                            DatasetId::kDBLP};
  const std::string out = bench::OutputDir();
  for (DatasetId id : sets) {
    const Dataset ds = MakeDataset(id);
    const ToolArtifacts artifacts = BuildArtifacts(ds.graph);
    if (task == StudyTask::kDensestCore)
      EmitFig12Panels(ds.spec.name, ds.graph, artifacts, out);

    const TaskOutcome terrain =
        SimulateTask(StudyTool::kTerrain,
                     TerrainCoreEvidence(ds.graph, artifacts.tree, task));
    const TaskOutcome lanetvi = SimulateTask(
        StudyTool::kLaNetVi,
        LanetViCoreEvidence(ds.graph, artifacts.lanetvi, task));
    const TaskOutcome openord = SimulateTask(
        StudyTool::kOpenOrd,
        OpenOrdCoreEvidence(ds.graph, artifacts.openord, artifacts.cores,
                            task));
    const std::string row =
        std::string(TaskName(task)) + "/" + ds.spec.name;
    evidence_table->Add(row, terrain);
    evidence_table->Add(row, lanetvi);
    evidence_table->Add(row, openord);
    std::printf("%-8s | %8.1f %8.1f | %8.1f %8.1f | %8.1f %8.1f\n",
                ds.spec.name, terrain.accuracy, terrain.mean_seconds,
                lanetvi.accuracy, lanetvi.mean_seconds, openord.accuracy,
                openord.mean_seconds);
  }
}

}  // namespace

int main() {
  using namespace graphscape;
  bench::Banner("Tables IV-VI — simulated user study",
                "paper §IV Tables IV/V/VI + Fig. 12/13 artifacts");
  std::printf("(simulated participants; evidence measured from real "
              "artifacts — see DESIGN.md substitution 4)\n");

  EvidenceTable evidence_table;
  RunCoreTask(StudyTask::kDensestCore,
              "Table IV — Task 1: identify the densest K-Core "
              "(accuracy, avg seconds)",
              &evidence_table);
  RunCoreTask(StudyTask::kSecondDensestCore,
              "Table V — Task 2: densest K-Core disconnected from the first",
              &evidence_table);

  // Table VI — Task 3 on Astro: terrain vs OpenOrd.
  std::printf("\nTable VI — Task 3: degree/betweenness correlation (Astro)\n");
  DatasetOptions astro_options;
  astro_options.scale_divisor = 2;
  const Dataset astro = MakeDataset(DatasetId::kAstro, astro_options);
  const VertexScalarField degree("degree", DegreeCentrality(astro.graph));
  BetweennessOptions bo;
  bo.num_samples = 128;
  const VertexScalarField betweenness(
      "betweenness", BetweennessCentrality(astro.graph, bo));
  const double gci = Gci(astro.graph, degree, betweenness);

  OpenOrdOptions oo;
  oo.coarse_iterations = 60;
  oo.refine_iterations = 15;
  const Positions openord_positions = OpenOrdLayout(astro.graph, oo);

  const TaskOutcome terrain =
      SimulateTask(StudyTool::kTerrain, TerrainCorrelationEvidence(gci));
  const TaskOutcome openord = SimulateTask(
      StudyTool::kOpenOrd,
      OpenOrdCorrelationEvidence(gci, openord_positions));
  evidence_table.Add("correlation-estimate/Astro", terrain);
  evidence_table.Add("correlation-estimate/Astro", openord);
  std::printf("%-8s | %-8s %-8s | %-8s %-8s   (GCI=%.2f)\n", "Dataset",
              "Terr.acc", "Terr.t", "Open.acc", "Open.t", gci);
  std::printf("%-8s | %8.1f %8.1f | %8.1f %8.1f\n", "Astro",
              terrain.accuracy, terrain.mean_seconds, openord.accuracy,
              openord.mean_seconds);

  // Fig. 13 artifacts.
  const std::string out = bench::OutputDir();
  const VertexScalarField betw_field("betweenness", betweenness.values());
  const SuperTree tree(BuildVertexScalarTree(astro.graph, betw_field));
  const HeightField field = RasterizeTerrain(BuildTerrainLayout(tree));
  const Image astro_terrain = RenderOblique(
      field, SuperNodeColors(tree, degree.values()), Camera{}, 700, 520);
  const std::string terrain_path = out + "/fig13a_astro_terrain.ppm";
  bench::WriteChecked(terrain_path,
                      [&] { return WritePpm(astro_terrain, terrain_path); });
  std::vector<Rgb> colors(astro.graph.NumVertices());
  for (VertexId v = 0; v < astro.graph.NumVertices(); ++v)
    colors[v] = FourBandColor(betweenness[v] / betweenness.MaxValue());
  const std::string openord_svg = out + "/fig13b_astro_openord.svg";
  bench::WriteChecked(openord_svg, [&] {
    return WriteNodeLinkSvg(astro.graph, openord_positions, colors, openord_svg,
                            600, 1.5);
  });

  std::printf("\nshape check: terrain == 1.0 accuracy and lowest time on "
              "Tasks 1-2; Task 2 punishes the 2D tools hardest (edge "
              "tracing); Task 3 favors terrain on both metrics.\n");
  // The line CI's bench-smoke greps: terrain must be weakly best on
  // accuracy AND time in every row of Tables IV-VI.
  std::printf("accuracy ordering (terrain >= 2D tools on every row): %s\n",
              evidence_table.Dominates(StudyTool::kTerrain) ? "HOLDS"
                                                            : "VIOLATED");
  return bench::ExitCode();
}

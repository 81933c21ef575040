// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// CI's cross-compiler artifact check for scalar/tree_io.h. Two modes:
//
//   tree_io_check write <dir>   build KC (vertex) and KT (edge) super
//                               trees for two registry datasets and
//                               save them as .gsta artifacts (their
//                               fields are derived from the trees), plus
//                               one KT tree whose field is perturbed, so
//                               it is stored as an explicit column;
//   tree_io_check verify <dir>  load every artifact written above,
//                               re-serialize, and fail unless the bytes
//                               are identical to the file on disk.
//
// The CI workflow runs `write` on the gcc leg and `verify` on the clang
// leg against the downloaded artifacts, pinning the format (and the tree
// construction itself) across compilers. Exit code 0 on success.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "gen/datasets.h"
#include "metrics/kcore.h"
#include "metrics/ktruss.h"
#include "scalar/edge_scalar_tree.h"
#include "scalar/scalar_tree.h"
#include "scalar/tree_io.h"

namespace {

using namespace graphscape;

struct NamedArtifact {
  std::string filename;
  TreeArtifact artifact;
};

// The artifact set both modes agree on: deterministic datasets, one
// vertex tree and one edge tree each, and one edge tree paired with a
// field it was not built from (the explicit-column encoding).
std::vector<NamedArtifact> BuildArtifacts() {
  std::vector<NamedArtifact> artifacts;
  for (const DatasetId id : {DatasetId::kGrQc, DatasetId::kWikiVote}) {
    const Dataset ds = MakeDataset(id);
    {
      NamedArtifact named;
      named.filename = std::string(ds.spec.name) + "_kc.gsta";
      const VertexScalarField kc =
          VertexScalarField::FromCounts("KC", CoreNumbers(ds.graph));
      named.artifact.tree = SuperTree(BuildVertexScalarTree(ds.graph, kc));
      named.artifact.field_name = kc.Name();
      named.artifact.field_values = kc.Values();
      artifacts.push_back(std::move(named));
    }
    {
      NamedArtifact named;
      named.filename = std::string(ds.spec.name) + "_kt.gsta";
      const EdgeScalarField kt =
          EdgeScalarField::FromCounts("KT", TrussNumbers(ds.graph));
      named.artifact.tree = SuperTree(BuildEdgeScalarTree(ds.graph, kt));
      named.artifact.field_name = kt.Name();
      named.artifact.field_values = kt.Values();
      artifacts.push_back(std::move(named));
    }
  }
  NamedArtifact perturbed = artifacts[1];
  perturbed.filename = "GrQc_kt_explicit.gsta";
  std::vector<double>& values = perturbed.artifact.field_values;
  for (size_t e = 0; e < values.size(); e += 2) values[e] += 0.5;
  artifacts.push_back(std::move(perturbed));
  return artifacts;
}

int Write(const std::string& dir) {
  for (const NamedArtifact& named : BuildArtifacts()) {
    const std::string path = dir + "/" + named.filename;
    const Status status = SaveTreeArtifact(named.artifact, path);
    if (!status.ok()) {
      std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%u super nodes, %u elements)\n", path.c_str(),
                named.artifact.tree.NumNodes(),
                named.artifact.tree.NumElements());
  }
  return 0;
}

int Verify(const std::string& dir) {
  int failures = 0;
  for (const NamedArtifact& named : BuildArtifacts()) {
    const std::string path = dir + "/" + named.filename;
    const StatusOr<std::string> read = ReadFileBytes(path);
    if (!read.ok()) {
      std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(),
                   read.status().ToString().c_str());
      ++failures;
      continue;
    }
    const std::string& on_disk = read.value();
    const auto loaded = DeserializeTreeArtifact(on_disk);
    if (!loaded.ok()) {
      std::fprintf(stderr, "FAIL %s: %s\n", path.c_str(),
                   loaded.status().ToString().c_str());
      ++failures;
      continue;
    }
    const StatusOr<std::string> reserialized =
        SerializeTreeArtifact(loaded.value());
    if (!reserialized.ok() || reserialized.value() != on_disk) {
      std::fprintf(stderr, "FAIL %s: re-serialization differs\n",
                   path.c_str());
      ++failures;
      continue;
    }
    // The strongest cross-compiler pin: this leg's own build of the same
    // dataset must serialize to the other leg's bytes exactly.
    const StatusOr<std::string> rebuilt =
        SerializeTreeArtifact(named.artifact);
    if (!rebuilt.ok() || rebuilt.value() != on_disk) {
      std::fprintf(stderr,
                   "FAIL %s: locally rebuilt tree serializes differently\n",
                   path.c_str());
      ++failures;
      continue;
    }
    std::printf("OK %s (%u super nodes, %u elements)\n", path.c_str(),
                loaded.value().tree.NumNodes(),
                loaded.value().tree.NumElements());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3 || (std::strcmp(argv[1], "write") != 0 &&
                    std::strcmp(argv[1], "verify") != 0)) {
    std::fprintf(stderr, "usage: %s write|verify <dir>\n", argv[0]);
    return 2;
  }
  return std::strcmp(argv[1], "write") == 0 ? Write(argv[2])
                                            : Verify(argv[2]);
}

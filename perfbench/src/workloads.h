// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// The three benchmark workloads. Each runs in its own process, generates
// its inputs from the seeds in RunConfig, measures for `seconds`, checks
// its outputs, and fills a RunOutput:
//
//   build-ktruss  CitPatent stand-in at 1/4 scale, the fig7 K-Truss flow:
//                 TrussNumbersParallel -> BuildEdgeScalarTreeParallel ->
//                 SuperTree -> ArtifactCache::Put -> simplify -> terrain.
//   build-vertex  the same graph with K-Core and PageRank vertex fields,
//                 each BuildVertexScalarTreeParallel -> SuperTree -> Put ->
//                 simplify -> terrain.
//   serve-mixed   a KC/PR/KT corpus of the 1/16-scale stand-in served by an
//                 in-process ServiceServer, driven closed-loop by
//                 BlockingClients over a seeded mix of all seven verbs.
//
// Untraced (trace = false) a run measures the end-to-end metrics. Traced,
// it measures them twice, untraced then traced, each for half the time;
// reports the difference as the tracing overhead; and adds the per-layer
// metrics, taken from spans around the calls into each module and from
// direct calls made after the timed phases.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Compute lanes of the build pipeline, ServiceServer workers and
/// closed-loop client connections: at most four of each, the size of the
/// machine the benchmark was tuned on.
inline constexpr uint32_t kThreads = 4;
inline constexpr uint32_t kServeWorkers = 2;
inline constexpr uint32_t kServeClients = 2;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;          ///< DatasetOptions.seed of the generated graph
  uint64_t request_seed = 1;  ///< seed of the serve-mixed request streams
  double seconds = 20.0;      ///< measured time per run
  bool trace = false;
  std::string work_dir;       ///< working directory, removed at the end
};

struct RunOutput {
  Tally tally;
  MetricSet end_to_end;
  MetricSet layers;
  std::vector<std::pair<std::string, std::string>> context;

  void Note(const std::string& key, const std::string& value) {
    context.emplace_back(key, value);
  }
};

void RunBuildKtruss(const RunConfig& config, Tracer* tracer, RunOutput* out);
void RunBuildVertex(const RunConfig& config, Tracer* tracer, RunOutput* out);
void RunServeMixed(const RunConfig& config, Tracer* tracer, RunOutput* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

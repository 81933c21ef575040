// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// build-ktruss and build-vertex: the graph -> persisted artifacts ->
// terrain bytes flow, timed per build at kThreads lanes.
//
// A run: generate the dataset, make one untimed warm-up build, then build
// repeatedly until the summed build time reaches the measured time, each
// build into a fresh ArtifactCache directory, and generate the dataset
// again, in place, after every timed build. setup_s is the median of all
// generations, so it samples the whole run rather than its first seconds.
// After each build, outside the timed region, a fresh Open + Get reads
// every artifact back (the "first reply" of a build, kFreshOpens times)
// and the first read's bytes are hashed.
// After the timed phases peak RSS is sampled, then a one-thread build of
// the same input is made; every build's artifacts and PPM bytes must
// equal it byte for byte (the determinism contract), and Get must return
// exactly the artifact Put stored.
//
// End-to-end metrics of a build workload: setup_s, build_s (median
// build), artifact_mib (bytes persisted per build), peak_rss_mib,
// first_reply_ms (per artifact the median Get after a fresh Open, then
// the median over artifacts), and, treating one
// build as one request, qps (builds per second), p50_ms and p99_ms
// (build latency; with fewer than 100 builds p99_ms is the slowest one).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "gen/datasets.h"
#include "metrics/triangles.h"
#include "pipeline.h"
#include "scalar/artifact_cache.h"
#include "scalar/tree_io.h"
#include "workloads.h"

namespace perfbench {

using graphscape::ArtifactCache;
using graphscape::ArtifactKey;
using graphscape::Dataset;
using graphscape::DatasetId;
using graphscape::StatusOr;
using graphscape::StrPrintf;
using graphscape::TreeArtifact;
using graphscape::WallTimer;

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kBuildScaleDivisor = 4;
constexpr const char* kDatasetKey = "citpatent-4";
/// Fewest timed builds per phase, whatever the measured time.
constexpr size_t kMinBuilds = 2;
/// Fresh Open + first Get rounds after each build (first_reply_ms).
constexpr uint32_t kFreshOpens = 3;

/// What one build leaves behind for the checks, by field key.
struct BuildRecord {
  double build_s = 0.0;
  uint64_t persisted_bytes = 0;
  std::map<std::string, uint64_t> artifact_hash;  // FNV-1a of the bytes
  std::map<std::string, uint64_t> artifact_bytes;
  std::map<std::string, uint64_t> ppm_hash;
  std::map<std::string, uint32_t> super_nodes;
  std::map<std::string, uint32_t> simplified_nodes;  // 0: not simplified
  std::map<std::string, std::vector<double>> first_get_ms;  // by field key
};

struct BuildPhase {
  std::vector<BuildRecord> builds;
  std::vector<double> setup_s;  ///< wall time of the generation after each
  double peak_rss_mib = 0.0;
};

/// Reads every artifact of `kinds` back from `dir`: kFreshOpens rounds of
/// a fresh Open and one Get per artifact, timed. The first round's
/// artifacts are re-serialized and hashed, and compared with `stored`
/// (when not null) field by field.
bool ReadBack(const std::vector<FieldKind>& kinds, const std::string& dir,
              const std::vector<TreeArtifact>* stored, RunOutput* out,
              BuildRecord* record) {
  bool ok = true;
  for (uint32_t round = 0; round < kFreshOpens; ++round) {
    StatusOr<ArtifactCache> cache = ArtifactCache::Open(dir);
    if (!out->tally.RecordStatus(cache.status(), "reopen cache " + dir)) {
      return false;
    }
    for (const FieldKind kind : kinds) {
      const std::string key = FieldKey(kind);
      WallTimer timer;
      StatusOr<TreeArtifact> got =
          cache.value().Get(ArtifactKey{kDatasetKey, key});
      const double ms = 1e3 * timer.Seconds();
      if (!out->tally.RecordStatus(got.status(), "get " + key)) {
        ok = false;
        continue;
      }
      record->first_get_ms[key].push_back(ms);
      if (round > 0) continue;
      StatusOr<std::string> bytes =
          graphscape::SerializeTreeArtifact(got.value());
      if (!out->tally.RecordStatus(bytes.status(), "serialize " + key)) {
        ok = false;
        continue;
      }
      record->artifact_hash[key] = graphscape::Fnv1aChecksum(bytes.value());
      record->artifact_bytes[key] = bytes.value().size();
      if (stored == nullptr) continue;
      for (const TreeArtifact& put : *stored) {
        if (put.field_name != key) continue;
        out->tally.Record(ArtifactsEqual(put, got.value()),
                          "Get " + key + " returns what Put stored");
      }
    }
  }
  return ok;
}

/// One build: every field of `kinds` through field -> tree -> super tree
/// -> Put -> simplify -> terrain, into a fresh cache at `dir`, then the
/// read-back off the clock. `keep` (may be null) receives the artifacts
/// as Put stored them.
bool BuildOnce(const PipelineContext& ctx, const std::vector<FieldKind>& kinds,
               const std::string& dir, const char* root_span, uint64_t id,
               RunOutput* out, BuildRecord* record,
               std::vector<TreeArtifact>* keep) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  StatusOr<ArtifactCache> opened = ArtifactCache::Open(dir);
  if (!out->tally.RecordStatus(opened.status(), "open cache " + dir)) {
    return false;
  }
  ArtifactCache cache = std::move(opened).value();

  std::map<std::string, std::string> ppms;
  bool ok = true;
  WallTimer timer;
  {
    Tracer::Span root(ctx.tracer, root_span, id, true);
    for (const FieldKind kind : kinds) {
      const std::string key = FieldKey(kind);
      FieldTree field = BuildFieldTree(ctx, kind);
      record->super_nodes[key] = field.artifact.tree.NumNodes();
      ok = out->tally.RecordStatus(
               PutArtifact(ctx, &cache, kDatasetKey, field), "put " + key) &&
           ok;
      TerrainResult terrain = RenderTerrain(ctx, field);
      record->simplified_nodes[key] =
          terrain.simplified ? terrain.rendered_nodes : 0;
      ppms[key] = std::move(terrain.ppm);
      if (keep != nullptr) keep->push_back(std::move(field.artifact));
    }
  }
  record->build_s = timer.Seconds();

  record->persisted_bytes = DirectoryBytes(dir);
  for (const auto& [key, ppm] : ppms) {
    record->ppm_hash[key] = graphscape::Fnv1aChecksum(ppm);
  }
  ok = ReadBack(kinds, dir, keep, out, record) && ok;
  fs::remove_all(dir, ec);
  return ok;
}

/// Timed builds until their summed build time reaches `seconds`, each
/// followed by `generate`, which replaces the dataset in place and returns
/// its wall time.
BuildPhase RunBuildPhase(const PipelineContext& ctx,
                         const std::vector<FieldKind>& kinds, double seconds,
                         const std::string& work_dir,
                         const std::function<double()>& generate,
                         uint64_t* next_id, RunOutput* out) {
  BuildPhase phase;
  double measured = 0.0;
  while (measured < seconds || phase.builds.size() < kMinBuilds) {
    BuildRecord record;
    const uint64_t id = (*next_id)++;
    const std::string dir = StrPrintf("%s/build-%llu", work_dir.c_str(),
                                      static_cast<unsigned long long>(id));
    // A failed build makes the run incorrect; stop early.
    if (!BuildOnce(ctx, kinds, dir, "build", id, out, &record, nullptr)) break;
    measured += record.build_s;
    std::fprintf(stderr, "perfbench: build %llu: %.3f s, first Get %.1f ms\n",
                 static_cast<unsigned long long>(id), record.build_s,
                 MedianOfGroupMedians(record.first_get_ms));
    phase.builds.push_back(std::move(record));
    phase.setup_s.push_back(generate());
  }
  phase.peak_rss_mib = PeakRssMib();
  return phase;
}

void EmitEndToEnd(double setup_s, const BuildPhase& phase, MetricSet* m) {
  std::vector<double> build_s, build_ms, bytes;
  std::map<std::string, std::vector<double>> get_ms;
  double total_s = 0.0;
  for (const BuildRecord& build : phase.builds) {
    build_s.push_back(build.build_s);
    build_ms.push_back(1e3 * build.build_s);
    bytes.push_back(static_cast<double>(build.persisted_bytes));
    for (const auto& [key, ms] : build.first_get_ms) {
      get_ms[key].insert(get_ms[key].end(), ms.begin(), ms.end());
    }
    total_s += build.build_s;
  }
  const LatencySummary latency = Summarize(build_ms);
  m->Set("setup_s", setup_s, "s");
  m->Set("build_s", Median(build_s), "s");
  m->Set("artifact_mib", Median(bytes) / (1024.0 * 1024.0), "MiB");
  m->Set("peak_rss_mib", phase.peak_rss_mib, "MiB");
  m->Set("qps", total_s > 0.0 ? build_s.size() / total_s : 0.0, "req/s");
  m->Set("p50_ms", latency.p50, "ms");
  m->Set("p99_ms", latency.p99, "ms");
  m->Set("first_reply_ms", MedianOfGroupMedians(get_ms), "ms");
}

/// Per-layer medians over the "build" roots of the traced phase; a stage
/// that never ran (no tree needed simplifying) reads 0.
void EmitStageLayers(const std::vector<SpanRecord>& spans,
                     const std::vector<FieldKind>& kinds, MetricSet* layers) {
  const auto wall = Tracer::ChildSeconds(spans, "build", false);
  const auto cpu = Tracer::ChildSeconds(spans, "build", true);
  const auto t1 = Tracer::ChildSeconds(spans, "build_t1", false);
  auto median_of = [](const std::map<std::string, std::vector<double>>& by,
                      const std::string& name) {
    const auto it = by.find(name);
    return it == by.end() ? 0.0 : Median(it->second);
  };
  std::vector<std::string> stages = {"scalar.super_tree", "scalar.cache_put",
                                     "scalar.simplify",   "terrain.layout",
                                     "terrain.raster",    "terrain.render"};
  for (const FieldKind kind : kinds) {
    std::vector<std::string> parallel_stages;
    if (kind == FieldKind::kTruss) {
      parallel_stages = {"metrics.ktruss", "scalar.edge_tree"};
    } else if (kind == FieldKind::kCore) {
      parallel_stages = {"scalar.vertex_tree_kc"};
      stages.push_back("metrics.kcore");  // CoreNumbers is sequential
    } else {
      parallel_stages = {"metrics.pagerank", "scalar.vertex_tree_pr"};
    }
    for (const std::string& name : parallel_stages) {
      layers->Set(name + "_cpu_s", median_of(cpu, name), "s");
      layers->Set(name + "_t1_s", median_of(t1, name), "s");
      stages.push_back(name);
    }
  }
  for (const std::string& name : stages) {
    layers->Set(name + "_s", median_of(wall, name), "s");
  }
  const std::vector<double> self = Tracer::SelfSeconds(spans);
  std::vector<double> root_self, gen_s;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "build") root_self.push_back(self[i]);
    if (spans[i].name == "gen.dataset") gen_s.push_back(spans[i].Seconds());
  }
  layers->Set("build.self_s", Median(root_self), "s");
  layers->Set("gen.dataset_s", Median(gen_s), "s");
}

/// Fixed cost of one common/parallel region on `threads` lanes: the
/// median wall time of a ParallelForBlocks with one block per lane, each
/// block busy for kBlockUs, minus kBlockUs. It is what every parallel
/// stage pays to wake the pool and wait for its slowest lane.
double ParallelRegionOverheadUs(uint32_t threads) {
  constexpr double kBlockUs = 50.0;
  std::vector<double> us;
  for (int rep = 0; rep < 201; ++rep) {
    WallTimer timer;
    graphscape::ParallelForBlocks(threads, {threads, 1},
                                  [](uint64_t, uint32_t) {
                                    WallTimer busy;
                                    while (busy.Seconds() < 1e-6 * kBlockUs) {
                                    }
                                  });
    us.push_back(1e6 * timer.Seconds() - kBlockUs);
  }
  return Median(us);
}

void RunBuild(const RunConfig& config, const std::vector<FieldKind>& kinds,
              Tracer* tracer, RunOutput* out) {
  // Setup: the dataset. Every generation replaces it in the same storage,
  // so the graph's address, which the pipeline holds, stays valid, and
  // the 1-thread reference build at the end also checks that generation
  // repeats the graph exactly. A generation is traced when its phase is.
  std::optional<Dataset> dataset;
  uint64_t generations = 0;
  const auto generate = [&]() {
    dataset.reset();
    graphscape::DatasetOptions options;
    options.scale_divisor = kBuildScaleDivisor;
    options.seed = config.seed;
    WallTimer timer;
    {
      Tracer::Span span(tracer, "gen.dataset", generations);
      dataset.emplace(graphscape::MakeDataset(DatasetId::kCitPatent, options));
    }
    const double seconds = timer.Seconds();
    std::fprintf(stderr, "perfbench: setup %llu: %.3f s\n",
                 static_cast<unsigned long long>(generations++), seconds);
    return seconds;
  };
  tracer->Arm(false);
  std::vector<double> setup_untraced = {generate()};
  const graphscape::Graph& g = dataset->graph;
  RssByStage rss;
  rss.Note("gen");
  out->Note("dataset",
            StrPrintf("%s 1/%u scale, seed %llu: %u vertices, %llu edges",
                      dataset->spec.name, dataset->scale_divisor,
                      static_cast<unsigned long long>(config.seed),
                      g.NumVertices(),
                      static_cast<unsigned long long>(g.NumEdges())));

  PipelineContext ctx;
  ctx.graph = &g;
  ctx.threads = kThreads;
  ctx.tracer = tracer;
  uint64_t next_id = 0;

  // One untimed build first: it pays the process's one-time page faults
  // and allocator growth, which would otherwise land on the first timed
  // build only. Its outputs are checked like every other build's.
  BuildRecord warmup;
  BuildOnce(ctx, kinds, config.work_dir + "/warmup", "warmup", 0, out,
            &warmup, nullptr);
  const double untraced_seconds =
      config.trace ? config.seconds / 2 : config.seconds;
  const BuildPhase untraced =
      RunBuildPhase(ctx, kinds, untraced_seconds, config.work_dir, generate,
                    &next_id, out);
  setup_untraced.insert(setup_untraced.end(), untraced.setup_s.begin(),
                        untraced.setup_s.end());
  BuildPhase traced;
  if (config.trace) {
    tracer->Arm(true);
    PipelineContext traced_ctx = ctx;
    traced_ctx.rss = &rss;
    traced = RunBuildPhase(traced_ctx, kinds, config.seconds / 2,
                           config.work_dir, generate, &next_id, out);
  }

  // The determinism reference: the same flow at one thread, after peak
  // RSS was sampled so its footprint is not charged to the workload.
  PipelineContext t1_ctx = ctx;
  t1_ctx.threads = 1;
  BuildRecord reference;
  std::vector<TreeArtifact> reference_artifacts;
  const bool reference_ok =
      BuildOnce(t1_ctx, kinds, config.work_dir + "/reference", "build_t1", 0,
                out, &reference, &reference_artifacts);
  tracer->Arm(false);
  if (!reference_ok) return;  // already counted as failed

  // A build that failed earlier has no hashes and fails here too.
  auto same = [](const std::map<std::string, uint64_t>& got,
                 const std::map<std::string, uint64_t>& want,
                 const std::string& key) {
    const auto g = got.find(key), w = want.find(key);
    return g != got.end() && w != want.end() && g->second == w->second;
  };
  std::vector<const BuildRecord*> all = {&warmup};
  for (const BuildRecord& build : untraced.builds) all.push_back(&build);
  for (const BuildRecord& build : traced.builds) all.push_back(&build);
  for (size_t i = 0; i < all.size(); ++i) {
    for (const FieldKind kind : kinds) {
      const std::string key = FieldKey(kind);
      out->tally.Record(
          same(all[i]->artifact_hash, reference.artifact_hash, key),
          StrPrintf("build %zu: %s artifact differs from the 1-thread build",
                    i, key.c_str()));
      out->tally.Record(
          same(all[i]->ppm_hash, reference.ppm_hash, key),
          StrPrintf("build %zu: %s terrain PPM differs from the 1-thread "
                    "build", i, key.c_str()));
    }
  }

  const double setup_s = Median(setup_untraced);
  out->Note("setup_reps",
            StrPrintf("%zu untraced generations: 1 before the builds, "
                      "1 after each timed build",
                      setup_untraced.size()));
  if (!config.trace) {
    EmitEndToEnd(setup_s, untraced, &out->end_to_end);
    out->Note("latency_samples",
              StrPrintf("%zu timed builds after 1 untimed warm-up; p99_ms is "
                        "the slowest build when there are fewer than 100",
                        untraced.builds.size()));
    return;
  }
  if (traced.builds.empty()) return;  // already counted as failed

  // Traced run: overhead, stage spans, and the direct per-layer calls.
  MetricSet untraced_e2e, traced_e2e;
  EmitEndToEnd(setup_s, untraced, &untraced_e2e);
  EmitEndToEnd(Median(traced.setup_s), traced, &traced_e2e);
  out->end_to_end = untraced_e2e;
  AddTraceOverhead(untraced_e2e, traced_e2e, &out->layers);
  out->Note("latency_samples",
            StrPrintf("%zu untraced, %zu traced builds",
                      untraced.builds.size(), traced.builds.size()));

  MetricSet& layers = out->layers;
  EmitStageLayers(tracer->Spans(), kinds, &layers);
  for (const auto& [stage, mib] : rss.max_mib) {
    layers.Set("rss.after_" + stage + "_mib", mib, "MiB");
  }
  layers.Set("gen.vertices", g.NumVertices(), "count");
  layers.Set("gen.edges", static_cast<double>(g.NumEdges()), "count");
  layers.Set("parallel.region_overhead_us",
             ParallelRegionOverheadUs(kThreads), "us");
  if (std::find(kinds.begin(), kinds.end(), FieldKind::kTruss) !=
      kinds.end()) {
    layers.Set("graph.triangles",
               static_cast<double>(graphscape::CountTriangles(g)), "count");
  }

  double serialize_s = 0.0;
  for (const TreeArtifact& artifact : reference_artifacts) {
    std::vector<double> reps;
    for (int rep = 0; rep < 3; ++rep) {
      WallTimer timer;
      const StatusOr<std::string> bytes =
          graphscape::SerializeTreeArtifact(artifact);
      reps.push_back(timer.Seconds());
      out->tally.RecordStatus(bytes.status(), "standalone serialize");
    }
    serialize_s += Median(reps);
  }
  layers.Set("scalar.serialize_s", serialize_s, "s");
  const BuildRecord& last = traced.builds.back();
  for (size_t i = 0; i < kinds.size(); ++i) {
    const std::string key = FieldKey(kinds[i]);
    const std::string m = FieldMetricKey(kinds[i]);
    layers.Set("field.distinct." + m,
               DistinctValues(reference_artifacts[i].field_values), "count");
    layers.Set("scalar.super_tree_nodes." + m, last.super_nodes.at(key),
               "count");
    layers.Set("scalar.simplified_nodes." + m, last.simplified_nodes.at(key),
               "count");
    layers.Set("scalar.artifact_bytes." + m,
               static_cast<double>(last.artifact_bytes.at(key)), "B");
  }
}

}  // namespace

void RunBuildKtruss(const RunConfig& config, Tracer* tracer, RunOutput* out) {
  RunBuild(config, {FieldKind::kTruss}, tracer, out);
}

void RunBuildVertex(const RunConfig& config, Tracer* tracer, RunOutput* out) {
  RunBuild(config, {FieldKind::kCore, FieldKind::kPageRank}, tracer, out);
}

}  // namespace perfbench

// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "service/service.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "scalar/correlation.h"
#include "scalar/tree_queries.h"
#include "terrain/guarded_render.h"
#include "terrain/render.h"

namespace graphscape {
namespace service {
namespace {

// Shared by PEAKS and TOPPEAKS: "peaks <count>" then one
// "<super_node> <member_count> <max_scalar>" row per peak, %.17g so the
// summit values round-trip exactly (docs/SERVICE.md §Payloads).
std::string FormatPeaks(const std::vector<Peak>& peaks) {
  std::string out =
      StrPrintf("peaks %u", static_cast<unsigned>(peaks.size()));
  for (const Peak& peak : peaks) {
    out += StrPrintf("\n%u %u %.17g", peak.super_node, peak.member_count,
                     peak.max_scalar);
  }
  out += '\n';
  return out;
}

// k=10 matches the paper-table convention (REPRODUCTION.md): enough
// peaks to cover the dominant structures, few enough to stay local.
constexpr uint32_t kCorrelationTopPeaks = 10;

}  // namespace

StatusOr<std::unique_ptr<QueryService>> QueryService::Open(
    const std::string& cache_root, const Options& options) {
  StatusOr<ArtifactCache> cache = ArtifactCache::Open(cache_root);
  if (!cache.ok()) return cache.status();
  return std::unique_ptr<QueryService>(
      new QueryService(std::move(cache).value(), options));
}

std::string QueryService::HandleLine(const std::string& line) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests;
  }
  Status status = Status::Ok();
  StatusOr<Request> parsed = ParseRequestLine(line);
  if (parsed.ok()) {
    StatusOr<std::string> payload = Dispatch(parsed.value());
    if (payload.ok()) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.ok;
      return EncodeResponseFrame(kWireOk, payload.value());
    }
    status = payload.status();
  } else {
    status = parsed.status();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.errors;
  }
  return EncodeErrorFrame(status);
}

StatusOr<std::string> QueryService::Dispatch(const Request& request) {
  switch (request.verb) {
    case Verb::kTree:
      return HandleTree(request);
    case Verb::kPeaks:
      return HandlePeaks(request);
    case Verb::kTopPeaks:
      return HandleTopPeaks(request);
    case Verb::kMembers:
      return HandleMembers(request);
    case Verb::kCorrelation:
      return HandleCorrelation(request);
    case Verb::kTile:
      return HandleTile(request);
    case Verb::kStats:
      return HandleStats();
  }
  return Status::InvalidArgument("unreachable: unknown verb after parse");
}

StatusOr<std::shared_ptr<const QueryService::LoadedArtifact>>
QueryService::GetArtifact(const std::string& dataset,
                          const std::string& field) {
  std::lock_guard<std::mutex> lock(load_mu_);
  const std::string canonical = dataset + "/" + field;
  auto it = loaded_.find(canonical);
  if (it != loaded_.end()) return it->second;

  StatusOr<TreeArtifact> got = cache_.Get(ArtifactKey{dataset, field});
  if (!got.ok()) return got.status();
  auto loaded = std::make_shared<LoadedArtifact>();
  loaded->artifact = std::move(got).value();
  StatusOr<std::string> bytes = SerializeTreeArtifact(loaded->artifact);
  if (!bytes.ok()) return bytes.status();
  loaded->serialized = std::move(bytes).value();
  // Prime the lazy member index while we hold load_mu_: its first build
  // is not thread-safe, and after this the artifact is immutable and
  // safe to share across every worker thread (scalar/super_tree.h).
  loaded->artifact.tree.MemberIndex();

  loaded_[canonical] = loaded;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.artifacts_loaded;
  }
  return std::shared_ptr<const LoadedArtifact>(loaded);
}

StatusOr<std::string> QueryService::HandleTree(const Request& request) {
  StatusOr<std::shared_ptr<const LoadedArtifact>> loaded =
      GetArtifact(request.dataset, request.field);
  if (!loaded.ok()) return loaded.status();
  return loaded.value()->serialized;
}

StatusOr<std::string> QueryService::HandlePeaks(const Request& request) {
  StatusOr<std::shared_ptr<const LoadedArtifact>> loaded =
      GetArtifact(request.dataset, request.field);
  if (!loaded.ok()) return loaded.status();
  return FormatPeaks(
      PeaksAtLevel(loaded.value()->artifact.tree, request.level));
}

StatusOr<std::string> QueryService::HandleTopPeaks(const Request& request) {
  StatusOr<std::shared_ptr<const LoadedArtifact>> loaded =
      GetArtifact(request.dataset, request.field);
  if (!loaded.ok()) return loaded.status();
  return FormatPeaks(TopPeaks(loaded.value()->artifact.tree, request.k));
}

StatusOr<std::string> QueryService::HandleMembers(const Request& request) {
  StatusOr<std::shared_ptr<const LoadedArtifact>> loaded =
      GetArtifact(request.dataset, request.field);
  if (!loaded.ok()) return loaded.status();
  const SuperTree& tree = loaded.value()->artifact.tree;
  if (request.node >= tree.NumNodes()) {
    return Status::InvalidArgument(
        StrPrintf("MEMBERS node %u out of range: tree has %u super nodes",
                  request.node, tree.NumNodes()));
  }
  const MemberRange members = tree.Members(request.node);
  std::string out = StrPrintf("members %u", members.size());
  for (uint32_t element : members) out += StrPrintf("\n%u", element);
  out += '\n';
  return out;
}

const QueryService::CorrelationInputs& QueryService::CorrelationInputsOf(
    const LoadedArtifact& loaded) {
  std::call_once(loaded.correlation_once, [&] {
    CorrelationInputs& inputs = loaded.correlation;
    inputs.ranks = AverageRanks(loaded.artifact.field_values);
    inputs.top10 = TopPeakMask(loaded.artifact.tree, kCorrelationTopPeaks);
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.correlation_bytes += inputs.ranks.size() * sizeof(double) +
                                inputs.top10.size() * sizeof(uint64_t);
  });
  return loaded.correlation;
}

StatusOr<std::string> QueryService::HandleCorrelation(
    const Request& request) {
  StatusOr<std::shared_ptr<const LoadedArtifact>> a =
      GetArtifact(request.dataset, request.field);
  if (!a.ok()) return a.status();
  StatusOr<std::shared_ptr<const LoadedArtifact>> b =
      GetArtifact(request.dataset, request.field_b);
  if (!b.ok()) return b.status();
  const TreeArtifact& fa = a.value()->artifact;
  const TreeArtifact& fb = b.value()->artifact;
  if (fa.field_values.size() != fb.field_values.size()) {
    return Status::InvalidArgument(StrPrintf(
        "CORRELATION fields span different element spaces (%u vs %u "
        "elements; a vertex field cannot be compared to an edge field "
        "without lifting)",
        static_cast<unsigned>(fa.field_values.size()),
        static_cast<unsigned>(fb.field_values.size())));
  }
  // Field-less artifacts have equal (empty) fields whatever their trees.
  if (fa.tree.NumElements() != fb.tree.NumElements()) {
    return Status::InvalidArgument(StrPrintf(
        "CORRELATION trees span different element spaces (%u vs %u "
        "elements)",
        fa.tree.NumElements(), fb.tree.NumElements()));
  }
  // The same doubles SpearmanCorrelation and TopPeakJaccard compute, so
  // the reply bytes match the uncached functions exactly.
  const CorrelationInputs& ca = CorrelationInputsOf(*a.value());
  const CorrelationInputs& cb = CorrelationInputsOf(*b.value());
  return StrPrintf("pearson %.17g\nspearman %.17g\ntop_peak_jaccard10 %.17g\n",
                   PearsonCorrelation(fa.field_values, fb.field_values),
                   PearsonCorrelation(ca.ranks, cb.ranks),
                   MaskJaccard(ca.top10, cb.top10));
}

StatusOr<std::string> QueryService::HandleTile(const Request& request) {
  if (request.width == 0 || request.height == 0 ||
      request.width > options_.max_tile_dim ||
      request.height > options_.max_tile_dim) {
    return Status::InvalidArgument(
        StrPrintf("TILE dimensions %ux%u outside 1..%u", request.width,
                  request.height, options_.max_tile_dim));
  }
  StatusOr<std::shared_ptr<const LoadedArtifact>> loaded =
      GetArtifact(request.dataset, request.field);
  if (!loaded.ok()) return loaded.status();

  TileKey key;
  key.dataset = request.dataset;
  key.field = request.field;
  key.azimuth_deg = request.azimuth_deg;
  key.elevation_deg = request.elevation_deg;
  key.width = request.width;
  key.height = request.height;
  const std::string canonical = key.Canonical();
  std::string tile;
  if (tiles_.Get(canonical, &tile)) return tile;

  // The render seam: arming service/render=always turns every cold tile
  // into a clean UNAVAILABLE frame — the CI service-smoke job proves
  // clients see a structured error, not a hung or torn connection.
  if (failpoint::Fire("service/render")) {
    return failpoint::InjectedFault("service/render");
  }

  ResourceBudget budget(options_.request_budget_bytes,
                        options_.request_deadline_seconds);
  GuardedRenderOptions render_options;
  render_options.raster.width = request.width;
  render_options.raster.height = request.height;
  // One raster thread: request-level parallelism comes from the server's
  // worker pool, and ParallelFor regions serialize globally
  // (common/parallel.h) — fanning out here would stall other requests.
  render_options.raster.num_threads = 1;
  render_options.image_width = request.width;
  render_options.image_height = request.height;
  render_options.camera.azimuth_deg = request.azimuth_deg;
  render_options.camera.elevation_deg = request.elevation_deg;
  render_options.min_raster_dim = options_.min_raster_dim;
  StatusOr<GuardedRenderResult> rendered = RenderTreeTerrainGuarded(
      loaded.value()->artifact.tree, &budget, render_options);
  if (!rendered.ok()) return rendered.status();

  std::string ppm = EncodePpm(rendered.value().image);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.tiles_rendered;
  }
  tiles_.Put(canonical, ppm);
  return ppm;
}

StatusOr<std::string> QueryService::HandleStats() {
  ServiceStats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    snapshot = stats_;
  }
  const TileCacheStats tile = tiles_.stats();
  std::vector<std::string> keys;
  {
    std::lock_guard<std::mutex> lock(load_mu_);
    keys = cache_.Keys();
  }
  std::string out = StrPrintf(
      "version %u\n"
      "requests %llu\n"
      "ok %llu\n"
      "errors %llu\n"
      "artifacts_loaded %llu\n"
      "tiles_rendered %llu\n"
      "tile_hits %llu\n"
      "tile_misses %llu\n"
      "tile_evictions %llu\n"
      "tile_bytes %llu\n"
      "tile_count %llu\n"
      "correlation_bytes %llu\n",
      kWireVersion, static_cast<unsigned long long>(snapshot.requests),
      static_cast<unsigned long long>(snapshot.ok),
      static_cast<unsigned long long>(snapshot.errors),
      static_cast<unsigned long long>(snapshot.artifacts_loaded),
      static_cast<unsigned long long>(snapshot.tiles_rendered),
      static_cast<unsigned long long>(tile.hits),
      static_cast<unsigned long long>(tile.misses),
      static_cast<unsigned long long>(tile.evictions),
      static_cast<unsigned long long>(tile.current_bytes),
      static_cast<unsigned long long>(tile.current_tiles),
      static_cast<unsigned long long>(snapshot.correlation_bytes));
  // One "key dataset/field" line per cache entry — the load generator
  // discovers the corpus from exactly these lines.
  for (const std::string& key : keys) out += "key " + key + "\n";
  return out;
}

ServiceStats QueryService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace service
}  // namespace graphscape

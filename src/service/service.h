// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// QueryService: the verb engine of the Graphscape daemon — everything
// the server does between "one request line arrived" and "one response
// frame to write back", with no sockets anywhere in sight. The split
// keeps the whole query surface testable in-process (service_test.cc
// drives HandleLine directly) and keeps server.cc down to transport.
//
// Data model: an ArtifactCache root (the same directory cache_fsck and
// the figure benches populate) is the corpus. Artifacts load lazily on
// first touch and stay resident for the process lifetime keyed by
// "dataset/field"; each loaded artifact keeps BOTH the deserialized
// SuperTree (for queries) and the exact serialized bytes (so TREE
// responses are byte-identical to SerializeTreeArtifact, which the
// integration test cmp's).
//
// Concurrency contract (docs/SERVICE.md §Concurrency):
//
//   * ArtifactCache is NOT thread-safe (scalar/artifact_cache.h), so
//     every cache touch happens under load_mu_.
//   * SuperTree::MemberIndex() is lazily built and unsynchronized, so it
//     is primed under load_mu_ at load time; after that the artifact is
//     immutable and shared across worker threads by shared_ptr.
//   * An artifact's correlation inputs (ranks, top-peak mask) are built
//     once, behind a per-artifact std::once_flag, by the first
//     CORRELATION that names it — outside load_mu_, so the sort stalls
//     only the requests that need its result.
//   * The tile LRU is internally synchronized; renders run OUTSIDE all
//     locks (they are the slow part — serializing them would make the
//     thread pool pointless).
//
// Every handler returns StatusOr and every Status maps onto a wire code
// (service/wire.h), so a client can always tell "you asked wrong"
// (INVALID_ARGUMENT) from "no such artifact" (NOT_FOUND) from "the
// budget refused" (RESOURCE_EXHAUSTED) from "injected/transient fault"
// (UNAVAILABLE, the only retryable class).

#ifndef GRAPHSCAPE_SERVICE_SERVICE_H_
#define GRAPHSCAPE_SERVICE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "scalar/artifact_cache.h"
#include "service/tile_cache.h"
#include "service/wire.h"

namespace graphscape {
namespace service {

/// Cumulative counters since Open, for STATS and test assertions.
struct ServiceStats {
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;           ///< requests answered with a non-OK frame
  uint64_t artifacts_loaded = 0; ///< lazy loads that succeeded
  uint64_t tiles_rendered = 0;   ///< TILE misses that rendered
  uint64_t correlation_bytes = 0; ///< ranks + masks held by artifacts
};

class QueryService {
 public:
  struct Options {
    /// Byte budget of the rendered-tile LRU.
    uint64_t tile_cache_bytes = 64ull << 20;
    /// Per-request ResourceBudget cap for TILE renders; the guarded
    /// ladder degrades resolution before refusing.
    uint64_t request_budget_bytes = 256ull << 20;
    /// Per-request wall deadline, seconds (0 = none).
    double request_deadline_seconds = 10.0;
    /// TILE width/height above this are INVALID_ARGUMENT outright.
    uint32_t max_tile_dim = 2048;
    /// Floor of the render ladder's resolution halving.
    uint32_t min_raster_dim = 64;
  };

  /// Opens (and recovers, per ArtifactCache::Open) the cache at
  /// `cache_root`. Fails only if the cache cannot be opened; an empty
  /// cache is legal (every keyed verb then answers NOT_FOUND).
  static StatusOr<std::unique_ptr<QueryService>> Open(
      const std::string& cache_root, const Options& options);
  static StatusOr<std::unique_ptr<QueryService>> Open(
      const std::string& cache_root) {
    return Open(cache_root, Options());
  }

  /// The whole request pipeline: parse one line, dispatch the verb,
  /// frame the answer. Always returns a complete frame — errors become
  /// error frames, never exceptions (the server writes the return value
  /// verbatim). Safe to call from many threads concurrently.
  std::string HandleLine(const std::string& line);

  ServiceStats stats() const;
  TileCacheStats tile_stats() const { return tiles_.stats(); }
  const Options& options() const { return options_; }

 private:
  /// What CORRELATION needs of one artifact beyond its field values.
  struct CorrelationInputs {
    std::vector<double> ranks;   ///< AverageRanks(field_values)
    std::vector<uint64_t> top10; ///< TopPeakMask(tree, 10)
  };

  /// One resident artifact: the tree for queries, the bytes for TREE,
  /// and the correlation inputs once a CORRELATION has named it.
  struct LoadedArtifact {
    TreeArtifact artifact;
    std::string serialized;
    mutable std::once_flag correlation_once;
    mutable CorrelationInputs correlation;
  };

  QueryService(ArtifactCache cache, const Options& options)
      : options_(options),
        cache_(std::move(cache)),
        tiles_(options.tile_cache_bytes) {}

  /// Dispatch after a successful parse; the payload of the OK frame.
  StatusOr<std::string> Dispatch(const Request& request);

  StatusOr<std::shared_ptr<const LoadedArtifact>> GetArtifact(
      const std::string& dataset, const std::string& field);

  /// The artifact's correlation inputs, built on the first call and
  /// read-only after it (every reader passes the same once_flag).
  const CorrelationInputs& CorrelationInputsOf(const LoadedArtifact& loaded);

  StatusOr<std::string> HandleTree(const Request& request);
  StatusOr<std::string> HandlePeaks(const Request& request);
  StatusOr<std::string> HandleTopPeaks(const Request& request);
  StatusOr<std::string> HandleMembers(const Request& request);
  StatusOr<std::string> HandleCorrelation(const Request& request);
  StatusOr<std::string> HandleTile(const Request& request);
  StatusOr<std::string> HandleStats();

  const Options options_;

  /// Guards cache_ (not thread-safe) and loaded_ (the resident map);
  /// never held across a render.
  mutable std::mutex load_mu_;
  ArtifactCache cache_;
  std::unordered_map<std::string, std::shared_ptr<const LoadedArtifact>>
      loaded_;

  TileLruCache tiles_;

  mutable std::mutex stats_mu_;
  ServiceStats stats_;
};

}  // namespace service
}  // namespace graphscape

#endif  // GRAPHSCAPE_SERVICE_SERVICE_H_

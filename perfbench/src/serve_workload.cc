// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// serve-mixed: the query daemon over a corpus it did not build itself.
//
// Setup (kSetupReps times; setup_s and build_s are medians): generate the
// CitPatent stand-in at 1/16 scale and persist its KC, PR and KT
// artifacts into a fresh ArtifactCache. The last corpus is served.
//
// A phase: open a fresh QueryService on the corpus, start an in-process
// ServiceServer on an ephemeral loopback port, connect kServeClients
// BlockingClients, and send one first-touch TOPPEAKS per artifact, which
// loads it (Get, deserialize, member index); the corpus files were
// written by this process during setup and sit in the page cache. Then
// the closed loop: each client, on its own thread, runs its seeded
// RequestStream until the measured time is up, sending its next request
// only after the previous reply arrived, as a dashboard caller does.
// After peak RSS is sampled, kFreshOpens - 1 more fresh daemons are each
// touched once per artifact, for more first-touch samples.
//
// peak_rss_mib is the peak resident set of the phase alone: before the
// daemon starts, free heap goes back to the OS and the kernel's peak count
// (VmHWM) restarts at the current resident set; it is read when the closed
// loop ends. getrusage's ru_maxrss cannot be restarted and would report
// the corpus builds of setup instead.
//
// Checks: every reply must be OK and, after the phase, equal to what a
// second, fresh QueryService answers through HandleLine for the same
// line. STATS replies are compared on their version and key lines; their
// counters depend on timing.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/budget.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "gen/datasets.h"
#include "pipeline.h"
#include "scalar/artifact_cache.h"
#include "scalar/correlation.h"
#include "scalar/tree_io.h"
#include "scalar/tree_queries.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"
#include "service/wire.h"
#include "terrain/guarded_render.h"
#include "workloads.h"

namespace perfbench {

using graphscape::ArtifactCache;
using graphscape::ArtifactKey;
using graphscape::Dataset;
using graphscape::DatasetId;
using graphscape::Status;
using graphscape::StatusOr;
using graphscape::StrPrintf;
using graphscape::TreeArtifact;
using graphscape::WallTimer;
using graphscape::service::BlockingClient;
using graphscape::service::QueryService;
using graphscape::service::ResponseFrame;
using graphscape::service::Verb;

namespace {

namespace fs = std::filesystem;

/// Set-ups per run; setup_s and build_s are their medians.
constexpr uint32_t kSetupReps = 5;
constexpr uint32_t kServeScaleDivisor = 16;
constexpr const char* kServeDataset = "citpatent-16";
/// Fresh QueryService opens per phase, each touching every artifact once;
/// first_reply_ms is, per artifact, the median of these first touches,
/// then the median over the artifacts.
constexpr uint32_t kFreshOpens = 15;
const FieldKind kCorpusFields[] = {FieldKind::kCore, FieldKind::kPageRank,
                                   FieldKind::kTruss};

struct Corpus {
  std::string dir;
  CorpusSummary summary;
  uint32_t vertices = 0;
  uint64_t edges = 0;
  std::map<std::string, uint32_t> distinct;     // field key -> count
  std::map<std::string, uint32_t> super_nodes;  // field key -> count
};

/// Span name of a roundtrip (or, with `handle`, a HandleLine replay) of
/// `verb`; the strings live for the whole process.
const char* VerbSpan(bool handle, Verb verb) {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const char* prefix : {"service.roundtrip.", "service.handle."}) {
      for (const Verb v : AllVerbs()) names.push_back(prefix + VerbKey(v));
    }
    return names;
  }();
  const size_t offset = handle ? AllVerbs().size() : 0;
  return kNames[offset + static_cast<size_t>(verb)].c_str();
}

FieldSummary SummarizeField(const FieldTree& field) {
  const graphscape::SuperTree& tree = field.artifact.tree;
  FieldSummary s;
  s.name = FieldKey(field.kind);
  s.nodes = tree.NumNodes();
  std::vector<double> sorted = field.artifact.field_values;
  std::sort(sorted.begin(), sorted.end());
  for (uint32_t k = 0; k <= kPeakLevelSteps; ++k) {
    s.levels.push_back(
        Quantile(sorted, static_cast<double>(k) / kPeakLevelSteps));
  }
  return s;
}

/// One setup repetition: dataset, then the corpus into `dir`. On the last
/// repetition (`corpus` not null) also summarizes the corpus, off the clock.
void SetupOnce(const RunConfig& config, const std::string& dir, uint64_t rep,
               Tracer* tracer, RssByStage* rss, RunOutput* out,
               double* setup_s, double* build_s, Corpus* corpus) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  WallTimer setup_timer;
  std::optional<Dataset> dataset;
  {
    Tracer::Span span(tracer, "gen.dataset", rep);
    graphscape::DatasetOptions options;
    options.scale_divisor = kServeScaleDivisor;
    options.seed = config.seed;
    dataset.emplace(graphscape::MakeDataset(DatasetId::kCitPatent, options));
  }
  if (rss != nullptr) rss->Note("gen");
  PipelineContext ctx;
  ctx.graph = &dataset->graph;
  ctx.threads = kThreads;
  ctx.tracer = tracer;
  ctx.rss = rss;
  WallTimer build_timer;
  std::vector<FieldTree> fields;
  {
    Tracer::Span span(tracer, "corpus", rep, true);
    StatusOr<ArtifactCache> cache = ArtifactCache::Open(dir);
    if (!out->tally.RecordStatus(cache.status(), "open corpus cache")) return;
    for (const FieldKind kind : kCorpusFields) {
      FieldTree field = BuildFieldTree(ctx, kind);
      out->tally.RecordStatus(
          PutArtifact(ctx, &cache.value(), kServeDataset, field),
          StrPrintf("put corpus %s", FieldKey(kind)));
      if (corpus != nullptr) fields.push_back(std::move(field));
    }
  }
  *build_s = build_timer.Seconds();
  *setup_s = setup_timer.Seconds();
  if (corpus == nullptr) return;
  corpus->dir = dir;
  corpus->summary.dataset = kServeDataset;
  corpus->summary.correlatable = {FieldKey(FieldKind::kCore),
                                  FieldKey(FieldKind::kPageRank)};
  corpus->vertices = dataset->graph.NumVertices();
  corpus->edges = dataset->graph.NumEdges();
  for (const FieldTree& field : fields) {
    corpus->summary.fields.push_back(SummarizeField(field));
    corpus->distinct[FieldKey(field.kind)] =
        DistinctValues(field.artifact.field_values);
    corpus->super_nodes[FieldKey(field.kind)] = field.artifact.tree.NumNodes();
  }
}

struct Sample {
  Verb verb = Verb::kStats;
  double ms = 0.0;
  uint64_t bytes = 0;  ///< reply payload bytes
  uint64_t digest = 0;  ///< ReplyDigest of the payload
  bool ok = false;
  std::string line;
};

struct ServePhase {
  std::vector<Sample> first_touch;
  std::vector<std::vector<Sample>> streams;  // one per client
  double elapsed_s = 0.0;
  double peak_rss_mib = 0.0;
  graphscape::service::TileCacheStats tiles;
  graphscape::service::ServiceStats stats;
};

/// Digest of the part of a reply that must match HandleLine's answer.
/// Digests are only compared within this process, so std::hash serves;
/// it reads the payload in place, keeping the client's work between
/// requests small.
uint64_t ReplyDigest(Verb verb, const std::string& payload) {
  return verb == Verb::kStats
             ? std::hash<std::string>{}(CanonicalReply(verb, payload))
             : std::hash<std::string_view>{}(payload);
}

Sample Roundtrip(BlockingClient* client, Verb verb,
                 const std::string& line, Tracer* tracer, uint64_t request_id,
                 RunOutput* out) {
  Sample sample;
  sample.verb = verb;
  sample.line = line;
  StatusOr<ResponseFrame> reply = Status::Unavailable("unsent");
  WallTimer timer;
  {
    Tracer::Span span(tracer, VerbSpan(false, verb), request_id);
    reply = client->Roundtrip(line);
  }
  sample.ms = 1e3 * timer.Seconds();
  if (!out->tally.RecordStatus(reply.status(), "transport: " + line)) {
    client->Close();  // a transport error poisons the connection
    return sample;
  }
  const auto& frame = reply.value();
  const bool frame_ok = frame.wire_code == graphscape::service::kWireOk;
  sample.ok = out->tally.Record(
      frame_ok, frame_ok ? std::string()
                         : StrPrintf("wire code %u: %s: %s", frame.wire_code,
                                     line.c_str(), frame.payload.c_str()));
  sample.bytes = frame.payload.size();
  sample.digest = ReplyDigest(verb, frame.payload);
  return sample;
}

/// A fresh QueryService on the corpus, served on an ephemeral loopback
/// port. The server is declared last so it stops before the service goes.
struct Daemon {
  std::unique_ptr<QueryService> service;
  std::unique_ptr<graphscape::service::ServiceServer> server;
};

bool StartDaemon(const Corpus& corpus, RunOutput* out, Daemon* daemon) {
  StatusOr<std::unique_ptr<QueryService>> opened =
      QueryService::Open(corpus.dir);
  if (!out->tally.RecordStatus(opened.status(), "open query service")) {
    return false;
  }
  daemon->service = std::move(opened).value();
  graphscape::service::ServiceServer::Options options;
  options.port = 0;
  options.num_threads = kServeWorkers;
  daemon->server = std::make_unique<graphscape::service::ServiceServer>(
      daemon->service.get(), options);
  return out->tally.RecordStatus(daemon->server->Start(), "start server");
}

/// One first-touch TOPPEAKS per artifact: each loads its artifact.
void TouchEveryArtifact(const Corpus& corpus, BlockingClient* client,
                        Tracer* tracer, RunOutput* out,
                        std::vector<Sample>* samples) {
  for (const FieldSummary& field : corpus.summary.fields) {
    const std::string line =
        StrPrintf("TOPPEAKS %s %s 1", corpus.summary.dataset.c_str(),
                  field.name.c_str());
    samples->push_back(Roundtrip(client, Verb::kTopPeaks, line, tracer,
                                 samples->size(), out));
  }
}

ServePhase RunServePhase(const RunConfig& config, const Corpus& corpus,
                         double seconds, Tracer* tracer, RssByStage* rss,
                         RunOutput* out) {
  ServePhase phase;
  if (!ResetPeakRss()) {
    out->Note("peak_rss", "/proc/self/clear_refs is not writable; "
                          "peak_rss_mib includes setup");
  }
  if (rss != nullptr) rss->Note("reset");
  Daemon daemon;
  if (!StartDaemon(corpus, out, &daemon)) return phase;
  std::vector<std::unique_ptr<BlockingClient>> clients;
  for (uint32_t c = 0; c < kServeClients; ++c) {
    clients.push_back(std::make_unique<BlockingClient>());
    if (!out->tally.RecordStatus(
            clients.back()->Connect("127.0.0.1", daemon.server->port()),
            "connect")) {
      return phase;
    }
  }
  TouchEveryArtifact(corpus, clients[0].get(), tracer, out,
                     &phase.first_touch);
  if (rss != nullptr) rss->Note("first_touch");
  graphscape::service::ServiceServer& server = *daemon.server;

  phase.streams.resize(kServeClients);
  std::vector<std::thread> threads;
  WallTimer wall;
  for (uint32_t c = 0; c < kServeClients; ++c) {
    threads.emplace_back([&, c] {
      RequestStream stream(corpus.summary, config.request_seed, c);
      std::vector<Sample>& samples = phase.streams[c];
      uint64_t seq = 0;
      while (wall.Seconds() < seconds) {
        const GeneratedRequest request = stream.Next();
        samples.push_back(Roundtrip(clients[c].get(), request.verb,
                                    request.line, tracer,
                                    (uint64_t{c + 1} << 32) | seq++, out));
        if (!clients[c]->connected()) {
          out->tally.RecordStatus(
              clients[c]->Connect("127.0.0.1", server.port()), "reconnect");
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  phase.elapsed_s = wall.Seconds();
  phase.peak_rss_mib = PeakRssSinceResetMib();
  if (rss != nullptr) rss->Note("serve");
  for (auto& client : clients) client->Close();
  server.Stop();
  phase.tiles = daemon.service->tile_stats();
  phase.stats = daemon.service->stats();

  // More first touches, each after a fresh Open, once peak RSS is taken.
  for (uint32_t round = 1; round < kFreshOpens; ++round) {
    Daemon fresh;
    BlockingClient client;
    if (!StartDaemon(corpus, out, &fresh) ||
        !out->tally.RecordStatus(
            client.Connect("127.0.0.1", fresh.server->port()), "connect")) {
      break;
    }
    TouchEveryArtifact(corpus, &client, tracer, out, &phase.first_touch);
  }
  return phase;
}

/// Every OK reply of the phase must equal a fresh service's HandleLine
/// answer to the same line; each distinct line is answered once.
void VerifyReplies(const Corpus& corpus, const ServePhase& phase,
                   RunOutput* out) {
  StatusOr<std::unique_ptr<QueryService>> opened =
      QueryService::Open(corpus.dir);
  if (!out->tally.RecordStatus(opened.status(), "open reference service")) {
    return;
  }
  QueryService& reference = *opened.value();
  std::map<std::string, uint64_t> expected;
  auto check = [&](const Sample& sample) {
    if (!sample.ok) return;  // already counted as failed
    auto it = expected.find(sample.line);
    if (it == expected.end()) {
      StatusOr<ResponseFrame> frame = graphscape::service::DecodeResponseFrame(
          reference.HandleLine(sample.line));
      const uint64_t hash =
          frame.ok() && frame.value().wire_code == graphscape::service::kWireOk
              ? ReplyDigest(sample.verb, frame.value().payload)
              : ~sample.digest;
      it = expected.emplace(sample.line, hash).first;
    }
    out->tally.Record(it->second == sample.digest,
                      "reply differs from HandleLine: " + sample.line);
  };
  for (const Sample& sample : phase.first_touch) check(sample);
  for (const auto& stream : phase.streams) {
    for (const Sample& sample : stream) check(sample);
  }
}

/// "tree 0, peaks 3, ...": how many OK replies of `phase` took longer
/// than `threshold_ms`, by verb.
std::string SlowerByVerb(const ServePhase& phase, double threshold_ms) {
  std::map<Verb, size_t> slower;
  for (const auto& stream : phase.streams) {
    for (const Sample& sample : stream) {
      if (sample.ok && sample.ms > threshold_ms) ++slower[sample.verb];
    }
  }
  std::string text;
  for (const Verb verb : AllVerbs()) {
    text += StrPrintf("%s%s %zu", text.empty() ? "" : ", ",
                      VerbKey(verb).c_str(), slower[verb]);
  }
  return text;
}

/// Sets the end-to-end metrics of `phase`; returns its latency summary.
LatencySummary EmitEndToEnd(double setup_s, double build_s,
                            double artifact_mib, const ServePhase& phase,
                            RunOutput* out, MetricSet* m) {
  std::vector<double> all_ms;
  std::map<std::string, std::vector<double>> first_ms;  // by request line
  uint64_t ok = 0;
  for (const auto& stream : phase.streams) {
    for (const Sample& sample : stream) {
      if (!sample.ok) continue;
      ++ok;
      all_ms.push_back(sample.ms);
    }
  }
  for (const Sample& sample : phase.first_touch) {
    first_ms[sample.line].push_back(sample.ms);
  }
  const LatencySummary latency = Summarize(all_ms);
  out->tally.Record(
      latency.beyond_p99 >= kMinSamplesBeyond,
      StrPrintf("p99 needs %zu samples beyond it, has %zu of %zu",
                kMinSamplesBeyond, latency.beyond_p99, latency.count));
  m->Set("setup_s", setup_s, "s");
  m->Set("build_s", build_s, "s");
  m->Set("artifact_mib", artifact_mib, "MiB");
  m->Set("peak_rss_mib", phase.peak_rss_mib, "MiB");
  m->Set("qps", phase.elapsed_s > 0 ? ok / phase.elapsed_s : 0.0, "req/s");
  m->Set("p50_ms", latency.p50, "ms");
  m->Set("p99_ms", latency.p99, "ms");
  m->Set("first_reply_ms", MedianOfGroupMedians(first_ms), "ms");
  return latency;
}

/// Replays every stream of `phase` through HandleLine on a fresh service,
/// one thread per stream as the clients ran, timing each call.
using LatenciesByVerb = std::map<Verb, std::vector<double>>;

LatenciesByVerb ReplayHandleLine(const Corpus& corpus, const ServePhase& phase,
                                 Tracer* tracer, RunOutput* out) {
  LatenciesByVerb handle_ms;
  StatusOr<std::unique_ptr<QueryService>> opened =
      QueryService::Open(corpus.dir);
  if (!out->tally.RecordStatus(opened.status(), "open replay service")) {
    return handle_ms;
  }
  QueryService& service = *opened.value();
  // Load every artifact first, as the wire phase did with its first touch.
  for (const Sample& sample : phase.first_touch) {
    (void)service.HandleLine(sample.line);
  }
  std::vector<LatenciesByVerb> per_stream(phase.streams.size());
  std::vector<std::thread> threads;
  for (size_t s = 0; s < phase.streams.size(); ++s) {
    threads.emplace_back([&, s] {
      uint64_t seq = 0;
      for (const Sample& sample : phase.streams[s]) {
        WallTimer timer;
        {
          Tracer::Span span(tracer, VerbSpan(true, sample.verb),
                            (uint64_t{s + 1} << 32) | seq++);
          (void)service.HandleLine(sample.line);
        }
        per_stream[s][sample.verb].push_back(1e3 * timer.Seconds());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (auto& stream : per_stream) {
    for (auto& [verb, ms] : stream) {
      handle_ms[verb].insert(handle_ms[verb].end(), ms.begin(), ms.end());
    }
  }
  return handle_ms;
}

template <typename Fn>
double MedianOf(int reps, Fn&& fn) {
  std::vector<double> values;
  for (int rep = 0; rep < reps; ++rep) values.push_back(fn());
  return Median(values);
}

/// Direct calls into scalar/ and terrain/ with the parameters the
/// service uses, timed from outside.
void EmitDirectLayers(const RunConfig& config, const Corpus& corpus,
                      RunOutput* out) {
  MetricSet& layers = out->layers;
  std::map<std::string, TreeArtifact> artifacts;
  for (const FieldKind kind : kCorpusFields) {
    const std::string key = FieldKey(kind);
    const std::string m = FieldMetricKey(kind);
    const ArtifactKey artifact_key{corpus.summary.dataset, key};
    StatusOr<TreeArtifact> got = Status::NotFound(key);
    const double get_ms = MedianOf(3, [&] {
      StatusOr<ArtifactCache> cache = ArtifactCache::Open(corpus.dir);
      if (!out->tally.RecordStatus(cache.status(), "open corpus")) return 0.0;
      WallTimer timer;
      got = cache.value().Get(artifact_key);
      const double ms = 1e3 * timer.Seconds();
      out->tally.RecordStatus(got.status(), "get corpus " + key);
      return ms;
    });
    layers.Set("scalar.cache_get_ms." + m, get_ms, "ms");
    if (!got.ok()) continue;
    StatusOr<std::string> bytes =
        graphscape::SerializeTreeArtifact(got.value());
    if (!out->tally.RecordStatus(bytes.status(), "serialize " + key)) continue;
    layers.Set("scalar.artifact_bytes." + m,
               static_cast<double>(bytes.value().size()), "B");
    const double deserialize_ms = MedianOf(3, [&] {
      WallTimer timer;
      StatusOr<TreeArtifact> parsed =
          graphscape::DeserializeTreeArtifact(bytes.value());
      const double ms = 1e3 * timer.Seconds();
      out->tally.Record(
          parsed.ok() && ArtifactsEqual(parsed.value(), got.value()),
          "deserialize corpus " + key);
      return ms;
    });
    layers.Set("scalar.deserialize_ms." + m, deserialize_ms, "ms");
    got.value().tree.MemberIndex();  // prime, as the service does at load
    artifacts.emplace(key, std::move(got).value());
  }
  if (artifacts.size() != std::size(kCorpusFields)) return;

  const TreeArtifact& kc = artifacts.at("KC");
  const TreeArtifact& pr = artifacts.at("PR");
  const double correlation_ms = MedianOf(3, [&] {
    WallTimer timer;
    volatile double sink =
        graphscape::PearsonCorrelation(kc.field_values, pr.field_values) +
        graphscape::SpearmanCorrelation(kc.field_values, pr.field_values) +
        graphscape::TopPeakJaccard(kc.tree, pr.tree, 10);
    (void)sink;
    return 1e3 * timer.Seconds();
  });
  layers.Set("scalar.correlation_ms", correlation_ms, "ms");

  // PEAKS / TOPPEAKS / MEMBERS calls with parameters drawn like the mix.
  LatenciesByVerb us;
  RequestStream stream(corpus.summary, config.request_seed, 0xffff);
  constexpr size_t kCalls = 200;
  uint64_t sink = 0;
  while (us[Verb::kPeaks].size() < kCalls ||
         us[Verb::kTopPeaks].size() < kCalls ||
         us[Verb::kMembers].size() < kCalls) {
    const GeneratedRequest request = stream.Next();
    if (request.verb != Verb::kPeaks && request.verb != Verb::kTopPeaks &&
        request.verb != Verb::kMembers) {
      continue;
    }
    const StatusOr<graphscape::service::Request> parsed =
        graphscape::service::ParseRequestLine(request.line);
    if (!out->tally.RecordStatus(parsed.status(), "parse " + request.line)) {
      return;
    }
    const graphscape::SuperTree& tree =
        artifacts.at(parsed.value().field).tree;
    WallTimer timer;
    if (request.verb == Verb::kPeaks) {
      sink += graphscape::PeaksAtLevel(tree, parsed.value().level).size();
    } else if (request.verb == Verb::kTopPeaks) {
      sink += graphscape::TopPeaks(tree, parsed.value().k).size();
    } else {
      for (const uint32_t member : tree.Members(parsed.value().node)) {
        sink += member;
      }
    }
    us[request.verb].push_back(1e6 * timer.Seconds());
  }
  out->Note("direct_call_checksum",
            StrPrintf("%llu", static_cast<unsigned long long>(sink)));
  layers.Set("scalar.peaks_us", Median(us[Verb::kPeaks]), "us");
  layers.Set("scalar.toppeaks_us", Median(us[Verb::kTopPeaks]), "us");
  layers.Set("scalar.members_us", Median(us[Verb::kMembers]), "us");

  // A cold TILE render exactly as QueryService::HandleTile configures it.
  const QueryService::Options service_options;
  std::vector<double> render_ms;
  for (const auto& [key, artifact] : artifacts) {
    for (const double azimuth : {0.0, 180.0}) {
      graphscape::ResourceBudget budget(
          service_options.request_budget_bytes,
          service_options.request_deadline_seconds);
      graphscape::GuardedRenderOptions options;
      options.raster.width = kTileWidth;
      options.raster.height = kTileHeight;
      options.raster.num_threads = 1;
      options.image_width = kTileWidth;
      options.image_height = kTileHeight;
      options.camera.azimuth_deg = azimuth;
      options.camera.elevation_deg = kTileElevationDeg;
      options.min_raster_dim = service_options.min_raster_dim;
      WallTimer timer;
      const auto rendered = graphscape::RenderTreeTerrainGuarded(
          artifact.tree, &budget, options);
      render_ms.push_back(1e3 * timer.Seconds());
      out->tally.RecordStatus(rendered.status(), "tile render " + key);
    }
  }
  layers.Set("terrain.tile_render_ms", Median(render_ms), "ms");
}

void EmitServiceLayers(const ServePhase& phase,
                       const LatenciesByVerb& handle_ms, RunOutput* out) {
  MetricSet& layers = out->layers;
  LatenciesByVerb roundtrip_ms;
  std::map<Verb, uint64_t> bytes;
  for (const auto& stream : phase.streams) {
    for (const Sample& sample : stream) {
      roundtrip_ms[sample.verb].push_back(sample.ms);
      bytes[sample.verb] += sample.bytes;
    }
  }
  for (const Verb verb : AllVerbs()) {
    const std::string v = VerbKey(verb);
    const double q = VerbTailQuantile(verb);
    const std::string tail = "." + QuantileName(q);
    const LatencySummary rt = Summarize(roundtrip_ms[verb], q);
    layers.Set("service.requests." + v, static_cast<double>(rt.count), "count");
    layers.Set("service.reply_bytes." + v,
               rt.count > 0 ? static_cast<double>(bytes[verb]) / rt.count : 0.0,
               "B");
    layers.Set("service.roundtrip_ms." + v + ".p50", rt.p50, "ms");
    layers.Set("service.roundtrip_ms." + v + tail, rt.tail, "ms");
    const auto handled = handle_ms.find(verb);
    const LatencySummary hl = Summarize(
        handled == handle_ms.end() ? std::vector<double>{} : handled->second,
        q);
    layers.Set("service.handle_ms." + v + ".p50", hl.p50, "ms");
    layers.Set("service.handle_ms." + v + tail, hl.tail, "ms");
    for (const LatencySummary* summary : {&rt, &hl}) {
      out->tally.Record(
          summary->beyond_tail >= kMinSamplesBeyond,
          StrPrintf("%s %s needs %zu samples beyond it, has %zu of %zu",
                    v.c_str(), QuantileName(q).c_str(), kMinSamplesBeyond,
                    summary->beyond_tail, summary->count));
    }
  }
  const uint64_t lookups = phase.tiles.hits + phase.tiles.misses;
  layers.Set("service.tile_hit_ratio",
             lookups > 0 ? static_cast<double>(phase.tiles.hits) / lookups
                         : 0.0,
             "ratio");
  layers.Set("service.tiles_rendered",
             static_cast<double>(phase.stats.tiles_rendered), "count");
  layers.Set("service.tile_evictions",
             static_cast<double>(phase.tiles.evictions), "count");
}

}  // namespace

void RunServeMixed(const RunConfig& config, Tracer* tracer, RunOutput* out) {
  std::vector<double> setup_untraced, setup_traced;
  std::vector<double> build_untraced, build_traced;
  const uint32_t untraced_reps =
      config.trace ? (kSetupReps + 1) / 2 : kSetupReps;
  RssByStage rss;
  Corpus corpus;
  for (uint32_t rep = 0; rep < kSetupReps; ++rep) {
    const bool armed = config.trace && rep >= untraced_reps;
    const bool last = rep + 1 == kSetupReps;
    tracer->Arm(armed);
    double setup_s = 0.0, build_s = 0.0;
    const std::string dir =
        StrPrintf("%s/corpus-%u", config.work_dir.c_str(), rep);
    SetupOnce(config, dir, rep, tracer, armed ? &rss : nullptr, out, &setup_s,
              &build_s, last ? &corpus : nullptr);
    (armed ? setup_traced : setup_untraced).push_back(setup_s);
    (armed ? build_traced : build_untraced).push_back(build_s);
    std::fprintf(stderr, "perfbench: setup %u: %.3f s, corpus build %.3f s\n",
                 rep, setup_s, build_s);
    if (!last) {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  }
  tracer->Arm(false);
  if (corpus.summary.fields.size() != std::size(kCorpusFields)) return;
  const double artifact_mib =
      static_cast<double>(DirectoryBytes(corpus.dir)) / (1024.0 * 1024.0);
  out->Note("dataset",
            StrPrintf("CitPatent 1/%u scale, seed %llu: %u vertices, %llu "
                      "edges",
                      kServeScaleDivisor,
                      static_cast<unsigned long long>(config.seed),
                      corpus.vertices,
                      static_cast<unsigned long long>(corpus.edges)));
  out->Note("setup_reps", StrPrintf("%u", kSetupReps));
  out->Note("first_reply_cache",
            "corpus files were written by this process during setup and are in "
            "the page cache at first touch");

  const double untraced_seconds =
      config.trace ? config.seconds / 2 : config.seconds;
  const ServePhase untraced =
      RunServePhase(config, corpus, untraced_seconds, tracer, nullptr, out);
  VerifyReplies(corpus, untraced, out);
  MetricSet untraced_e2e;
  const LatencySummary latency =
      EmitEndToEnd(Median(setup_untraced), Median(build_untraced), artifact_mib,
                   untraced, out, &untraced_e2e);
  out->Note("latency_samples",
            StrPrintf("%zu OK replies in %.3f s, %zu beyond p99", latency.count,
                      untraced.elapsed_s, latency.beyond_p99));
  out->Note("beyond_p99_by_verb", SlowerByVerb(untraced, latency.p99));
  if (!config.trace) {
    out->end_to_end = untraced_e2e;
    return;
  }

  tracer->Arm(true);
  const ServePhase traced =
      RunServePhase(config, corpus, config.seconds / 2, tracer, &rss, out);
  const LatenciesByVerb handle_ms =
      ReplayHandleLine(corpus, traced, tracer, out);
  tracer->Arm(false);
  VerifyReplies(corpus, traced, out);
  MetricSet traced_e2e;
  EmitEndToEnd(Median(setup_traced), Median(build_traced), artifact_mib,
               traced, out, &traced_e2e);
  out->end_to_end = untraced_e2e;
  AddTraceOverhead(untraced_e2e, traced_e2e, &out->layers);

  MetricSet& layers = out->layers;
  EmitServiceLayers(traced, handle_ms, out);
  EmitDirectLayers(config, corpus, out);
  std::vector<double> gen_s;
  for (const SpanRecord& span : tracer->Spans()) {
    if (span.name == "gen.dataset") gen_s.push_back(span.Seconds());
  }
  layers.Set("gen.dataset_s", Median(gen_s), "s");
  layers.Set("gen.vertices", corpus.vertices, "count");
  layers.Set("gen.edges", static_cast<double>(corpus.edges), "count");
  for (const FieldKind kind : kCorpusFields) {
    const std::string m = FieldMetricKey(kind);
    layers.Set("field.distinct." + m, corpus.distinct.at(FieldKey(kind)),
               "count");
    layers.Set("scalar.super_tree_nodes." + m,
               corpus.super_nodes.at(FieldKey(kind)), "count");
  }
  for (const auto& [stage, mib] : rss.max_mib) {
    layers.Set("rss.after_" + stage + "_mib", mib, "MiB");
  }
}

}  // namespace perfbench

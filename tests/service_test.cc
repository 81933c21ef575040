// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// QueryService + ServiceServer, both layers:
//
//   * HandleLine directly (no sockets) — every verb's payload against
//     the library call it wraps, with TREE byte-compared against
//     SerializeTreeArtifact, plus the full error taxonomy.
//   * The loopback integration — a real daemon on an ephemeral port,
//     real BlockingClients, concurrent traffic, oversized-line hangup,
//     and both service/* failpoint seams observed from the client side.

#include "service/service.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/fs.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "gen/generators.h"
#include "metrics/kcore.h"
#include "scalar/correlation.h"
#include "scalar/artifact_cache.h"
#include "scalar/scalar_tree.h"
#include "scalar/tree_io.h"
#include "scalar/tree_queries.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"

namespace graphscape {
namespace service {
namespace {

// Fresh, empty cache root per test (clears leftovers from a previous
// run of the same test) — the artifact_cache_test idiom.
std::string FreshRoot(const std::string& name) {
  const std::string root = ::testing::TempDir() + "/gs_service_" + name;
  for (const char* sub : {"/entries", "/quarantine", ""}) {
    const std::string dir = root + sub;
    const StatusOr<std::vector<std::string>> names = ListDir(dir);
    if (!names.ok()) continue;
    for (const std::string& file : names.value()) {
      (void)RemoveFile(dir + "/" + file);
    }
    ::rmdir(dir.c_str());
  }
  return root;
}

// One dataset ("ba-test") with KC, DEG and MIX fields over the same
// element space, so CORRELATION has legal pairs: KC is constant (a BA
// graph is one solid core), DEG ties heavily, and MIX mixes distinct
// values with a few tied runs.
TreeArtifact BuildArtifact(const Graph& g, const VertexScalarField& field) {
  TreeArtifact artifact;
  artifact.tree = SuperTree(BuildVertexScalarTree(g, field));
  artifact.field_name = field.Name();
  artifact.field_values = field.Values();
  return artifact;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = FreshRoot(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    Rng rng(7);
    const Graph g = BarabasiAlbert(150, 3, &rng);
    std::vector<uint32_t> degrees(g.NumVertices());
    for (uint32_t v = 0; v < g.NumVertices(); ++v) degrees[v] = g.Degree(v);
    kc_ = BuildArtifact(g, VertexScalarField::FromCounts("KC", CoreNumbers(g)));
    deg_ = BuildArtifact(g, VertexScalarField::FromCounts("DEG", degrees));
    std::vector<double> mix(g.NumVertices());
    for (uint32_t v = 0; v < g.NumVertices(); ++v) {
      mix[v] = v % 4 == 0 ? 0.5 * v : 1.0 + v % 5;
    }
    mix_ = BuildArtifact(g, VertexScalarField("MIX", mix));

    StatusOr<ArtifactCache> cache = ArtifactCache::Open(root_);
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    ASSERT_TRUE(cache.value().Put(ArtifactKey{"ba-test", "KC"}, kc_).ok());
    ASSERT_TRUE(cache.value().Put(ArtifactKey{"ba-test", "DEG"}, deg_).ok());
    ASSERT_TRUE(cache.value().Put(ArtifactKey{"ba-test", "MIX"}, mix_).ok());

    StatusOr<std::unique_ptr<QueryService>> opened = QueryService::Open(root_);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    service_ = std::move(opened).value();
  }

  // HandleLine always returns a complete frame; decode or die.
  ResponseFrame Answer(const std::string& line) {
    StatusOr<ResponseFrame> frame =
        DecodeResponseFrame(service_->HandleLine(line));
    EXPECT_TRUE(frame.ok()) << frame.status().ToString();
    return frame.ok() ? std::move(frame).value() : ResponseFrame{};
  }

  // The payload's "<name> <value>" line, or "" if absent.
  static std::string StatsLine(const std::string& payload,
                               const std::string& name) {
    const size_t at = payload.find("\n" + name + " ");
    if (at == std::string::npos) return "";
    const size_t end = payload.find('\n', at + 1);
    return payload.substr(at + 1, end - at - 1);
  }

  // CORRELATION's cache per artifact: 8 B of rank and one mask bit per
  // element, the mask in whole 64-bit words.
  static uint64_t CorrelationBytes(uint64_t n) {
    return n * 8 + (n + 63) / 64 * 8;
  }

  std::string root_;
  TreeArtifact kc_;
  TreeArtifact deg_;
  TreeArtifact mix_;
  std::unique_ptr<QueryService> service_;
};

TEST_F(ServiceTest, TreeIsByteIdenticalToSerializeTreeArtifact) {
  const ResponseFrame frame = Answer("TREE ba-test KC");
  ASSERT_EQ(frame.wire_code, kWireOk);
  StatusOr<std::string> expected = SerializeTreeArtifact(kc_);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(frame.payload, expected.value());
  // And the payload must round-trip back through the artifact parser.
  EXPECT_TRUE(DeserializeTreeArtifact(frame.payload).ok());
}

TEST_F(ServiceTest, PeaksMatchesPeaksAtLevel) {
  const double level = 2.5;
  const ResponseFrame frame = Answer("PEAKS ba-test KC 2.5");
  ASSERT_EQ(frame.wire_code, kWireOk);
  const std::vector<Peak> peaks = PeaksAtLevel(kc_.tree, level);
  std::string expected = StrPrintf("peaks %u",
                                   static_cast<unsigned>(peaks.size()));
  for (const Peak& peak : peaks) {
    expected += StrPrintf("\n%u %u %.17g", peak.super_node,
                          peak.member_count, peak.max_scalar);
  }
  expected += '\n';
  EXPECT_EQ(frame.payload, expected);
}

TEST_F(ServiceTest, TopPeaksMatchesTopPeaks) {
  const ResponseFrame frame = Answer("TOPPEAKS ba-test KC 5");
  ASSERT_EQ(frame.wire_code, kWireOk);
  const std::vector<Peak> peaks = TopPeaks(kc_.tree, 5);
  EXPECT_NE(frame.payload.find(StrPrintf(
                "peaks %u", static_cast<unsigned>(peaks.size()))),
            std::string::npos);
  ASSERT_FALSE(peaks.empty());
  EXPECT_NE(frame.payload.find(StrPrintf("%u %u", peaks[0].super_node,
                                         peaks[0].member_count)),
            std::string::npos);
}

TEST_F(ServiceTest, MembersMatchesTreeMembers) {
  const ResponseFrame frame = Answer("MEMBERS ba-test KC 0");
  ASSERT_EQ(frame.wire_code, kWireOk);
  const MemberRange members = kc_.tree.Members(0);
  std::string expected = StrPrintf("members %u", members.size());
  for (uint32_t element : members) expected += StrPrintf("\n%u", element);
  expected += '\n';
  EXPECT_EQ(frame.payload, expected);
}

TEST_F(ServiceTest, MembersOutOfRangeIsInvalidArgument) {
  const std::string line =
      StrPrintf("MEMBERS ba-test KC %u", kc_.tree.NumNodes());
  const ResponseFrame frame = Answer(line);
  EXPECT_EQ(frame.wire_code, kWireInvalidArgument);
  EXPECT_NE(frame.payload.find("out of range"), std::string::npos);
}

TEST_F(ServiceTest, CorrelationOfAFieldWithItselfIsOne) {
  // DEG, not KC: BA(n, m) graphs are one solid m-core, so the KC field
  // is constant and its self-correlation is the degenerate 0, not 1.
  const ResponseFrame frame = Answer("CORRELATION ba-test DEG DEG");
  ASSERT_EQ(frame.wire_code, kWireOk);
  EXPECT_NE(frame.payload.find("pearson 1\n"), std::string::npos)
      << frame.payload;
  EXPECT_NE(frame.payload.find("spearman 1\n"), std::string::npos);
  EXPECT_NE(frame.payload.find("top_peak_jaccard10 1\n"), std::string::npos);
}

TEST_F(ServiceTest, CorrelationIsByteIdenticalToUncachedFunctions) {
  const std::pair<const char*, const TreeArtifact*> fields[] = {
      {"KC", &kc_}, {"DEG", &deg_}, {"MIX", &mix_}};
  for (const auto& [name_a, fa] : fields) {
    for (const auto& [name_b, fb] : fields) {
      const std::string expected = StrPrintf(
          "pearson %.17g\nspearman %.17g\ntop_peak_jaccard10 %.17g\n",
          PearsonCorrelation(fa->field_values, fb->field_values),
          SpearmanCorrelation(fa->field_values, fb->field_values),
          TopPeakJaccard(fa->tree, fb->tree, 10));
      const std::string line =
          StrPrintf("CORRELATION ba-test %s %s", name_a, name_b);
      // Cold (this pair may build the cached inputs), then warm.
      for (const char* pass : {"cold", "warm"}) {
        const ResponseFrame frame = Answer(line);
        ASSERT_EQ(frame.wire_code, kWireOk) << line << " " << pass;
        EXPECT_EQ(frame.payload, expected) << line << " " << pass;
      }
    }
  }
}

TEST_F(ServiceTest, StatsCountsCorrelationBytesOncePerArtifact) {
  EXPECT_EQ(StatsLine(Answer("STATS").payload, "correlation_bytes"),
            "correlation_bytes 0");
  // Loading an artifact for another verb builds nothing.
  ASSERT_EQ(Answer("TOPPEAKS ba-test KC 3").wire_code, kWireOk);
  EXPECT_EQ(service_->stats().correlation_bytes, 0u);

  const uint64_t per = CorrelationBytes(kc_.field_values.size());
  ASSERT_EQ(Answer("CORRELATION ba-test KC DEG").wire_code, kWireOk);
  EXPECT_EQ(service_->stats().correlation_bytes, 2 * per);
  ASSERT_EQ(Answer("CORRELATION ba-test DEG KC").wire_code, kWireOk);
  ASSERT_EQ(Answer("CORRELATION ba-test DEG DEG").wire_code, kWireOk);
  EXPECT_EQ(service_->stats().correlation_bytes, 2 * per);
  ASSERT_EQ(Answer("CORRELATION ba-test MIX KC").wire_code, kWireOk);
  EXPECT_EQ(service_->stats().correlation_bytes, 3 * per);
  EXPECT_EQ(StatsLine(Answer("STATS").payload, "correlation_bytes"),
            StrPrintf("correlation_bytes %llu",
                      static_cast<unsigned long long>(3 * per)));
}

TEST_F(ServiceTest, FirstCorrelationFromManyThreadsBuildsInputsOnce) {
  // A fresh service: nothing is loaded or ranked yet.
  StatusOr<std::unique_ptr<QueryService>> opened = QueryService::Open(root_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  QueryService* service = opened.value().get();

  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::vector<std::string> replies(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      replies[t] = service->HandleLine("CORRELATION ba-test KC MIX");
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(replies[t], replies[0]);
  StatusOr<ResponseFrame> frame = DecodeResponseFrame(replies[0]);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().wire_code, kWireOk);
  EXPECT_EQ(service->stats().correlation_bytes,
            2 * CorrelationBytes(kc_.field_values.size()));
  EXPECT_EQ(service->stats().artifacts_loaded, 2u);
}

TEST_F(ServiceTest, CorrelationOfFieldlessTreesOverDifferentSpaces) {
  // Two field-less artifacts have equal (empty) fields, so only their
  // trees show the element spaces differ.
  Rng rng(11);
  const Graph small = BarabasiAlbert(40, 3, &rng);
  std::vector<uint32_t> degrees(small.NumVertices());
  for (uint32_t v = 0; v < small.NumVertices(); ++v) {
    degrees[v] = small.Degree(v);
  }
  TreeArtifact bare_small = BuildArtifact(
      small, VertexScalarField::FromCounts("BARE40", degrees));
  bare_small.field_values.clear();
  TreeArtifact bare_kc = kc_;
  bare_kc.field_values.clear();
  {
    StatusOr<ArtifactCache> cache = ArtifactCache::Open(root_);
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    ASSERT_TRUE(
        cache.value().Put(ArtifactKey{"ba-test", "BARE40"}, bare_small).ok());
    ASSERT_TRUE(
        cache.value().Put(ArtifactKey{"ba-test", "BAREKC"}, bare_kc).ok());
  }
  StatusOr<std::unique_ptr<QueryService>> opened = QueryService::Open(root_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  service_ = std::move(opened).value();

  const ResponseFrame mismatched = Answer("CORRELATION ba-test BARE40 BAREKC");
  EXPECT_EQ(mismatched.wire_code, kWireInvalidArgument);
  EXPECT_NE(mismatched.payload.find("different element spaces"),
            std::string::npos)
      << mismatched.payload;
  // Same space, no fields: the value rows are the degenerate 0.
  const ResponseFrame same = Answer("CORRELATION ba-test BAREKC BAREKC");
  ASSERT_EQ(same.wire_code, kWireOk);
  EXPECT_EQ(same.payload,
            "pearson 0\nspearman 0\ntop_peak_jaccard10 1\n");
}

TEST_F(ServiceTest, MissingArtifactIsNotFound) {
  EXPECT_EQ(Answer("TREE nope KC").wire_code, kWireNotFound);
  EXPECT_EQ(Answer("PEAKS ba-test KT 1").wire_code, kWireNotFound);
}

TEST_F(ServiceTest, MalformedLineIsInvalidArgumentFrame) {
  EXPECT_EQ(Answer("FROB ba-test KC").wire_code, kWireInvalidArgument);
  EXPECT_EQ(Answer("TREE ba-test").wire_code, kWireInvalidArgument);
  EXPECT_EQ(Answer("PEAKS ba-test KC nan").wire_code, kWireInvalidArgument);
}

TEST_F(ServiceTest, TileRendersPpmAndSecondRequestHitsTheLru) {
  const ResponseFrame first = Answer("TILE ba-test KC 225 42 128 96");
  ASSERT_EQ(first.wire_code, kWireOk) << first.payload;
  EXPECT_EQ(first.payload.rfind("P6\n128 96\n255\n", 0), 0u);
  EXPECT_EQ(first.payload.size(),
            std::string("P6\n128 96\n255\n").size() + 3u * 128u * 96u);
  EXPECT_EQ(service_->stats().tiles_rendered, 1u);

  const ResponseFrame second = Answer("TILE ba-test KC 225 42 128 96");
  ASSERT_EQ(second.wire_code, kWireOk);
  EXPECT_EQ(second.payload, first.payload);
  EXPECT_EQ(service_->stats().tiles_rendered, 1u);  // served from the LRU
  EXPECT_GE(service_->tile_stats().hits, 1u);

  // A different camera is a different tile.
  const ResponseFrame third = Answer("TILE ba-test KC 45 42 128 96");
  ASSERT_EQ(third.wire_code, kWireOk);
  EXPECT_EQ(service_->stats().tiles_rendered, 2u);
}

TEST_F(ServiceTest, TileDimensionLimitsAreInvalidArgument) {
  EXPECT_EQ(Answer("TILE ba-test KC 225 42 0 96").wire_code,
            kWireInvalidArgument);
  EXPECT_EQ(Answer("TILE ba-test KC 225 42 128 99999").wire_code,
            kWireInvalidArgument);
}

TEST_F(ServiceTest, RenderFailpointSurfacesAsUnavailable) {
  failpoint::ScopedFailpoint armed("service/render", failpoint::Spec::Always());
  const ResponseFrame frame = Answer("TILE ba-test KC 135 42 128 96");
  EXPECT_EQ(frame.wire_code, kWireUnavailable);
  EXPECT_EQ(service_->stats().tiles_rendered, 0u);
}

TEST_F(ServiceTest, StatsReportsCountersAndCorpusKeys) {
  (void)Answer("TREE ba-test KC");
  (void)Answer("TREE nope KC");
  const ResponseFrame frame = Answer("STATS");
  ASSERT_EQ(frame.wire_code, kWireOk);
  EXPECT_NE(frame.payload.find("requests 3"), std::string::npos)
      << frame.payload;
  EXPECT_NE(frame.payload.find("errors 1"), std::string::npos);
  EXPECT_NE(frame.payload.find("artifacts_loaded 1"), std::string::npos);
  // The corpus-discovery lines the load generator depends on.
  EXPECT_NE(frame.payload.find("key ba-test/KC"), std::string::npos);
  EXPECT_NE(frame.payload.find("key ba-test/DEG"), std::string::npos);
  EXPECT_NE(frame.payload.find("key ba-test/MIX"), std::string::npos);
}

// ------------------------------------------------- loopback transport --

class ServiceLoopbackTest : public ServiceTest {
 protected:
  void SetUp() override {
    ServiceTest::SetUp();
    ServiceServer::Options options;
    options.port = 0;  // ephemeral
    options.num_threads = 4;
    server_ = std::make_unique<ServiceServer>(service_.get(), options);
    const Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  std::unique_ptr<ServiceServer> server_;
};

TEST_F(ServiceLoopbackTest, TreeOverTheSocketIsByteIdentical) {
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  StatusOr<ResponseFrame> frame = client.Roundtrip("TREE ba-test KC");
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame.value().wire_code, kWireOk);
  StatusOr<std::string> expected = SerializeTreeArtifact(kc_);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(frame.value().payload, expected.value());
}

TEST_F(ServiceLoopbackTest, OneConnectionServesManySequentialRequests) {
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  for (const char* line : {"STATS", "PEAKS ba-test KC 1.5",
                           "TOPPEAKS ba-test DEG 3", "MEMBERS ba-test KC 0",
                           "CORRELATION ba-test KC DEG"}) {
    StatusOr<ResponseFrame> frame = client.Roundtrip(line);
    ASSERT_TRUE(frame.ok()) << line << ": " << frame.status().ToString();
    EXPECT_EQ(frame.value().wire_code, kWireOk) << line;
  }
}

TEST_F(ServiceLoopbackTest, ServerErrorsDoNotPoisonTheConnection) {
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  StatusOr<ResponseFrame> bad = client.Roundtrip("TREE nope KC");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad.value().wire_code, kWireNotFound);
  // The very same connection keeps working afterwards.
  StatusOr<ResponseFrame> good = client.Roundtrip("STATS");
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().wire_code, kWireOk);
}

TEST_F(ServiceLoopbackTest, OversizedLineGetsOneErrorFrameThenHangup) {
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  StatusOr<ResponseFrame> frame =
      client.Roundtrip(std::string(kMaxRequestLine + 10, 'x'));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().wire_code, kWireInvalidArgument);
  // The oversized line cannot be resynchronized, so the server hung up.
  StatusOr<ResponseFrame> after = client.Roundtrip("STATS");
  EXPECT_FALSE(after.ok());
}

TEST_F(ServiceLoopbackTest, AcceptFailpointAnswersUnavailableAndCloses) {
  failpoint::ScopedFailpoint armed("service/accept", failpoint::Spec::Always());
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  StatusOr<ResponseFrame> frame = client.Roundtrip("STATS");
  // The server wrote one UNAVAILABLE frame at accept time and closed;
  // depending on timing the client sees that frame or the hangup.
  if (frame.ok()) {
    EXPECT_EQ(frame.value().wire_code, kWireUnavailable);
  }
  EXPECT_GE(armed.fire_count(), 1u);
}

TEST_F(ServiceLoopbackTest, ConcurrentClientsAllGetConsistentAnswers) {
  StatusOr<std::string> expected_bytes = SerializeTreeArtifact(kc_);
  ASSERT_TRUE(expected_bytes.ok());
  const std::string& expected = expected_bytes.value();

  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      BlockingClient client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 25; ++i) {
        const int pick = (t + i) % 3;
        const std::string line = pick == 0   ? "TREE ba-test KC"
                                 : pick == 1 ? "PEAKS ba-test DEG 2"
                                             : "TILE ba-test KC 225 42 96 64";
        StatusOr<ResponseFrame> frame = client.Roundtrip(line);
        if (!frame.ok() || frame.value().wire_code != kWireOk) {
          ++failures;
          continue;
        }
        if (pick == 0 && frame.value().payload != expected) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
  const ServiceStats stats = service_->stats();
  EXPECT_EQ(stats.requests, 6u * 25u);
  EXPECT_EQ(stats.errors, 0u);
  // All 150 requests touched one artifact pair loaded exactly once each.
  EXPECT_LE(stats.artifacts_loaded, 2u);
}

}  // namespace
}  // namespace service
}  // namespace graphscape

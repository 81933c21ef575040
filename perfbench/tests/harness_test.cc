// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Self-test of the benchmark harness (perfbench/src/harness.h): the
// percentile rule, failure counting, span bookkeeping and the seeded
// request generator. perfbench/run.py runs it before every benchmark run.

#include "harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "service/wire.h"

namespace perfbench {
namespace {

using graphscape::Status;
using graphscape::service::ParseRequestLine;
using graphscape::service::Verb;

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = OneTo(100);
  EXPECT_EQ(Quantile(v, 0.50), 50.0);
  EXPECT_EQ(Quantile(v, 0.99), 99.0);
  EXPECT_EQ(Quantile(v, 1.0), 100.0);
  EXPECT_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_EQ(Quantile({7.0}, 0.99), 7.0);
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
}

TEST(Percentile, SamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(100, 0.5), 50u);
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0u);
}

TEST(Percentile, VerbTailQuantileIsFixedPerVerb) {
  EXPECT_EQ(VerbTailQuantile(Verb::kTree), 0.75);
  EXPECT_EQ(VerbTailQuantile(Verb::kCorrelation), 0.75);
  EXPECT_EQ(VerbTailQuantile(Verb::kStats), 0.90);
  for (const Verb verb :
       {Verb::kPeaks, Verb::kTopPeaks, Verb::kMembers, Verb::kTile}) {
    EXPECT_EQ(VerbTailQuantile(verb), 0.95) << VerbKey(verb);
  }
  EXPECT_EQ(QuantileName(0.75), "p75");
  EXPECT_EQ(QuantileName(0.90), "p90");
  EXPECT_EQ(QuantileName(0.95), "p95");
  EXPECT_EQ(QuantileName(0.99), "p99");
  EXPECT_EQ(QuantileName(0.5), "p50");
  // The quantile does not follow the sample count; the count decides
  // whether the run passes its check.
  const LatencySummary few = Summarize(OneTo(39), 0.75);
  EXPECT_EQ(few.tail, 30.0);
  EXPECT_EQ(few.beyond_tail, 9u);
  EXPECT_LT(few.beyond_tail, kMinSamplesBeyond);
  const LatencySummary enough = Summarize(OneTo(40), 0.75);
  EXPECT_EQ(enough.tail, 30.0);
  EXPECT_EQ(enough.beyond_tail, kMinSamplesBeyond);
  EXPECT_EQ(Summarize(OneTo(199), 0.95).beyond_tail, 9u);
  EXPECT_EQ(Summarize(OneTo(200), 0.95).beyond_tail, 10u);
}

TEST(Percentile, SummarizeSortsAndCounts) {
  std::vector<double> v = OneTo(2000);
  std::reverse(v.begin(), v.end());
  const LatencySummary s = Summarize(v);
  EXPECT_EQ(s.count, 2000u);
  EXPECT_EQ(s.p50, 1000.0);
  EXPECT_EQ(s.p99, 1980.0);
  EXPECT_EQ(s.beyond_p99, 20u);
  EXPECT_EQ(s.tail, 1980.0);  // the default tail is p99
  EXPECT_EQ(s.beyond_tail, 20u);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

TEST(Percentile, MedianOfGroupMediansStaysOutOfTheGap) {
  // Two artifacts with well-separated read times: one Median over all six
  // samples is the slowest fast read; per-artifact medians are not moved
  // by it.
  const std::map<std::string, std::vector<double>> two = {
      {"kc", {30.0, 31.0, 45.0}}, {"pr", {92.0, 90.0, 91.0}}};
  EXPECT_EQ(Median({30.0, 31.0, 45.0, 92.0, 90.0, 91.0}), 45.0);
  EXPECT_EQ(MedianOfGroupMedians(two), 0.5 * (31.0 + 91.0));
  const std::map<std::string, std::vector<double>> three = {
      {"kc", {30.0}}, {"kt", {110.0, 100.0}}, {"pr", {70.0, 75.0, 72.0}}};
  EXPECT_EQ(MedianOfGroupMedians(three), 72.0);
  EXPECT_EQ(MedianOfGroupMedians({}), 0.0);
}

TEST(Tally, CountsAttemptsAndFailures) {
  Tally tally;
  EXPECT_FALSE(tally.correct());  // nothing attempted is not a pass
  EXPECT_TRUE(tally.Record(true, "fine"));
  EXPECT_TRUE(tally.correct());
  EXPECT_FALSE(tally.Record(false, "broken check"));
  EXPECT_FALSE(tally.RecordStatus(Status::DataLoss("torn"), "get"));
  EXPECT_TRUE(tally.RecordStatus(Status::Ok(), "put"));
  EXPECT_EQ(tally.attempted(), 4u);
  EXPECT_EQ(tally.failed(), 2u);
  EXPECT_FALSE(tally.correct());
  const std::vector<std::string> messages = tally.messages();
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_EQ(messages[0], "broken check");
  EXPECT_NE(messages[1].find("get: "), std::string::npos);
  EXPECT_NE(messages[1].find("torn"), std::string::npos);
}

TEST(Tally, IsSafeAcrossThreads) {
  Tally tally;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&tally, t] {
      for (int i = 0; i < 1000; ++i) tally.Record(i % 100 != t, "x");
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(tally.attempted(), 4000u);
  EXPECT_EQ(tally.failed(), 40u);
  EXPECT_EQ(tally.messages().size(), 20u);  // capped
}

TEST(Tracer, DisarmedRecordsNothing) {
  Tracer tracer;
  { Tracer::Span span(&tracer, "a"); }
  EXPECT_TRUE(tracer.Spans().empty());
}

TEST(Tracer, NestsPerThreadAndKeepsRequestIds) {
  Tracer tracer;
  tracer.Arm(true);
  {
    Tracer::Span root(&tracer, "root", 7, true);
    { Tracer::Span child(&tracer, "child"); }
    { Tracer::Span child(&tracer, "child"); }
  }
  { Tracer::Span other(&tracer, "other", 8); }
  const std::vector<SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[0].request_id, 7u);
  EXPECT_GE(spans[0].cpu_ns, 0);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[1].cpu_ns, -1);
  EXPECT_EQ(spans[3].parent, -1);
  EXPECT_EQ(spans[3].request_id, 8u);
  for (const SpanRecord& span : spans) EXPECT_LE(span.start_ns, span.end_ns);
}

TEST(Tracer, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<SpanRecord> spans(4);
  spans[0] = {"root", 0, 100, -1, -1, 0, 0};
  spans[1] = {"a", 10, 40, -1, 0, 0, 0};
  spans[2] = {"b", 30, 60, -1, 0, 0, 0};   // overlaps a: union is 10..60
  spans[3] = {"c", 90, 130, -1, 0, 0, 0};  // clipped to the root's end
  const std::vector<double> self = Tracer::SelfSeconds(spans);
  EXPECT_DOUBLE_EQ(self[0], 1e-9 * (100 - 50 - 10));
  EXPECT_DOUBLE_EQ(self[1], 1e-9 * 30);
  EXPECT_DOUBLE_EQ(self[3], 1e-9 * 40);
}

TEST(Tracer, ChildSecondsSumsPerRoot) {
  std::vector<SpanRecord> spans = {
      {"build", 0, 100, 50, -1, 0, 0}, {"x", 0, 10, 5, 0, 0, 0},
      {"x", 20, 30, 5, 0, 0, 0},       {"build", 200, 300, 50, -1, 1, 0},
      {"y", 200, 240, 5, 3, 1, 0},     {"other", 0, 5, 1, -1, 0, 0},
  };
  const auto wall = Tracer::ChildSeconds(spans, "build", false);
  ASSERT_EQ(wall.at("x").size(), 2u);
  EXPECT_DOUBLE_EQ(wall.at("x")[0], 20e-9);
  EXPECT_DOUBLE_EQ(wall.at("x")[1], 0.0);
  EXPECT_DOUBLE_EQ(wall.at("y")[1], 40e-9);
  const auto cpu = Tracer::ChildSeconds(spans, "build", true);
  EXPECT_DOUBLE_EQ(cpu.at("x")[0], 10e-9);
  EXPECT_EQ(wall.count("other"), 0u);
}

CorpusSummary TestCorpus() {
  CorpusSummary corpus;
  corpus.dataset = "test-ds";
  corpus.fields = {{"KC", 40, {1, 2, 3, 4, 5, 6}},
                   {"PR", 900, {0.1, 0.2, 0.3, 0.4, 0.5, 0.6}},
                   {"KT", 1200, {2, 3, 4, 5, 6, 7}}};
  corpus.correlatable = {"KC", "PR"};
  return corpus;
}

TEST(RequestStream, SameSeedSameLines) {
  const CorpusSummary corpus = TestCorpus();
  RequestStream a(corpus, 42, 0), b(corpus, 42, 0);
  RequestStream c(corpus, 42, 1), d(corpus, 43, 0);
  size_t differ_index = 0, differ_seed = 0;
  for (int i = 0; i < 2000; ++i) {
    const GeneratedRequest ra = a.Next(), rb = b.Next();
    EXPECT_EQ(ra.line, rb.line);
    EXPECT_EQ(ra.verb, rb.verb);
    differ_index += ra.line != c.Next().line;
    differ_seed += ra.line != d.Next().line;
  }
  EXPECT_GT(differ_index, 1000u);
  EXPECT_GT(differ_seed, 1000u);
}

TEST(RequestStream, LinesParseAndFollowTheMix) {
  const CorpusSummary corpus = TestCorpus();
  RequestStream stream(corpus, 7, 0);
  std::map<Verb, size_t> counts;
  std::map<std::pair<Verb, std::string>, size_t> by_field;
  std::set<std::string> tiles;
  std::set<uint32_t> top_k;
  std::map<std::string, std::set<double>> levels;
  size_t low_azimuth = 0, tile_count = 0;
  constexpr size_t kDraws = 300 * 100;  // 100 blocks of 100 x 3 fields
  for (size_t i = 0; i < kDraws; ++i) {
    const GeneratedRequest request = stream.Next();
    const auto parsed = ParseRequestLine(request.line);
    ASSERT_TRUE(parsed.ok()) << request.line;
    EXPECT_EQ(parsed.value().verb, request.verb);
    ++counts[request.verb];
    const auto& r = parsed.value();
    ++by_field[{request.verb, r.field}];
    const FieldSummary* field = nullptr;
    for (const FieldSummary& f : corpus.fields) {
      if (f.name == r.field) field = &f;
    }
    if (request.verb == Verb::kMembers) {
      ASSERT_NE(field, nullptr);
      EXPECT_LT(r.node, field->nodes);
    }
    if (request.verb == Verb::kPeaks) {
      ASSERT_NE(field, nullptr);
      EXPECT_NE(std::find(field->levels.begin(), field->levels.end(), r.level),
                field->levels.end())
          << request.line;
      levels[r.field].insert(r.level);
    }
    if (request.verb == Verb::kTopPeaks) {
      EXPECT_GE(r.k, 1u);
      EXPECT_LE(r.k, kTopPeaksMax);
      top_k.insert(r.k);
    }
    if (request.verb == Verb::kCorrelation) {
      EXPECT_NE(r.field, r.field_b);
      EXPECT_NE(r.field, "KT");
      EXPECT_NE(r.field_b, "KT");
    }
    if (request.verb == Verb::kTile) {
      EXPECT_GE(r.azimuth_deg, 0.0);
      EXPECT_LT(r.azimuth_deg, 360.0);
      EXPECT_EQ(r.width, kTileWidth);
      EXPECT_EQ(r.height, kTileHeight);
      low_azimuth += r.azimuth_deg < 90.0;
      ++tile_count;
      tiles.insert(request.line);
    }
  }
  // kDraws is a whole number of blocks: exact verb and field proportions.
  uint32_t total_weight = 0;
  for (const VerbWeight& w : ServeMix()) total_weight += w.weight;
  ASSERT_EQ(total_weight, 100u);
  for (const VerbWeight& w : ServeMix()) {
    EXPECT_EQ(counts[w.verb], kDraws / 100 * w.weight) << VerbKey(w.verb);
  }
  for (const Verb verb : {Verb::kPeaks, Verb::kMembers, Verb::kTile}) {
    for (const FieldSummary& f : corpus.fields) {
      const size_t n = by_field[std::make_pair(verb, f.name)];
      EXPECT_EQ(n, counts[verb] / 3) << f.name;
    }
  }
  // Skewed azimuths: P(azimuth < 90) = (1/4)^(1/3) ~ 0.63, and the tail
  // still reaches hundreds of distinct tiles, so the LRU both hits and
  // evicts.
  EXPECT_GT(static_cast<double>(low_azimuth) / tile_count, 0.55);
  EXPECT_GT(tiles.size(), 500u);
  // Uniform draws reach every TOPPEAKS k and every PEAKS level.
  EXPECT_EQ(top_k.size(), kTopPeaksMax);
  for (const FieldSummary& f : corpus.fields) {
    EXPECT_EQ(levels[f.name].size(), f.levels.size()) << f.name;
  }
}

TEST(CanonicalReply, MasksStatsCounters) {
  const std::string a = "version 1\nrequests 10\nok 9\nkey d/KC\nkey d/PR\n";
  const std::string b = "version 1\nrequests 99\nok 98\nkey d/KC\nkey d/PR\n";
  EXPECT_EQ(CanonicalReply(Verb::kStats, a), CanonicalReply(Verb::kStats, b));
  EXPECT_EQ(CanonicalReply(Verb::kStats, a), "version 1\nkey d/KC\nkey d/PR\n");
  EXPECT_NE(CanonicalReply(Verb::kStats, a),
            CanonicalReply(Verb::kStats, "version 1\nkey d/KC\n"));
  EXPECT_EQ(CanonicalReply(Verb::kPeaks, a), a);
}

TEST(MetricSet, RendersJsonAndTraceOverhead) {
  MetricSet m;
  m.Set("build_s", 1.0 / 3.0, "s");
  m.Set("gen.vertices", 943692, "count");
  m.Set("build_s", 0.25, "s");  // overwrite keeps the slot
  EXPECT_EQ(m.ToJson(),
            "{\"build_s\": {\"value\": 0.25, \"unit\": \"s\"}, "
            "\"gen.vertices\": {\"value\": 943692, \"unit\": \"count\"}}");
  MetricSet third;
  third.Set("x", 1.0 / 3.0, "s");
  EXPECT_NE(third.ToJson().find("0.33333333333333331"), std::string::npos);
  EXPECT_EQ(JsonString("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");

  MetricSet untraced, traced, layers;
  untraced.Set("build_s", 3.0, "s");
  untraced.Set("qps", 10.0, "req/s");
  traced.Set("build_s", 3.25, "s");
  AddTraceOverhead(untraced, traced, &layers);
  ASSERT_EQ(layers.items().size(), 1u);  // qps has no traced value
  EXPECT_EQ(layers.items()[0].name, "trace.overhead.build_s");
  EXPECT_EQ(layers.items()[0].value, 0.25);
  EXPECT_EQ(layers.items()[0].unit, "s");
}

}  // namespace
}  // namespace perfbench

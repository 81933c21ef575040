// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// The benchmark's own harness: everything the workloads share that is
// not a call into graphscape itself.
//
//   * Percentile selection with the sample-count rule: a tail quantile
//     counts only where at least kMinSamplesBeyond samples lie above it.
//   * Tally: operations attempted and failed. A non-OK Status, a failed
//     output check, a non-OK reply frame and a transport error all count
//     as one failed operation.
//   * Tracer: spans recorded from the benchmark's code around each call
//     into a graphscape module (name, start, end, parent, request id,
//     process CPU time), kept in memory and written out at the end as
//     trace-event JSON. Disarmed, a span costs one relaxed atomic load.
//   * RequestStream: the seeded serve-mixed request generator. The same
//     corpus summary, seed and stream index give the same lines.
//   * Small probes: resident and peak memory, process CPU time, machine
//     context, directory sizes.
//
// perfbench/tests/harness_test.cc is the self-test for this file.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "service/wire.h"

namespace perfbench {

// ------------------------------------------------------------ percentiles --

/// A tail percentile needs at least this many samples strictly above it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank quantile of an ascending sample: the value at rank
/// ceil(q * n), 1-based, clamped to [1, n]. 0 for an empty sample.
double Quantile(const std::vector<double>& sorted, double q);

/// Samples strictly above the nearest-rank q quantile: n - ceil(q * n).
size_t SamplesBeyond(size_t n, double q);

/// "p75", "p95", "p99": the metric-name suffix of quantile q.
std::string QuantileName(double q);

struct LatencySummary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  size_t beyond_p99 = 0;   ///< samples above p99; the rule wants >= 10
  double tail = 0.0;       ///< value at the tail quantile asked for
  size_t beyond_tail = 0;  ///< samples above tail; the rule wants >= 10
};

/// Sorts a copy of `samples` and summarizes it, with `tail_q` as its tail.
LatencySummary Summarize(std::vector<double> samples, double tail_q = 0.99);

/// Median of an unsorted sample (nearest-rank, lower middle); 0 if empty.
double Median(std::vector<double> samples);

/// Median over groups of each group's Median: the middle group median,
/// or the mean of the two middle ones when the count of groups is even;
/// 0 if there are no groups. Groups whose samples form separate clusters
/// (one group per artifact, say) never let the result fall in the gap
/// between two clusters, as one Median over all samples would.
double MedianOfGroupMedians(
    const std::map<std::string, std::vector<double>>& groups);

// ------------------------------------------------------------------ tally --

/// Operations attempted and failed, safe to share between threads.
class Tally {
 public:
  /// Counts one attempted operation; a false `ok` also counts it failed
  /// and keeps `what` (the first few messages only) for the report.
  bool Record(bool ok, const std::string& what);
  /// Record(status.ok(), what + ": " + status message).
  bool RecordStatus(const graphscape::Status& status, const std::string& what);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  bool correct() const { return failed() == 0 && attempted() > 0; }
  std::vector<std::string> messages() const;

 private:
  static constexpr size_t kMaxMessages = 20;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> messages_;  // guarded by mu_
};

// ----------------------------------------------------------------- tracer --

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;  ///< steady clock, relative to the tracer's epoch
  int64_t end_ns = 0;
  int64_t cpu_ns = -1;   ///< process CPU time during the span; -1 = not kept
  int32_t parent = -1;   ///< index of the enclosing span on the same thread
  uint64_t request_id = 0;
  uint32_t thread = 0;   ///< small per-thread index, stable within a run

  double Seconds() const {
    return 1e-9 * static_cast<double>(end_ns - start_ns);
  }
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Arm(bool armed) { armed_.store(armed, std::memory_order_relaxed); }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// RAII span. When the tracer is disarmed it records nothing. Spans
  /// nest per thread: a span opened while another is open on the same
  /// thread becomes its child.
  class Span {
   public:
    Span(Tracer* tracer, const char* name, uint64_t request_id = 0,
         bool cpu = false);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // null when disarmed at construction
    int32_t index_ = -1;
    int32_t saved_parent_ = -1;
    bool cpu_ = false;
    int64_t cpu_start_ns_ = 0;
  };

  std::vector<SpanRecord> Spans() const;

  /// Self time of span i: its duration minus the part of its interval
  /// covered by its children.
  static std::vector<double> SelfSeconds(const std::vector<SpanRecord>& spans);

  /// For every span named `root`, the summed duration (or CPU time) of
  /// its direct children by name: result[child_name][k] belongs to the
  /// k-th such root. A child name absent under one root reads 0 there.
  static std::map<std::string, std::vector<double>> ChildSeconds(
      const std::vector<SpanRecord>& spans, const std::string& root,
      bool cpu);

  /// Writes every span as a trace-event JSON "X" event, with parent,
  /// request id, self time and CPU time in its args.
  graphscape::Status WriteTraceEvents(const std::string& path) const;

 private:
  int64_t NowNs() const;

  std::atomic<bool> armed_{false};
  const int64_t epoch_ns_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

// --------------------------------------------------------- request stream --

/// What the request generator needs to know about one corpus artifact.
struct FieldSummary {
  std::string name;            ///< field key, e.g. "KC"
  uint32_t nodes = 0;          ///< super-tree nodes (MEMBERS range)
  /// PEAKS levels: the element-value quantiles k / kPeakLevelSteps for
  /// k = 0..kPeakLevelSteps, so a uniform pick is a uniform quantile.
  std::vector<double> levels;
};

struct CorpusSummary {
  std::string dataset;
  std::vector<FieldSummary> fields;
  /// Vertex fields that CORRELATION may pair (same element space).
  std::vector<std::string> correlatable;
};

/// One verb's share of the mix, in parts of the summed weights.
struct VerbWeight {
  graphscape::service::Verb verb;
  uint32_t weight;
};

/// PEAKS 25, TOPPEAKS 20, MEMBERS 15, TILE 30, STATS 5, CORRELATION 3,
/// TREE 2: the suggested dashboard mix with 5 parts moved from STATS to
/// TILE. With STATS at 10 and TILE at 25, exactly half the replies
/// (STATS; PEAKS and TOPPEAKS on the small KC and KT trees; MEMBERS on
/// KT and PR, whose nodes are small) came back in under 0.4 ms, the
/// PR-field PEAKS and TOPPEAKS scans from about 0.47 ms on, and p50 sat
/// in the sparse gap between the two groups, swinging 23% (IQR/median)
/// over ten seeds on a shared 4-vCPU Xeon.
const std::vector<VerbWeight>& ServeMix();

/// The tail quantile reported for one verb's latency: the highest of p99,
/// p95, p90 and p75 that leaves more than kMinSamplesBeyond samples
/// beyond it at 350 replies/s, the low end of the measured rate, in a
/// 10 s traced half. That is p75 for TREE and CORRELATION (about 70 and
/// 105 requests), p90 for STATS (about 175) and p95 for the rest. It is
/// fixed per verb so a metric name means the same quantile on every run;
/// a run that leaves fewer than kMinSamplesBeyond samples beyond it fails
/// its check instead.
double VerbTailQuantile(graphscape::service::Verb verb);

// Request parameters. Where the repository's own load generators
// (tools/graphscape_load.cc, bench/bench_service_qps.cpp) fix a choice it
// is taken from there; the rest are plain uniform draws, except the
// TILE azimuth skew, which is an assumption (perfbench/metric_map.json,
// "serve_parameters").

/// Fixed TILE camera and size; only azimuth and field vary per request.
/// Elevation 42 is the load generators' camera. 320x240 is assumed: at
/// that size the 3 x 360 distinct tiles overflow the service's default
/// 64 MiB tile LRU, so it evicts as well as hits.
inline constexpr double kTileElevationDeg = 42.0;
inline constexpr uint32_t kTileWidth = 320;
inline constexpr uint32_t kTileHeight = 240;
/// PEAKS level: a uniform pick of the kPeakLevelSteps + 1 quantiles.
inline constexpr uint32_t kPeakLevelSteps = 1000;
/// TOPPEAKS k: uniform over 1..kTopPeaksMax, as the load generators draw it.
inline constexpr uint32_t kTopPeaksMax = 16;
// MEMBERS node: uniform over the field's super-tree nodes.

/// Skewed tile azimuth in [0, 360): floor(360 * u^3), so low azimuths
/// repeat (LRU hits) and the long tail keeps rendering and evicting.
uint32_t SkewedAzimuth(graphscape::Rng* rng);

struct GeneratedRequest {
  graphscape::service::Verb verb;
  std::string line;
};

/// A deterministic request stream: stream `index` of `seed` over `corpus`.
/// Requests come in blocks holding every (verb, field) pair exactly
/// weight times (100 x fields requests), in seeded random order, so every
/// stream, whatever its seed, has the mix's exact verb and field
/// proportions at each block boundary; parameters are drawn per request.
class RequestStream {
 public:
  RequestStream(const CorpusSummary& corpus, uint64_t seed, uint32_t index);
  GeneratedRequest Next();

 private:
  const CorpusSummary& corpus_;
  graphscape::Rng rng_;
  std::vector<std::pair<graphscape::service::Verb, uint32_t>> block_;
  size_t next_ = 0;
};

/// The part of a reply payload that must equal a fresh service's answer
/// to the same line: all of it, except that STATS keeps only its
/// "version" and "key" lines, since its counters depend on timing.
std::string CanonicalReply(graphscape::service::Verb verb,
                           const std::string& payload);

/// Lower-case verb name for metric names ("peaks", "tile", ...).
std::string VerbKey(graphscape::service::Verb verb);
/// Every verb, grammar order.
const std::vector<graphscape::service::Verb>& AllVerbs();

// ----------------------------------------------------------------- probes --

/// Peak resident set of this process so far (getrusage ru_maxrss), MiB.
double PeakRssMib();
/// Returns free heap to the OS (malloc_trim), then restarts the kernel's
/// peak resident set count (VmHWM) at the current resident set by writing
/// "5" to /proc/self/clear_refs. False where that file cannot be written.
bool ResetPeakRss();
/// Peak resident set since the last ResetPeakRss (VmHWM in
/// /proc/self/status), MiB; 0 where unavailable.
double PeakRssSinceResetMib();
/// Resident set now (/proc/self/statm), MiB; 0 where unavailable.
double CurrentRssMib();
/// CPU time of the whole process (all threads), ns.
int64_t ProcessCpuNs();

/// Total bytes of regular files under `dir`, recursively.
uint64_t DirectoryBytes(const std::string& dir);

/// Logical CPUs online as the OS reports them, CPU model string.
uint32_t LogicalCpus();
std::string CpuModel();

/// rss.after_<stage>_mib: the largest resident set seen right after each
/// named pipeline stage returned, in first-seen stage order.
struct RssByStage {
  std::vector<std::pair<std::string, double>> max_mib;
  void Note(const std::string& stage);
};

// --------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered name -> (value, unit) list with a JSON rendering.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }
  /// {"name": {"value": v, "unit": "u"}, ...} with %.17g values.
  std::string ToJson() const;

 private:
  std::vector<Metric> items_;
};

/// Sets trace.overhead.<name> = traced - untraced in `layers` for every
/// metric of `untraced` that `traced` also has, in the metric's own unit.
void AddTraceOverhead(const MetricSet& untraced, const MetricSet& traced,
                      MetricSet* layers);

/// JSON string literal for `s` (quotes and escapes).
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/string_util.h"

namespace perfbench {

using graphscape::Rng;
using graphscape::Status;
using graphscape::StrPrintf;
using graphscape::service::Verb;

// ------------------------------------------------------------ percentiles --

namespace {

size_t NearestRank(size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n));
  if (rank < 1.0) return 1;
  if (rank > static_cast<double>(n)) return n;
  return static_cast<size_t>(rank);
}

}  // namespace

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRank(sorted.size(), q) - 1];
}

size_t SamplesBeyond(size_t n, double q) { return n - NearestRank(n, q); }

std::string QuantileName(double q) {
  return StrPrintf("p%02d", static_cast<int>(std::lround(100.0 * q)));
}

LatencySummary Summarize(std::vector<double> samples, double tail_q) {
  std::sort(samples.begin(), samples.end());
  LatencySummary s;
  s.count = samples.size();
  s.p50 = Quantile(samples, 0.50);
  s.p99 = Quantile(samples, 0.99);
  s.beyond_p99 = SamplesBeyond(samples.size(), 0.99);
  s.tail = Quantile(samples, tail_q);
  s.beyond_tail = SamplesBeyond(samples.size(), tail_q);
  return s;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return Quantile(samples, 0.5);
}

double MedianOfGroupMedians(
    const std::map<std::string, std::vector<double>>& groups) {
  std::vector<double> medians;
  for (const auto& [name, samples] : groups) medians.push_back(Median(samples));
  if (medians.empty()) return 0.0;
  std::sort(medians.begin(), medians.end());
  const size_t mid = medians.size() / 2;
  if (medians.size() % 2 == 1) return medians[mid];
  return 0.5 * (medians[mid - 1] + medians[mid]);
}

// ------------------------------------------------------------------ tally --

bool Tally::Record(bool ok, const std::string& what) {
  attempted_.fetch_add(1);
  if (ok) return true;
  failed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (messages_.size() < kMaxMessages) messages_.push_back(what);
  return false;
}

bool Tally::RecordStatus(const Status& status, const std::string& what) {
  return Record(status.ok(),
                status.ok() ? what : what + ": " + status.ToString());
}

std::vector<std::string> Tally::messages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return messages_;
}

// ----------------------------------------------------------------- tracer --

namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local int32_t t_open_span = -1;

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer::Tracer() : epoch_ns_(SteadyNs()) {}

int64_t Tracer::NowNs() const { return SteadyNs() - epoch_ns_; }

Tracer::Span::Span(Tracer* tracer, const char* name, uint64_t request_id,
                   bool cpu) {
  if (!tracer->armed()) return;
  tracer_ = tracer;
  cpu_ = cpu;
  SpanRecord record;
  record.name = name;
  record.parent = t_open_span;
  record.request_id = request_id;
  record.thread = ThreadIndex();
  if (cpu_) cpu_start_ns_ = ProcessCpuNs();
  record.start_ns = tracer->NowNs();
  {
    std::lock_guard<std::mutex> lock(tracer->mu_);
    index_ = static_cast<int32_t>(tracer->spans_.size());
    tracer->spans_.push_back(std::move(record));
  }
  saved_parent_ = t_open_span;
  t_open_span = index_;
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const int64_t end = tracer_->NowNs();
  const int64_t cpu = cpu_ ? ProcessCpuNs() - cpu_start_ns_ : -1;
  t_open_span = saved_parent_;
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  SpanRecord& record = tracer_->spans_[static_cast<size_t>(index_)];
  record.end_ns = end;
  record.cpu_ns = cpu;
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::SelfSeconds(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    int64_t covered = 0;
    int64_t run_start = 0, run_end = -1;
    const int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    for (const auto& kid : kids) {
      const int64_t s = std::max(kid.first, lo), e = std::min(kid.second, hi);
      if (e <= s) continue;
      if (s > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = s;
        run_end = e;
      } else {
        run_end = std::max(run_end, e);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[i] = 1e-9 * static_cast<double>(hi - lo - covered);
  }
  return self;
}

std::map<std::string, std::vector<double>> Tracer::ChildSeconds(
    const std::vector<SpanRecord>& spans, const std::string& root, bool cpu) {
  std::map<int32_t, size_t> root_slot;  // span index -> k
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == root) {
      const size_t k = root_slot.size();
      root_slot[static_cast<int32_t>(i)] = k;
    }
  }
  std::map<std::string, std::vector<double>> out;
  for (const SpanRecord& span : spans) {
    const auto slot = root_slot.find(span.parent);
    if (slot == root_slot.end()) continue;
    std::vector<double>& sums = out[span.name];
    sums.resize(root_slot.size(), 0.0);
    sums[slot->second] += cpu ? 1e-9 * static_cast<double>(span.cpu_ns)
                              : span.Seconds();
  }
  return out;
}

Status Tracer::WriteTraceEvents(const std::string& path) const {
  const std::vector<SpanRecord> spans = Spans();
  const std::vector<double> self = SelfSeconds(spans);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::Unavailable("cannot write " + path);
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(out,
                 "%s{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
                 "\"parent\": %d, \"request_id\": %llu, \"self_us\": %.3f, "
                 "\"cpu_us\": %.3f}}",
                 i == 0 ? "" : ",\n", JsonString(s.name).c_str(), s.thread,
                 1e-3 * static_cast<double>(s.start_ns),
                 1e-3 * static_cast<double>(s.end_ns - s.start_ns), i,
                 s.parent, static_cast<unsigned long long>(s.request_id),
                 1e6 * self[i],
                 s.cpu_ns < 0 ? -1.0 : 1e-3 * static_cast<double>(s.cpu_ns));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0 ? Status::Ok()
                               : Status::Unavailable("cannot close " + path);
}

// --------------------------------------------------------- request stream --

const std::vector<VerbWeight>& ServeMix() {
  static const std::vector<VerbWeight> kMix = {
      {Verb::kPeaks, 25},      {Verb::kTopPeaks, 20}, {Verb::kMembers, 15},
      {Verb::kTile, 30},       {Verb::kStats, 5},     {Verb::kCorrelation, 3},
      {Verb::kTree, 2},
  };
  return kMix;
}

double VerbTailQuantile(Verb verb) {
  switch (verb) {
    case Verb::kTree:
    case Verb::kCorrelation:
      return 0.75;
    case Verb::kStats:
      return 0.90;
    default:
      return 0.95;
  }
}

uint32_t SkewedAzimuth(Rng* rng) {
  const double u = rng->UniformDouble();
  return std::min<uint32_t>(359, static_cast<uint32_t>(360.0 * u * u * u));
}

RequestStream::RequestStream(const CorpusSummary& corpus, uint64_t seed,
                             uint32_t index)
    : corpus_(corpus),
      rng_(seed * 0x9e3779b97f4a7c15ull + 0x5eed0000ull + index) {}

GeneratedRequest RequestStream::Next() {
  if (next_ == block_.size()) {
    block_.clear();
    for (const VerbWeight& entry : ServeMix()) {
      for (uint32_t f = 0; f < corpus_.fields.size(); ++f) {
        block_.insert(block_.end(), entry.weight, {entry.verb, f});
      }
    }
    for (size_t i = block_.size(); i > 1; --i) {  // Fisher-Yates
      const uint32_t j = rng_.UniformInt(static_cast<uint32_t>(i));
      std::swap(block_[i - 1], block_[j]);
    }
    next_ = 0;
  }
  const auto [verb, field_index] = block_[next_++];
  const std::string& dataset = corpus_.dataset;
  const auto pick = [this](size_t n) {
    return rng_.UniformInt(static_cast<uint32_t>(n));
  };
  const FieldSummary& field = corpus_.fields[field_index];
  const char* f = field.name.c_str();
  std::string line;
  switch (verb) {
    case Verb::kPeaks:
      line = StrPrintf("PEAKS %s %s %.17g", dataset.c_str(), f,
                       field.levels[pick(field.levels.size())]);
      break;
    case Verb::kTopPeaks:
      line = StrPrintf("TOPPEAKS %s %s %u", dataset.c_str(), f,
                       1 + rng_.UniformInt(kTopPeaksMax));
      break;
    case Verb::kMembers:
      line = StrPrintf("MEMBERS %s %s %u", dataset.c_str(), f,
                       rng_.UniformInt(field.nodes));
      break;
    case Verb::kTile:
      line = StrPrintf("TILE %s %s %u %.17g %u %u", dataset.c_str(), f,
                       SkewedAzimuth(&rng_), kTileElevationDeg, kTileWidth,
                       kTileHeight);
      break;
    case Verb::kCorrelation: {
      const auto& names = corpus_.correlatable;
      const uint32_t a = rng_.UniformInt(static_cast<uint32_t>(names.size()));
      const uint32_t b =
          (a + 1 + rng_.UniformInt(static_cast<uint32_t>(names.size()) - 1)) %
          static_cast<uint32_t>(names.size());
      line = StrPrintf("CORRELATION %s %s %s", dataset.c_str(),
                       names[a].c_str(), names[b].c_str());
      break;
    }
    case Verb::kTree:
      line = StrPrintf("TREE %s %s", dataset.c_str(), f);
      break;
    case Verb::kStats:
      line = "STATS";
      break;
  }
  return GeneratedRequest{verb, line};
}

std::string CanonicalReply(Verb verb, const std::string& payload) {
  if (verb != Verb::kStats) return payload;
  std::string kept;
  size_t start = 0;
  while (start < payload.size()) {
    size_t end = payload.find('\n', start);
    if (end == std::string::npos) end = payload.size();
    const std::string line = payload.substr(start, end - start);
    if (line.rfind("version ", 0) == 0 || line.rfind("key ", 0) == 0) {
      kept += line + "\n";
    }
    start = end + 1;
  }
  return kept;
}

std::string VerbKey(Verb verb) {
  std::string name = graphscape::service::VerbName(verb);
  for (char& c : name) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return name;
}

const std::vector<Verb>& AllVerbs() {
  static const std::vector<Verb> kVerbs = {
      Verb::kTree, Verb::kPeaks, Verb::kTopPeaks, Verb::kMembers,
      Verb::kCorrelation, Verb::kTile, Verb::kStats};
  return kVerbs;
}

// ----------------------------------------------------------------- probes --

double PeakRssMib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double PeakRssSinceResetMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double CurrentRssMib() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0, resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return 0.0;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

int64_t ProcessCpuNs() {
  struct timespec ts {};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

uint64_t DirectoryBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t total = 0;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

uint32_t LogicalCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<uint32_t>(n) : 0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

void RssByStage::Note(const std::string& stage) {
  const double mib = CurrentRssMib();
  for (auto& entry : max_mib) {
    if (entry.first == stage) {
      entry.second = std::max(entry.second, mib);
      return;
    }
  }
  max_mib.emplace_back(stage, mib);
}

// --------------------------------------------------------------- metrics --

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back(Metric{name, value, unit});
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < items_.size(); ++i) {
    const Metric& m = items_[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    out += StrPrintf("%s%s: {\"value\": %.17g, \"unit\": %s}",
                     i == 0 ? "" : ", ", JsonString(m.name).c_str(), v,
                     JsonString(m.unit).c_str());
  }
  return out + "}";
}

void AddTraceOverhead(const MetricSet& untraced, const MetricSet& traced,
                      MetricSet* layers) {
  for (const Metric& u : untraced.items()) {
    for (const Metric& t : traced.items()) {
      if (t.name == u.name) {
        layers->Set("trace.overhead." + u.name, t.value - u.value, u.unit);
      }
    }
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrPrintf("\\u%04x", static_cast<unsigned>(c));
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench

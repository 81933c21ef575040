// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// perfbench: runs one benchmark workload in this process and prints its
// result.
//
//   perfbench --workload build-ktruss|build-vertex|serve-mixed
//             --seed N --seconds S --trace 0|1
//             [--request-seed N] [--work-dir DIR] [--trace-out FILE]
//
// stdout: one {"context": ...} line (machine, thread counts, intersection
// kernel, build type, cache flush policy, run notes), then, last, the
// result line {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics; --trace 1 the per-layer metrics and the
// tracing overhead, and writes the spans to --trace-out. Exit code 0 only
// when every operation and check passed.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/string_util.h"
#include "graph/intersect_simd.h"
#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using graphscape::StrPrintf;

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "build-ktruss|build-vertex|serve-mixed --seed N --seconds S "
               "--trace 0|1 [--request-seed N] [--work-dir DIR] "
               "[--trace-out FILE]\n",
               message);
  return 2;
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  using graphscape::intersect::ActiveKernel;
  using graphscape::intersect::KernelName;
  RunConfig config;
  std::string trace_out;
  bool have_seed = false, have_request_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (!ParseUnsigned(value, &number)) {
      return Usage(("not a whole number: " + flag + " " + value).c_str());
    } else if (flag == "--seed") {
      config.seed = number;
      have_seed = true;
    } else if (flag == "--request-seed") {
      config.request_seed = number;
      have_request_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      config.trace = number != 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) return Usage("--seed is required");
  if (config.seconds <= 0) return Usage("--seconds must be positive");
  // One seed drives the run; the request streams get their own only when
  // asked to, so a stream can be replayed over another graph.
  if (!have_request_seed) config.request_seed = config.seed;
  if (config.work_dir.empty()) config.work_dir = "perfbench-work";

  void (*run)(const RunConfig&, Tracer*, RunOutput*) = nullptr;
  if (config.workload == "build-ktruss") run = RunBuildKtruss;
  if (config.workload == "build-vertex") run = RunBuildVertex;
  if (config.workload == "serve-mixed") run = RunServeMixed;
  if (run == nullptr) {
    return Usage(("unknown workload " + config.workload).c_str());
  }

  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) return Usage(("cannot create " + config.work_dir).c_str());

  Tracer tracer;
  RunOutput out;
  run(config, &tracer, &out);
  std::filesystem::remove_all(config.work_dir, ec);
  if (config.trace && !trace_out.empty()) {
    out.tally.RecordStatus(tracer.WriteTraceEvents(trace_out),
                           "write " + trace_out);
    out.Note("trace_file", trace_out);
  }

  std::string context = StrPrintf(
      "{\"workload\": %s, \"seed\": %llu, \"request_seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"logical_cpus\": %u, "
      "\"cpu_model\": %s, "
      "\"threads\": %u, \"serve_workers\": %u, \"serve_clients\": %u, "
      "\"intersect_kernel\": %s, \"build_type\": %s, "
      "\"cache_flush_policy\": %s",
      JsonString(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed),
      static_cast<unsigned long long>(config.request_seed), config.seconds,
      config.trace ? 1 : 0, LogicalCpus(), JsonString(CpuModel()).c_str(),
      kThreads, kServeWorkers, kServeClients,
      JsonString(KernelName(ActiveKernel())).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString("ArtifactCache::Put writes the entry, fsyncs it, renames "
                 "it and fsyncs the entries directory")
          .c_str());
  for (const auto& [key, value] : out.context) {
    context += ", " + JsonString(key) + ": " + JsonString(value);
  }
  context += "}";
  for (const std::string& message : out.tally.messages()) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", message.c_str());
  }
  std::printf("{\"context\": %s}\n", context.c_str());
  const MetricSet& metrics = config.trace ? out.layers : out.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.tally.correct() ? "true" : "false",
              static_cast<unsigned long long>(out.tally.attempted()),
              static_cast<unsigned long long>(out.tally.failed()),
              metrics.ToJson().c_str());
  return out.tally.correct() ? 0 : 1;
}

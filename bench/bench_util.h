// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Shared helpers for the figure/table benches: output directory handling,
// checked figure writes, and uniform banner printing so every bench reads
// the same way.

#ifndef GRAPHSCAPE_BENCH_BENCH_UTIL_H_
#define GRAPHSCAPE_BENCH_BENCH_UTIL_H_

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/parallel.h"

namespace graphscape {
namespace bench {

/// Thread count for the parallel construction paths, resolved once and
/// uniformly for every bench: GRAPHSCAPE_THREADS if set, else hardware
/// concurrency (common/parallel.h) — no bench parses the env on its own.
inline uint32_t Threads() { return DefaultThreads(); }

/// Artifact directory: $GRAPHSCAPE_BENCH_OUT or ./bench_artifacts.
inline std::string OutputDir() {
  const char* env = std::getenv("GRAPHSCAPE_BENCH_OUT");
  const std::string dir = env != nullptr ? env : "bench_artifacts";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr,
                 "bench_util: failed to create output dir '%s': %s\n",
                 dir.c_str(), ec.message().c_str());
  }
  return dir;
}

/// Tree-artifact cache root for figure benches: $GRAPHSCAPE_CACHE_DIR or
/// ./tree_cache. Kept separate from OutputDir() so CI can upload rendered
/// figures without dragging cached artifacts along, and persist the cache
/// across runs independently.
inline std::string CacheDir() {
  const char* env = std::getenv("GRAPHSCAPE_CACHE_DIR");
  return env != nullptr ? env : "tree_cache";
}

/// True when the caller asked for paper-scale datasets
/// ($GRAPHSCAPE_FULL_SCALE set to 1/true/yes, case-insensitive); default is
/// the scaled-down registry sizes.
inline bool FullScale() {
  const char* env = std::getenv("GRAPHSCAPE_FULL_SCALE");
  if (env == nullptr) return false;
  const std::string value = env;
  auto iequals = [&value](const char* expected) {
    if (value.size() != std::strlen(expected)) return false;
    for (size_t i = 0; i < value.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(value[i])) != expected[i])
        return false;
    }
    return true;
  };
  return iequals("1") || iequals("true") || iequals("yes");
}

/// Figure writes that failed so far in this process (see WriteChecked).
inline int& FailedWrites() {
  static int failed = 0;
  return failed;
}

/// Runs write(), a call that writes the figure file at `path` through
/// WritePpm, WriteNodeLinkSvg or another writer that reports failure
/// only as `false`, and checks it: the figure is either written or the
/// run fails. A failed write prints the path and the OS error (or, with
/// none, that the writer rejected its input) to stderr and is counted,
/// so main's `return bench::ExitCode();` exits nonzero.
template <typename Write>
void WriteChecked(const std::string& path, Write&& write) {
  errno = 0;
  if (write()) return;
  const int error = errno;
  std::fprintf(stderr, "bench: failed to write %s: %s\n", path.c_str(),
               error != 0 ? std::strerror(error) : "writer rejected its input");
  ++FailedWrites();
}

/// main's exit status: 1 once any WriteChecked call failed, else 0.
inline int ExitCode() { return FailedWrites() == 0 ? 0 : 1; }

inline void Banner(const char* experiment, const char* paper_content) {
  std::printf("==========================================================\n");
  std::printf("%s\n", experiment);
  std::printf("  reproduces: %s\n", paper_content);
  std::printf("==========================================================\n");
}

}  // namespace bench
}  // namespace graphscape

#endif  // GRAPHSCAPE_BENCH_BENCH_UTIL_H_

// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.

#include "scalar/tree_core.h"

#include <numeric>

#include "common/parallel.h"

namespace graphscape {
namespace tree_core {
namespace {

// The sweep comparator: value descending, id ascending.
struct SweepLess {
  const double* values;
  bool operator()(uint32_t a, uint32_t b) const {
    const double fa = values[a], fb = values[b];
    return fa > fb || (fa == fb && a < b);
  }
};

// Co-rank split: the unique i such that the first k elements of
// merge(A, B) are exactly A[0..i) followed by B[0..k-i). Unique because
// the comparator is a strict total order (no ties to arbitrate).
uint64_t CoRank(uint64_t k, const uint32_t* a, uint64_t na, const uint32_t* b,
                uint64_t nb, const SweepLess& less) {
  uint64_t lo = k > nb ? k - nb : 0;
  uint64_t hi = k < na ? k : na;
  while (lo < hi) {
    const uint64_t i = lo + (hi - lo) / 2;  // lo <= i < hi <= min(k, na)
    if (less(a[i], b[k - i - 1])) {
      lo = i + 1;  // a[i] ranks among the first k: take more from A
    } else {
      hi = i;
    }
  }
  return lo;
}

}  // namespace

void SortSweepOrder(const std::vector<double>& values,
                    std::vector<uint32_t>* order, std::vector<uint32_t>* rank,
                    const ParallelOptions& options) {
  const uint32_t n = static_cast<uint32_t>(values.size());
  const SweepLess less{values.data()};
  order->resize(n);
  rank->resize(n);
  uint32_t* const ord = order->data();
  uint32_t* const rank_data = rank->data();
  const uint32_t lanes =
      EffectiveLanes({options.num_threads, /*grain=*/1}, n);
  if (lanes <= 1 || n < 4096) {
    std::iota(ord, ord + n, 0u);
    std::sort(ord, ord + n, less);
    for (uint32_t i = 0; i < n; ++i) rank_data[ord[i]] = i;
    return;
  }
  const ParallelOptions fill_opts{lanes, 0};
  ParallelFor(0, n, fill_opts,
              [ord](uint64_t i) { ord[i] = static_cast<uint32_t>(i); });

  // Sort `lanes` nearly equal runs in place, then merge them pairwise in
  // rounds, ping-ponging between the output array and an aux buffer.
  // Each pairwise merge is itself split into `parts` co-rank slices so
  // every round keeps all lanes busy (a sequential final merge would cap
  // the sort's speedup at ~2x regardless of width).
  const uint64_t num_runs = lanes;
  std::vector<uint64_t> bounds(num_runs + 1);
  for (uint64_t r = 0; r <= num_runs; ++r) bounds[r] = n * r / num_runs;
  ParallelForBlocks(num_runs, {lanes, 1}, [&](uint64_t r, uint32_t) {
    std::sort(ord + bounds[r], ord + bounds[r + 1], less);
  });

  std::vector<uint32_t> aux(n);
  uint32_t* src = ord;
  uint32_t* dst = aux.data();
  std::vector<uint64_t> cur(bounds);
  std::vector<uint64_t> nxt;
  nxt.reserve(cur.size());
  while (cur.size() - 1 > 1) {
    const uint64_t runs = cur.size() - 1;
    const uint64_t pairs = (runs + 1) / 2;
    const uint64_t parts =
        std::max<uint64_t>(1, (2 * lanes + pairs - 1) / pairs);
    ParallelForBlocks(pairs * parts, {lanes, 1}, [&](uint64_t t, uint32_t) {
      const uint64_t p = t / parts, q = t % parts;
      const uint64_t a0 = cur[2 * p], a1 = cur[2 * p + 1];
      const uint64_t b1 = 2 * p + 2 <= runs ? cur[2 * p + 2] : a1;
      const uint32_t* A = src + a0;
      const uint64_t na = a1 - a0;
      const uint32_t* B = src + a1;
      const uint64_t nb = b1 - a1;
      const uint64_t len = na + nb;
      const uint64_t k0 = len * q / parts, k1 = len * (q + 1) / parts;
      if (k0 >= k1) return;
      const uint64_t i0 = CoRank(k0, A, na, B, nb, less);
      const uint64_t i1 = CoRank(k1, A, na, B, nb, less);
      std::merge(A + i0, A + i1, B + (k0 - i0), B + (k1 - i1), dst + a0 + k0,
                 less);
    });
    nxt.clear();
    for (uint64_t p = 0; p < pairs; ++p) nxt.push_back(cur[2 * p]);
    nxt.push_back(n);
    cur.swap(nxt);
    std::swap(src, dst);
  }
  if (src != ord) {
    const uint32_t* const merged = src;
    ParallelFor(0, n, fill_opts, [ord, merged](uint64_t i) {
      ord[i] = merged[i];
    });
  }

  ParallelFor(0, n, fill_opts, [ord, rank_data](uint64_t i) {
    rank_data[ord[i]] = static_cast<uint32_t>(i);
  });
}

std::vector<uint64_t> MakeSweepChunks(uint64_t n, uint32_t max_chunks,
                                      uint64_t min_chunk) {
  if (min_chunk == 0) min_chunk = 1;
  if (max_chunks == 0) max_chunks = 1;
  uint64_t chunks = n / min_chunk;
  if (chunks < 1) chunks = 1;
  if (chunks > max_chunks) chunks = max_chunks;
  std::vector<uint64_t> bounds(chunks + 1);
  for (uint64_t c = 0; c <= chunks; ++c) bounds[c] = n * c / chunks;
  return bounds;
}

}  // namespace tree_core
}  // namespace graphscape

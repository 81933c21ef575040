// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Sorted-run intersection — the one core under every triangle-adjacent
// metric (triangles, clustering, K-Truss support and peel, nucleus). It
// has exactly one body per strategy, each written once:
//
//   * a dense block-compare kernel per ISA (AVX2 8x8 / SSE2 4x4
//     shuffle-and-compare), with one portable scalar merge as the
//     fallback and the tail of the block kernels, selected ONCE at
//     startup by runtime CPU dispatch;
//   * one galloping (exponential-search) loop that takes over when run
//     lengths are skewed beyond kGallopSkewRatio — the hub-vs-leaf
//     adjacency case that dominates the BA/CitPatent datasets.
//
// Every body reports match POSITIONS (i, j) with a[i] == b[j]; its
// count-only instantiation (the same body with the position writes
// compiled out) backs Count. Everything else is built on those two forms:
// ForEachCommonPosition runs the position kernel over a fixed stack chunk,
// and the 3-way paths (Count3 and the graph-level ForEachCommonNeighbor)
// are ForEachCommonPosition over the two shortest runs plus a gallop
// filter against the longest.
//
// Preconditions shared by every entry point: runs are sorted ascending and
// duplicate-free (exactly the CSR adjacency invariant `graph/graph.h`
// guarantees). Violating either silently miscounts.
//
// Determinism contract (docs/SIMD.md): for any dispatch choice — scalar,
// SSE2, AVX2, galloping, and any build of GRAPHSCAPE_SIMD — every entry
// point returns the same counts and reports the same matches in the same
// (ascending) order. Kernel selection is a pure speed knob, exactly like
// the thread count (docs/PARALLELISM.md). `tests/intersect_test.cc` pins
// all paths against each other and against brute-force oracles.
//
// Thread safety: all entry points are const over their inputs and safe to
// call concurrently. SetKernelForTesting mutates the process-wide dispatch
// and must not race with in-flight intersections (tests/benches only).

#ifndef GRAPHSCAPE_GRAPH_INTERSECT_SIMD_H_
#define GRAPHSCAPE_GRAPH_INTERSECT_SIMD_H_

#include <algorithm>
#include <cstdint>
#include <utility>

namespace graphscape {
namespace intersect {

/// Dense-kernel flavors, ordered by preference. Dispatch resolves once, at
/// first use: AVX2 if the CPU has it, else SSE2 (x86-64 baseline), else
/// the portable scalar merge. Building with -DGRAPHSCAPE_SIMD=OFF compiles
/// the vector paths out entirely.
enum class Kernel { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// The dense kernel the process resolved to (after the CPU probe).
Kernel ActiveKernel();

/// Human-readable kernel name ("scalar", "sse2", "avx2").
const char* KernelName(Kernel kernel);

/// True iff this build + CPU can execute `kernel`.
bool KernelSupported(Kernel kernel);

/// Forces the dense kernel; returns false (and leaves dispatch unchanged)
/// if the kernel is unsupported. Benches and the differential tests use
/// this to pin a path; production code never calls it.
bool SetKernelForTesting(Kernel kernel);

/// Runs whose longer side is at least this multiple of the shorter side
/// take the galloping path instead of the dense kernel. 32 is tuned on the
/// registry datasets: below ~16 the dense kernels still win on the merge's
/// linear scan; beyond ~64 galloping leaves easy wins on mid-skew pairs.
inline constexpr uint32_t kGallopSkewRatio = 32;

/// ForEachCommonPosition feeds the position kernel at most this many
/// entries of the shorter run per call, so its stack buffers stay fixed.
inline constexpr uint32_t kPositionChunk = 256;

/// |a ∩ b| for sorted duplicate-free runs. Count-only: no callback, no
/// output buffer, no allocation.
uint32_t Count(const uint32_t* a, uint32_t na, const uint32_t* b,
               uint32_t nb);

/// |a ∩ b ∩ c|, count-only: ForEachCommon3 (below) with a tally.
/// Allocation-free (fixed stack scratch).
uint32_t Count3(const uint32_t* a, uint32_t na, const uint32_t* b,
                uint32_t nb, const uint32_t* c, uint32_t nc);

namespace detail {

/// First position in [first, last) with *pos >= target, found by
/// exponential probe + binary search over the final bracket. O(log gap),
/// monotone-pointer friendly: the galloping kernel, the chunk bounds of
/// ForEachCommonPosition and the 3-way filter all advance with this.
inline const uint32_t* GallopSeek(const uint32_t* first,
                                  const uint32_t* last, uint32_t target) {
  if (first == last || *first >= target) return first;
  // Invariant: *lo < target.
  const uint32_t* lo = first;
  uint32_t step = 1;
  while (static_cast<size_t>(last - lo) > step && lo[step] < target) {
    lo += step;
    step <<= 1;
  }
  const uint32_t* hi =
      static_cast<size_t>(last - lo) > step ? lo + step + 1 : last;
  return std::lower_bound(lo + 1, hi, target);
}

/// The dispatched position form behind ForEachCommonPosition: writes the
/// k-th match (ascending) as a[ia[k]] == b[jb[k]] and returns the match
/// count. ia and jb must each have room for min(na, nb) entries.
uint32_t Positions(const uint32_t* a, uint32_t na, const uint32_t* b,
                   uint32_t nb, uint32_t* ia, uint32_t* jb);

// The scalar merge and the galloping loop in their count-only form,
// undispatched, for the differential tests and the microbench's
// before/after rows. Callers otherwise never pick a path by hand.
uint32_t CountMerge(const uint32_t* a, uint32_t na, const uint32_t* b,
                    uint32_t nb);
uint32_t CountGallop(const uint32_t* small, uint32_t ns,
                     const uint32_t* large, uint32_t nl);

}  // namespace detail
}  // namespace intersect

/// Calls on_match(i, j) for every common element a[i] == b[j] of two
/// sorted duplicate-free runs, in ascending element order. Reporting the
/// POSITIONS, not the element, is what lets a caller read per-slot data
/// parallel to the runs (edge ids) with no search. The matches come from
/// the dispatched position kernel (block compare, merge or gallop) into a
/// fixed stack chunk: a shorter run of at most kPositionChunk entries
/// takes one call; a longer one is cut into chunks, and the longer run is
/// bounded to each chunk's range by galloping. Callers that only count
/// should use intersect::Count, which skips the position writes.
template <typename OnMatch>
inline void ForEachCommonPosition(const uint32_t* a, uint32_t na,
                                  const uint32_t* b, uint32_t nb,
                                  OnMatch&& on_match) {
  constexpr uint32_t kChunk = intersect::kPositionChunk;
  uint32_t ia[kChunk];
  uint32_t jb[kChunk];
  const bool chunk_a = na <= nb;
  const uint32_t* s = chunk_a ? a : b;
  const uint32_t* l = chunk_a ? b : a;
  const uint32_t ns = chunk_a ? na : nb;
  const uint32_t nl = chunk_a ? nb : na;
  uint32_t s_off = 0, l_off = 0;
  while (s_off < ns && l_off < nl) {
    const uint32_t s_len = std::min(kChunk, ns - s_off);
    uint32_t l_len = nl - l_off;
    if (s_len < ns - s_off) {
      // Later chunks only hold larger values, so the long run's entries
      // up to this chunk's last value are all this chunk can match.
      const uint32_t last = s[s_off + s_len - 1];
      const uint32_t* hi =
          intersect::detail::GallopSeek(l + l_off, l + nl, last);
      if (hi != l + nl && *hi == last) ++hi;
      l_len = static_cast<uint32_t>(hi - (l + l_off));
    }
    const uint32_t a_off = chunk_a ? s_off : l_off;
    const uint32_t b_off = chunk_a ? l_off : s_off;
    const uint32_t matches = intersect::detail::Positions(
        a + a_off, chunk_a ? s_len : l_len, b + b_off,
        chunk_a ? l_len : s_len, ia, jb);
    for (uint32_t k = 0; k < matches; ++k) {
      on_match(a_off + ia[k], b_off + jb[k]);
    }
    s_off += s_len;
    l_off += l_len;
  }
}

namespace intersect {
namespace detail {

/// Calls on_element(x) for every x common to the three runs, ascending:
/// ForEachCommonPosition over the two shortest, each match filtered by a
/// monotone gallop through the longest. The one body behind Count3 and
/// the graph-level 3-way ForEachCommonNeighbor.
template <typename OnElement>
inline void ForEachCommon3(const uint32_t* a, uint32_t na,
                           const uint32_t* b, uint32_t nb,
                           const uint32_t* c, uint32_t nc,
                           OnElement&& on_element) {
  if (na > nc) {
    std::swap(a, c);
    std::swap(na, nc);
  }
  if (nb > nc) {
    std::swap(b, c);
    std::swap(nb, nc);
  }
  const uint32_t* pc = c;
  const uint32_t* const ec = c + nc;
  ForEachCommonPosition(a, na, b, nb, [&](uint32_t i, uint32_t) {
    pc = GallopSeek(pc, ec, a[i]);
    if (pc != ec && *pc == a[i]) {
      on_element(a[i]);
      ++pc;
    }
  });
}

}  // namespace detail
}  // namespace intersect
}  // namespace graphscape

#endif  // GRAPHSCAPE_GRAPH_INTERSECT_SIMD_H_

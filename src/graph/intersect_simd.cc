// Copyright 2026 The GraphScape Authors.
// Licensed under the Apache License, Version 2.0.
//
// Kernel implementations and runtime dispatch for graph/intersect_simd.h.
// Each kernel is one template over kPositions: true writes the position
// pair of every match, false compiles those writes out and only counts.
//
// The vector kernels are the classic shuffle-and-compare block algorithm:
// load one aligned-width block from each run, compare every lane of A
// against every rotation of B, OR the equality masks, popcount the
// movemask, then advance whichever block's maximum is smaller (both on a
// tie). Correctness of the advance: when max(A-block) <= max(B-block),
// every yet-unseen B element is > max(B-block) >= every A-block element,
// so the A block can never match again. Matches are therefore seen exactly
// once, and (runs being duplicate-free) each A lane matches at most one B
// element ever — per-compare emission in lane order is globally ascending
// (proved in tests/intersect_test.cc by differential fuzz against the
// scalar merge).
//
// AVX2 functions carry __attribute__((target("avx2"))) so this file
// compiles without -mavx2 and the instructions only execute after the
// runtime probe — the binary stays runnable on any x86-64.

#include "graph/intersect_simd.h"

#if !defined(GRAPHSCAPE_SIMD_DISABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define GRAPHSCAPE_INTERSECT_X86 1
#include <immintrin.h>
#endif

namespace graphscape {
namespace intersect {
namespace {

using detail::GallopSeek;

// Every kernel appends its k-th match at ia[count + k], jb[count + k] and
// returns the new count, so a kernel can hand its tail to the merge.

// The scalar merge from cursors (i, j): the reference kernel every other
// path must agree with, and the tail of the block kernels.
template <bool kPositions>
uint32_t MergeFrom(const uint32_t* a, uint32_t i, uint32_t na,
                   const uint32_t* b, uint32_t j, uint32_t nb,
                   uint32_t count, uint32_t* ia, uint32_t* jb) {
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      if constexpr (kPositions) {
        ia[count] = i;
        jb[count] = j;
      }
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

template <bool kPositions>
uint32_t Merge(const uint32_t* a, uint32_t na, const uint32_t* b,
               uint32_t nb, uint32_t* ia, uint32_t* jb) {
  return MergeFrom<kPositions>(a, 0, na, b, 0, nb, 0, ia, jb);
}

// Walk the short run, gallop through the long one.
template <bool kPositions>
uint32_t Gallop(const uint32_t* small, uint32_t ns, const uint32_t* large,
                uint32_t nl, uint32_t* is, uint32_t* il) {
  const uint32_t* end = large + nl;
  const uint32_t* p = large;
  uint32_t count = 0;
  for (uint32_t i = 0; i < ns; ++i) {
    p = GallopSeek(p, end, small[i]);
    if (p == end) break;
    if (*p == small[i]) {
      if constexpr (kPositions) {
        is[count] = i;
        il[count] = static_cast<uint32_t>(p - large);
      }
      ++count;
      ++p;
    }
  }
  return count;
}

#ifdef GRAPHSCAPE_INTERSECT_X86

// Records one block compare's matches. Bit l of `mask` is set iff a[i + l]
// occurs in the b block starting at j; those b entries hold the same
// values in the same order, so one forward scan of the block pairs them.
inline uint32_t EmitBlock(uint32_t mask, const uint32_t* a, uint32_t i,
                          const uint32_t* b, uint32_t j, uint32_t count,
                          uint32_t* ia, uint32_t* jb) {
  for (; mask != 0; mask &= mask - 1) {
    const uint32_t ai = i + static_cast<uint32_t>(__builtin_ctz(mask));
    while (b[j] != a[ai]) ++j;
    ia[count] = ai;
    jb[count] = j++;
    ++count;
  }
  return count;
}

// ------------------------------------------------------------- SSE2 4x4 --
// SSE2 is x86-64 baseline, so this needs no target attribute and no probe.

template <bool kPositions>
uint32_t BlockSse2(const uint32_t* a, uint32_t na, const uint32_t* b,
                   uint32_t nb, uint32_t* ia, uint32_t* jb) {
  uint32_t i = 0, j = 0, count = 0;
  if (na >= 4 && nb >= 4) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b));
    while (true) {
      __m128i eq = _mm_cmpeq_epi32(va, vb);
      eq = _mm_or_si128(
          eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x39)));  // 0321
      eq = _mm_or_si128(
          eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x4e)));  // 1032
      eq = _mm_or_si128(
          eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x93)));  // 2103
      const uint32_t mask = static_cast<uint32_t>(
          _mm_movemask_ps(_mm_castsi128_ps(eq)));
      if constexpr (kPositions) {
        count = EmitBlock(mask, a, i, b, j, count, ia, jb);
      } else {
        count += static_cast<uint32_t>(__builtin_popcount(mask));
      }
      const uint32_t amax = a[i + 3], bmax = b[j + 3];
      if (amax <= bmax) {
        i += 4;
        if (i + 4 > na) break;
        va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
      }
      if (bmax <= amax) {
        j += 4;
        if (j + 4 > nb) break;
        vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
      }
    }
  }
  return MergeFrom<kPositions>(a, i, na, b, j, nb, count, ia, jb);
}

// ------------------------------------------------------------- AVX2 8x8 --

template <bool kPositions>
__attribute__((target("avx2"))) uint32_t BlockAvx2(const uint32_t* a,
                                                   uint32_t na,
                                                   const uint32_t* b,
                                                   uint32_t nb, uint32_t* ia,
                                                   uint32_t* jb) {
  uint32_t i = 0, j = 0, count = 0;
  if (na >= 8 && nb >= 8) {
    const __m256i r1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
    const __m256i r2 = _mm256_setr_epi32(2, 3, 4, 5, 6, 7, 0, 1);
    const __m256i r3 = _mm256_setr_epi32(3, 4, 5, 6, 7, 0, 1, 2);
    const __m256i r4 = _mm256_setr_epi32(4, 5, 6, 7, 0, 1, 2, 3);
    const __m256i r5 = _mm256_setr_epi32(5, 6, 7, 0, 1, 2, 3, 4);
    const __m256i r6 = _mm256_setr_epi32(6, 7, 0, 1, 2, 3, 4, 5);
    const __m256i r7 = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    while (true) {
      __m256i eq = _mm256_cmpeq_epi32(va, vb);
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r1)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r2)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r3)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r4)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r5)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r6)));
      eq = _mm256_or_si256(
          eq, _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, r7)));
      const uint32_t mask = static_cast<uint32_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(eq)));
      if constexpr (kPositions) {
        count = EmitBlock(mask, a, i, b, j, count, ia, jb);
      } else {
        count += static_cast<uint32_t>(__builtin_popcount(mask));
      }
      const uint32_t amax = a[i + 7], bmax = b[j + 7];
      if (amax <= bmax) {
        i += 8;
        if (i + 8 > na) break;
        va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      }
      if (bmax <= amax) {
        j += 8;
        if (j + 8 > nb) break;
        vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
      }
    }
  }
  return MergeFrom<kPositions>(a, i, na, b, j, nb, count, ia, jb);
}

#endif  // GRAPHSCAPE_INTERSECT_X86

// --------------------------------------------------------------- dispatch --

using KernelFn = uint32_t (*)(const uint32_t*, uint32_t, const uint32_t*,
                              uint32_t, uint32_t*, uint32_t*);

struct Dispatch {
  Kernel kernel;
  KernelFn count;
  KernelFn positions;
};

Dispatch MakeDispatch(Kernel kernel) {
  switch (kernel) {
#ifdef GRAPHSCAPE_INTERSECT_X86
    case Kernel::kAvx2:
      return {Kernel::kAvx2, &BlockAvx2<false>, &BlockAvx2<true>};
    case Kernel::kSse2:
      return {Kernel::kSse2, &BlockSse2<false>, &BlockSse2<true>};
#endif
    default:
      return {Kernel::kScalar, &Merge<false>, &Merge<true>};
  }
}

bool ProbeSupported(Kernel kernel) {
  switch (kernel) {
    case Kernel::kScalar:
      return true;
#ifdef GRAPHSCAPE_INTERSECT_X86
    case Kernel::kSse2:
      return true;  // x86-64 baseline
    case Kernel::kAvx2:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2") != 0;
#endif
    default:
      return false;
  }
}

Dispatch ResolveDispatch() {
  for (const Kernel kernel : {Kernel::kAvx2, Kernel::kSse2}) {
    if (ProbeSupported(kernel)) return MakeDispatch(kernel);
  }
  return MakeDispatch(Kernel::kScalar);
}

Dispatch& ActiveDispatch() {
  static Dispatch dispatch = ResolveDispatch();
  return dispatch;
}

// The one entry behind Count and Positions: shorter run first (the
// position arrays swap with it), the gallop on skewed pairs, else the
// active dense kernel.
template <bool kPositions>
uint32_t Intersect(const uint32_t* a, uint32_t na, const uint32_t* b,
                   uint32_t nb, uint32_t* ia, uint32_t* jb) {
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
    std::swap(ia, jb);
  }
  if (na == 0) return 0;
  if (static_cast<uint64_t>(nb) >=
      static_cast<uint64_t>(na) * kGallopSkewRatio) {
    return Gallop<kPositions>(a, na, b, nb, ia, jb);
  }
  const Dispatch& dispatch = ActiveDispatch();
  return (kPositions ? dispatch.positions : dispatch.count)(a, na, b, nb, ia,
                                                            jb);
}

}  // namespace

Kernel ActiveKernel() { return ActiveDispatch().kernel; }

const char* KernelName(Kernel kernel) {
  switch (kernel) {
    case Kernel::kSse2:
      return "sse2";
    case Kernel::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

bool KernelSupported(Kernel kernel) { return ProbeSupported(kernel); }

bool SetKernelForTesting(Kernel kernel) {
  if (!ProbeSupported(kernel)) return false;
  ActiveDispatch() = MakeDispatch(kernel);
  return true;
}

uint32_t Count(const uint32_t* a, uint32_t na, const uint32_t* b,
               uint32_t nb) {
  return Intersect<false>(a, na, b, nb, nullptr, nullptr);
}

uint32_t Count3(const uint32_t* a, uint32_t na, const uint32_t* b,
                uint32_t nb, const uint32_t* c, uint32_t nc) {
  uint32_t count = 0;
  detail::ForEachCommon3(a, na, b, nb, c, nc, [&count](uint32_t) { ++count; });
  return count;
}

namespace detail {

uint32_t Positions(const uint32_t* a, uint32_t na, const uint32_t* b,
                   uint32_t nb, uint32_t* ia, uint32_t* jb) {
  return Intersect<true>(a, na, b, nb, ia, jb);
}

uint32_t CountMerge(const uint32_t* a, uint32_t na, const uint32_t* b,
                    uint32_t nb) {
  return Merge<false>(a, na, b, nb, nullptr, nullptr);
}

uint32_t CountGallop(const uint32_t* small, uint32_t ns,
                     const uint32_t* large, uint32_t nl) {
  return Gallop<false>(small, ns, large, nl, nullptr, nullptr);
}

}  // namespace detail
}  // namespace intersect
}  // namespace graphscape

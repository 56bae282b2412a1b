#include "ml/simd_traversal.h"

// Gathered forest traversal, runtime-dispatched per CPU tier. Each walker
// is a single self-contained function carrying its own `target` attribute,
// so the file builds with the baseline ISA flags and never leaks AVX
// codegen into the rest of the library. FMA is deliberately never enabled:
// contraction of the `sum2 += v * v` updates would change rounding and
// break the repo-wide bit-identity contract.
//
// Node recap (CompiledForest::Node, 16 bytes, 64-byte-aligned pool):
//   word 0: feature (low 32 bits, -1 for leaves) | left child (high 32)
//   word 1: value (split threshold, or leaf probability)
// Per traversal step a lane gathers word 0 and word 1 at byte offset
// cursor * 16, loads its feature, and steps to left + !(x <= value) —
// parked (leaf) lanes keep their cursor via a mask blend, exactly like
// the scalar macro's `feature >= 0 ? next : c` select.

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PAWS_SIMD_TRAVERSAL_X86 1
#include <immintrin.h>

#include <cstdint>
#endif

namespace paws {
namespace internal {

namespace {

// Remainder rows (fewer than one lane group): the same serial walk the
// scalar backend uses for its own remainder — trivially bit-identical.
void WalkRowsSerial(const CompiledForest::Node* nodes, int root,
                    const double* rows, int stride, int begin, int count,
                    double* sum, double* sum2, bool assign) {
  for (int i = begin; i < count; ++i) {
    const double* row = rows + static_cast<size_t>(i) * stride;
    int c = root;
    for (int f = nodes[c].feature; f >= 0; f = nodes[c].feature) {
      c = nodes[c].left + static_cast<int>(!(row[f] <= nodes[c].value));
    }
    const double p = nodes[c].value;
    if (assign) {
      sum[i] = p;
      sum2[i] = p * p;
    } else {
      sum[i] += p;
      sum2[i] += p * p;
    }
  }
}

#if defined(PAWS_SIMD_TRAVERSAL_X86)

// ---------------------------------------------------------------------------
// AVX2: G independent 4-lane cursor groups walk together. The walk is
// bound by gather latency, not lane width — each level's node gather
// depends on the previous level's cursors — so the lever is independent
// chains in flight: with G=4 the out-of-order core overlaps 16 rows'
// node-line misses per level, which is what beats the scalar walk on
// large (cache-cold) pools. The group count steps down 4 -> 2 -> 1 so
// small batches still get vector groups before the serial remainder.

template <int G>
__attribute__((target("avx2"))) int WalkGroupsAvx2(
    const CompiledForest::Node* nodes, int root, int depth, const double* rows,
    int stride, int begin, int count, double* sum, double* sum2, bool assign) {
  const long long* nll = reinterpret_cast<const long long*>(nodes);
  const double* nd = reinterpret_cast<const double*>(nodes);
  const __m256i low32 = _mm256_set1_epi64x(0xffffffffll);
  const __m256i one = _mm256_set1_epi64x(1);
  int i = begin;
  for (; i + 4 * G <= count; i += 4 * G) {
    __m256i base[G], c[G];
    for (int g = 0; g < G; ++g) {
      base[g] = _mm256_set_epi64x(static_cast<int64_t>(i + 4 * g + 3) * stride,
                                  static_cast<int64_t>(i + 4 * g + 2) * stride,
                                  static_cast<int64_t>(i + 4 * g + 1) * stride,
                                  static_cast<int64_t>(i + 4 * g) * stride);
      c[g] = _mm256_set1_epi64x(root);
    }
    for (int d = 0; d < depth; ++d) {
      __m256i meta[G], leaf[G];
      __m256d val[G];
      for (int g = 0; g < G; ++g) {
        const __m256i c2 = _mm256_slli_epi64(c[g], 1);
        meta[g] = _mm256_i64gather_epi64(nll, c2, 8);
        val[g] = _mm256_i64gather_pd(nd + 1, c2, 8);
      }
      int parked = -1;
      for (int g = 0; g < G; ++g) {
        // feature == -1 (leaf) shows as an all-ones low word; features
        // are never negative otherwise, so equality with low32 is exact.
        leaf[g] = _mm256_cmpeq_epi64(_mm256_and_si256(meta[g], low32),
                                     low32);
        parked &= _mm256_movemask_epi8(leaf[g]);
      }
      if (parked == -1) {
        break;  // every lane parked on a leaf — same early-out as scalar
      }
      for (int g = 0; g < G; ++g) {
        // Parked lanes read feature 0 (harmlessly, like the scalar
        // macro's `feature >= 0 ? feature : 0` clamp) and are blended
        // back below.
        const __m256i fc = _mm256_andnot_si256(
            leaf[g], _mm256_and_si256(meta[g], low32));
        const __m256d x =
            _mm256_i64gather_pd(rows, _mm256_add_epi64(base[g], fc), 8);
        // _CMP_LE_OQ is false for NaN, so NaN features step right — the
        // reference `!(x <= value)` routing.
        const __m256d le = _mm256_cmp_pd(x, val[g], _CMP_LE_OQ);
        // next = left + 1 + le (le is -1 when taking the left child).
        const __m256i next =
            _mm256_add_epi64(_mm256_srli_epi64(meta[g], 32),
                             _mm256_add_epi64(one, _mm256_castpd_si256(le)));
        c[g] = _mm256_blendv_epi8(next, c[g], leaf[g]);
      }
    }
    for (int g = 0; g < G; ++g) {
      const __m256d va =
          _mm256_i64gather_pd(nd + 1, _mm256_slli_epi64(c[g], 1), 8);
      const __m256d va2 = _mm256_mul_pd(va, va);
      double* s = sum + i + 4 * g;
      double* s2 = sum2 + i + 4 * g;
      if (assign) {
        _mm256_storeu_pd(s, va);
        _mm256_storeu_pd(s2, va2);
      } else {
        _mm256_storeu_pd(s, _mm256_add_pd(_mm256_loadu_pd(s), va));
        _mm256_storeu_pd(s2, _mm256_add_pd(_mm256_loadu_pd(s2), va2));
      }
    }
  }
  return i;
}

__attribute__((target("avx2"))) void WalkTreeAvx2(
    const CompiledForest::Node* nodes, int root, int depth, const double* rows,
    int stride, int count, double* sum, double* sum2, bool assign) {
  int i = WalkGroupsAvx2<4>(nodes, root, depth, rows, stride, 0, count, sum,
                            sum2, assign);
  i = WalkGroupsAvx2<2>(nodes, root, depth, rows, stride, i, count, sum, sum2,
                        assign);
  i = WalkGroupsAvx2<1>(nodes, root, depth, rows, stride, i, count, sum, sum2,
                        assign);
  WalkRowsSerial(nodes, root, rows, stride, i, count, sum, sum2, assign);
}

// ---------------------------------------------------------------------------
// AVX-512F: same structure with 8-lane groups and mask registers doing the
// leaf parking — G=4 keeps 32 rows' gather chains in flight per level.

template <int G>
__attribute__((target("avx512f"))) int WalkGroupsAvx512(
    const CompiledForest::Node* nodes, int root, int depth, const double* rows,
    int stride, int begin, int count, double* sum, double* sum2, bool assign) {
  const long long* nll = reinterpret_cast<const long long*>(nodes);
  const double* nd = reinterpret_cast<const double*>(nodes);
  const __m512i low32 = _mm512_set1_epi64(0xffffffffll);
  const __m512i one = _mm512_set1_epi64(1);
  int i = begin;
  for (; i + 8 * G <= count; i += 8 * G) {
    alignas(64) int64_t offs[8 * G];
    for (int j = 0; j < 8 * G; ++j) {
      offs[j] = static_cast<int64_t>(i + j) * stride;
    }
    __m512i base[G], c[G];
    for (int g = 0; g < G; ++g) {
      base[g] = _mm512_load_si512(offs + 8 * g);
      c[g] = _mm512_set1_epi64(root);
    }
    for (int d = 0; d < depth; ++d) {
      __m512i meta[G];
      __m512d val[G];
      __mmask8 leaf[G];
      for (int g = 0; g < G; ++g) {
        const __m512i c2 = _mm512_slli_epi64(c[g], 1);
        meta[g] = _mm512_i64gather_epi64(c2, nll, 8);
        val[g] = _mm512_i64gather_pd(c2, nd + 1, 8);
      }
      __mmask8 parked = 0xff;
      for (int g = 0; g < G; ++g) {
        leaf[g] = _mm512_cmpeq_epi64_mask(_mm512_and_si512(meta[g], low32),
                                          low32);
        parked &= leaf[g];
      }
      if (parked == 0xff) break;
      for (int g = 0; g < G; ++g) {
        const __m512i fc = _mm512_maskz_mov_epi64(
            static_cast<__mmask8>(~leaf[g]),
            _mm512_and_si512(meta[g], low32));
        const __m512d x =
            _mm512_i64gather_pd(_mm512_add_epi64(base[g], fc), rows, 8);
        const __mmask8 le = _mm512_cmp_pd_mask(x, val[g], _CMP_LE_OQ);
        const __m512i left = _mm512_srli_epi64(meta[g], 32);
        // next = left where x <= value, left + 1 otherwise.
        const __m512i next = _mm512_mask_add_epi64(
            left, static_cast<__mmask8>(~le), left, one);
        c[g] = _mm512_mask_blend_epi64(leaf[g], next, c[g]);
      }
    }
    for (int g = 0; g < G; ++g) {
      const __m512d va =
          _mm512_i64gather_pd(_mm512_slli_epi64(c[g], 1), nd + 1, 8);
      const __m512d va2 = _mm512_mul_pd(va, va);
      double* s = sum + i + 8 * g;
      double* s2 = sum2 + i + 8 * g;
      if (assign) {
        _mm512_storeu_pd(s, va);
        _mm512_storeu_pd(s2, va2);
      } else {
        _mm512_storeu_pd(s, _mm512_add_pd(_mm512_loadu_pd(s), va));
        _mm512_storeu_pd(s2, _mm512_add_pd(_mm512_loadu_pd(s2), va2));
      }
    }
  }
  return i;
}

__attribute__((target("avx512f"))) void WalkTreeAvx512(
    const CompiledForest::Node* nodes, int root, int depth, const double* rows,
    int stride, int count, double* sum, double* sum2, bool assign) {
  int i = WalkGroupsAvx512<4>(nodes, root, depth, rows, stride, 0, count, sum,
                              sum2, assign);
  i = WalkGroupsAvx512<2>(nodes, root, depth, rows, stride, i, count, sum, sum2,
                          assign);
  i = WalkGroupsAvx512<1>(nodes, root, depth, rows, stride, i, count, sum, sum2,
                          assign);
  WalkRowsSerial(nodes, root, rows, stride, i, count, sum, sum2, assign);
}

#endif  // PAWS_SIMD_TRAVERSAL_X86

}  // namespace

SimdWalkTreeFn GetSimdWalker(SimdTier tier) {
#if defined(PAWS_SIMD_TRAVERSAL_X86)
  switch (tier) {
    case SimdTier::kAvx2:
      return &WalkTreeAvx2;
    case SimdTier::kAvx512:
      return &WalkTreeAvx512;
    case SimdTier::kScalar:
      return nullptr;
  }
#else
  (void)tier;
#endif
  return nullptr;
}

}  // namespace internal
}  // namespace paws

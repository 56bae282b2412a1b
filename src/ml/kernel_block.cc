#include "ml/kernel_block.h"

#include <cmath>

#include "ml/exp_lane.h"

// Tiered kernels for the compiled-GP block sweep. Like simd_traversal.cc,
// each widened function carries its own `target` attribute so the file
// builds under the baseline ISA flags, and FMA is never used: a fused
// `a*b + c` rounds once where the scalar code rounds twice, which would
// break the repo-wide bit-identity contract. Spelling out separate
// mul/add/sub intrinsics is NOT enough for that — GCC lowers them to
// generic vector ops and its default -ffp-contract=fast happily fuses
// mul-then-add back into vfmadd inside the avx512f-target bodies — so
// CMakeLists builds this file with -ffp-contract=off (belt: sub-width
// work also runs through masked lanes or the noinline scalar helpers
// below, never through open-coded loops an FMA-capable caller context
// could contract).
//
// Why the big kernels are blocked: the naive column-lane loops stream the
// standardized block once per inducing point (CrossKernelSq) and the work
// block once per pivot (ForwardSubst) — ~100 KiB per pass, L2-resident,
// so both loops are bandwidth-bound and vector width alone buys almost
// nothing (measured ~1.2x). Tiling the row/pivot loop keeps that many
// accumulators in registers (or that many pivot rows hot in L1) and cuts
// the streamed traffic by the tile factor.

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PAWS_KERNEL_BLOCK_X86 1
#include <immintrin.h>

#include <cstdint>
#endif

namespace paws {
namespace internal {

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define PAWS_NOINLINE __attribute__((noinline))
#else
#define PAWS_NOINLINE
#endif

// ---------------------------------------------------------------------------
// Scalar tier: the loops exactly as CompiledGpEnsemble::ScoreLearner wrote
// them before dispatch existed. Baseline x86-64 has no FMA instruction, so
// these round mul and add separately no matter the contraction mode. The
// helpers are noinline so the widened functions below may call them for
// remainders without GCC inlining them into an FMA-capable target context.

PAWS_NOINLINE void AccumSquaredDiffScalar(double a, const double* z,
                                          double* sq, int m) {
  for (int j = 0; j < m; ++j) {
    const double d = a - z[j];
    sq[j] += d * d;
  }
}

PAWS_NOINLINE void AccumScaledScalar(double g, const double* v, double* acc,
                                     int m) {
  for (int j = 0; j < m; ++j) acc[j] += g * v[j];
}

PAWS_NOINLINE void ScaleScalar(double* v, double s, int m) {
  for (int j = 0; j < m; ++j) v[j] *= s;
}

PAWS_NOINLINE void SubScaledScalar(double* v, double l, const double* p,
                                   int m) {
  for (int j = 0; j < m; ++j) v[j] -= l * p[j];
}

PAWS_NOINLINE void DivideByScalar(double* v, double s, int m) {
  for (int j = 0; j < m; ++j) v[j] /= s;
}

PAWS_NOINLINE void AccumSquareScalar(const double* v, double* acc, int m) {
  for (int j = 0; j < m; ++j) acc[j] += v[j] * v[j];
}

PAWS_NOINLINE void StandardizeTColScalar(const double* rows, int stride,
                                         int j0, int count, int m, int k,
                                         const double* mu, const double* sd,
                                         double* zt) {
  for (int j = j0; j < j0 + count; ++j) {
    const double* row = rows + static_cast<size_t>(j) * stride;
    for (int f = 0; f < k; ++f) {
      zt[static_cast<size_t>(f) * m + j] = (row[f] - mu[f]) / sd[f];
    }
  }
}

void StandardizeTScalar(const double* rows, int stride, int m, int k,
                        const double* mu, const double* sd, double* zt) {
  StandardizeTColScalar(rows, stride, 0, m, m, k, mu, sd, zt);
}

void CrossKernelSqScalar(const double* xt, int n, int k, const double* zt,
                         int m, double* out) {
  for (int i = 0; i < n; ++i) {
    double* row = out + static_cast<size_t>(i) * m;
    for (int j = 0; j < m; ++j) row[j] = 0.0;
    const double* xr = xt + static_cast<size_t>(i) * k;
    for (int f = 0; f < k; ++f) {
      AccumSquaredDiffScalar(xr[f], zt + static_cast<size_t>(f) * m, row, m);
    }
  }
}

void KernelTailScalar(double sv, double denom, double* w, int n, int m) {
  const size_t total = static_cast<size_t>(n) * m;
  for (size_t j = 0; j < total; ++j) w[j] = sv * std::exp(-w[j] / denom);
}

void ForwardSubstScalar(const double* chol, const double* sqrt_w, int n,
                        double* v, int m) {
  for (int i = 0; i < n; ++i) {
    double* vrow = v + static_cast<size_t>(i) * m;
    ScaleScalar(vrow, sqrt_w[i], m);
    const double* lrow = chol + static_cast<size_t>(i) * n;
    for (int p = 0; p < i; ++p) {
      SubScaledScalar(vrow, lrow[p], v + static_cast<size_t>(p) * m, m);
    }
    DivideByScalar(vrow, lrow[i], m);
  }
}

constexpr GpLaneOps kScalarOps = {
    &StandardizeTScalar, &CrossKernelSqScalar, &KernelTailScalar,
    &ForwardSubstScalar, &AccumScaledScalar,   &AccumSquareScalar,
};

#if defined(PAWS_KERNEL_BLOCK_X86)

// Lane-mask table for AVX2 maskload/maskstore tails: loading at offset
// (4 - rem) yields `rem` active lanes followed by zeros.
alignas(32) constexpr int64_t kAvx2MaskTable[8] = {-1, -1, -1, -1,
                                                   0,  0,  0,  0};

// ---------------------------------------------------------------------------
// AVX2: 4 columns per vector, 16 registers — the distance kernel tiles 8
// inducing rows (8 accumulators + the shared z vector), the substitution
// update subtracts 16 pivots per streamed pass. target("avx2") does not
// enable FMA, so even the compiler cannot fuse here; the bodies use only
// explicit mul-then-add/sub intrinsics anyway.

__attribute__((target("avx2"))) void StandardizeTAvx2(
    const double* rows, int stride, int m, int k, const double* mu,
    const double* sd, double* zt) {
  int j0 = 0;
  for (; j0 + 4 <= m; j0 += 4) {
    alignas(32) int64_t offs[4];
    for (int l = 0; l < 4; ++l) {
      offs[l] = static_cast<int64_t>(j0 + l) * stride;
    }
    const __m256i base =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(offs));
    for (int f = 0; f < k; ++f) {
      const __m256d x = _mm256_i64gather_pd(rows + f, base, 8);
      const __m256d z = _mm256_div_pd(
          _mm256_sub_pd(x, _mm256_set1_pd(mu[f])), _mm256_set1_pd(sd[f]));
      _mm256_storeu_pd(zt + static_cast<size_t>(f) * m + j0, z);
    }
  }
  if (j0 < m) {
    StandardizeTColScalar(rows, stride, j0, m - j0, m, k, mu, sd, zt);
  }
}

__attribute__((target("avx2"))) void CrossKernelSqAvx2(const double* xt,
                                                       int n, int k,
                                                       const double* zt,
                                                       int m, double* out) {
  constexpr int kTile = 8;
  int i0 = 0;
  for (; i0 + kTile <= n; i0 += kTile) {
    for (int j0 = 0; j0 < m; j0 += 4) {
      const int rem = m - j0 < 4 ? m - j0 : 4;
      const __m256i mask = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(kAvx2MaskTable + 4 - rem));
      __m256d acc[kTile];
      for (int t = 0; t < kTile; ++t) acc[t] = _mm256_setzero_pd();
      for (int f = 0; f < k; ++f) {
        const __m256d z =
            _mm256_maskload_pd(zt + static_cast<size_t>(f) * m + j0, mask);
        for (int t = 0; t < kTile; ++t) {
          const __m256d x =
              _mm256_set1_pd(xt[static_cast<size_t>(i0 + t) * k + f]);
          const __m256d d = _mm256_sub_pd(x, z);
          acc[t] = _mm256_add_pd(acc[t], _mm256_mul_pd(d, d));
        }
      }
      for (int t = 0; t < kTile; ++t) {
        _mm256_maskstore_pd(out + static_cast<size_t>(i0 + t) * m + j0, mask,
                            acc[t]);
      }
    }
  }
  // Remainder rows: one accumulator register per column chunk.
  for (; i0 < n; ++i0) {
    const double* xr = xt + static_cast<size_t>(i0) * k;
    double* row = out + static_cast<size_t>(i0) * m;
    for (int j0 = 0; j0 < m; j0 += 4) {
      const int rem = m - j0 < 4 ? m - j0 : 4;
      const __m256i mask = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(kAvx2MaskTable + 4 - rem));
      __m256d acc = _mm256_setzero_pd();
      for (int f = 0; f < k; ++f) {
        const __m256d z =
            _mm256_maskload_pd(zt + static_cast<size_t>(f) * m + j0, mask);
        const __m256d d = _mm256_sub_pd(_mm256_set1_pd(xr[f]), z);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
      }
      _mm256_maskstore_pd(row + j0, mask, acc);
    }
  }
}

__attribute__((target("avx2"))) void ForwardSubstAvx2(const double* chol,
                                                      const double* sqrt_w,
                                                      int n, double* v,
                                                      int m) {
  constexpr int kTile = 16;
  // W^1/2 scale first — element-wise, so hoisting it off the reference
  // interleaving leaves every element's scale-subs-divide order intact.
  for (int i = 0; i < n; ++i) {
    double* vrow = v + static_cast<size_t>(i) * m;
    const __m256d s = _mm256_set1_pd(sqrt_w[i]);
    int j = 0;
    for (; j + 4 <= m; j += 4) {
      _mm256_storeu_pd(vrow + j, _mm256_mul_pd(_mm256_loadu_pd(vrow + j), s));
    }
    if (j < m) ScaleScalar(vrow + j, sqrt_w[i], m - j);
  }
  // Right-looking blocked solve: finish a tile of pivots, then subtract
  // all of them from every later row in one streamed pass — pivots stay
  // L1-resident, later rows stream once per tile instead of once per
  // pivot. Per element the subtraction order is still p-ascending (tiles
  // ascend, t ascends inside the update), and every pivot row is final
  // (divided) before any row consumes it.
  for (int p0 = 0; p0 < n; p0 += kTile) {
    const int tp = n - p0 < kTile ? n - p0 : kTile;
    for (int i = p0; i < p0 + tp; ++i) {
      double* vrow = v + static_cast<size_t>(i) * m;
      const double* lrow = chol + static_cast<size_t>(i) * n;
      for (int p = p0; p < i; ++p) {
        const __m256d l = _mm256_set1_pd(lrow[p]);
        const double* vp = v + static_cast<size_t>(p) * m;
        int j = 0;
        for (; j + 4 <= m; j += 4) {
          const __m256d t = _mm256_mul_pd(l, _mm256_loadu_pd(vp + j));
          _mm256_storeu_pd(vrow + j,
                           _mm256_sub_pd(_mm256_loadu_pd(vrow + j), t));
        }
        if (j < m) SubScaledScalar(vrow + j, lrow[p], vp + j, m - j);
      }
      const __m256d d = _mm256_set1_pd(lrow[i]);
      int j = 0;
      for (; j + 4 <= m; j += 4) {
        _mm256_storeu_pd(vrow + j,
                         _mm256_div_pd(_mm256_loadu_pd(vrow + j), d));
      }
      if (j < m) DivideByScalar(vrow + j, lrow[i], m - j);
    }
    // Streamed update, 4 later rows at a time: each pivot-row chunk is
    // loaded once and reused by all 4 accumulators (4 of the 16 ymm regs
    // hold sums, one holds the shared pivot chunk). Each element's own
    // chain still subtracts pivots in ascending order.
    int i = p0 + tp;
    for (; i + 4 <= n; i += 4) {
      for (int j0 = 0; j0 < m; j0 += 4) {
        const int rem = m - j0 < 4 ? m - j0 : 4;
        const __m256i mask = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(kAvx2MaskTable + 4 - rem));
        __m256d acc[4];
        for (int g = 0; g < 4; ++g) {
          acc[g] = _mm256_maskload_pd(
              v + static_cast<size_t>(i + g) * m + j0, mask);
        }
        for (int t = 0; t < tp; ++t) {
          const __m256d vp = _mm256_maskload_pd(
              v + static_cast<size_t>(p0 + t) * m + j0, mask);
          for (int g = 0; g < 4; ++g) {
            const __m256d l = _mm256_set1_pd(
                chol[static_cast<size_t>(i + g) * n + p0 + t]);
            acc[g] = _mm256_sub_pd(acc[g], _mm256_mul_pd(l, vp));
          }
        }
        for (int g = 0; g < 4; ++g) {
          _mm256_maskstore_pd(v + static_cast<size_t>(i + g) * m + j0, mask,
                              acc[g]);
        }
      }
    }
    for (; i < n; ++i) {
      double* vrow = v + static_cast<size_t>(i) * m;
      const double* lrow = chol + static_cast<size_t>(i) * n;
      for (int j0 = 0; j0 < m; j0 += 4) {
        const int rem = m - j0 < 4 ? m - j0 : 4;
        const __m256i mask = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(kAvx2MaskTable + 4 - rem));
        __m256d acc = _mm256_maskload_pd(vrow + j0, mask);
        for (int t = 0; t < tp; ++t) {
          const __m256d l = _mm256_set1_pd(lrow[p0 + t]);
          const __m256d vp = _mm256_maskload_pd(
              v + static_cast<size_t>(p0 + t) * m + j0, mask);
          acc = _mm256_sub_pd(acc, _mm256_mul_pd(l, vp));
        }
        _mm256_maskstore_pd(vrow + j0, mask, acc);
      }
    }
  }
}

__attribute__((target("avx2"))) void AccumScaledAvx2(double g, const double* v,
                                                     double* acc, int m) {
  const __m256d gv = _mm256_set1_pd(g);
  int j = 0;
  for (; j + 4 <= m; j += 4) {
    const __m256d t = _mm256_mul_pd(gv, _mm256_loadu_pd(v + j));
    _mm256_storeu_pd(acc + j, _mm256_add_pd(_mm256_loadu_pd(acc + j), t));
  }
  if (j < m) AccumScaledScalar(g, v + j, acc + j, m - j);
}

__attribute__((target("avx2"))) void AccumSquareAvx2(const double* v,
                                                     double* acc, int m) {
  int j = 0;
  for (; j + 4 <= m; j += 4) {
    const __m256d x = _mm256_loadu_pd(v + j);
    _mm256_storeu_pd(
        acc + j, _mm256_add_pd(_mm256_loadu_pd(acc + j), _mm256_mul_pd(x, x)));
  }
  if (j < m) AccumSquareScalar(v + j, acc + j, m - j);
}

constexpr GpLaneOps kAvx2Ops = {
    &StandardizeTAvx2, &CrossKernelSqAvx2, &KernelTailScalar,
    &ForwardSubstAvx2, &AccumScaledAvx2,   &AccumSquareAvx2,
};

// ---------------------------------------------------------------------------
// AVX-512F: 8 columns per vector, mask registers for the column tails, 32
// registers — the distance kernel tiles 16 inducing rows deep.

__attribute__((target("avx512f"))) void StandardizeTAvx512(
    const double* rows, int stride, int m, int k, const double* mu,
    const double* sd, double* zt) {
  for (int j0 = 0; j0 < m; j0 += 8) {
    const int rem = m - j0 < 8 ? m - j0 : 8;
    const __mmask8 mask = static_cast<__mmask8>((1u << rem) - 1u);
    alignas(64) int64_t offs[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (int l = 0; l < rem; ++l) {
      offs[l] = static_cast<int64_t>(j0 + l) * stride;
    }
    const __m512i base = _mm512_load_si512(offs);
    for (int f = 0; f < k; ++f) {
      const __m512d x = _mm512_mask_i64gather_pd(_mm512_setzero_pd(), mask,
                                                 base, rows + f, 8);
      const __m512d z = _mm512_div_pd(
          _mm512_sub_pd(x, _mm512_set1_pd(mu[f])), _mm512_set1_pd(sd[f]));
      _mm512_mask_storeu_pd(zt + static_cast<size_t>(f) * m + j0, mask, z);
    }
  }
}

__attribute__((target("avx512f"))) void CrossKernelSqAvx512(
    const double* xt, int n, int k, const double* zt, int m, double* out) {
  constexpr int kTile = 16;
  int i0 = 0;
  for (; i0 + kTile <= n; i0 += kTile) {
    for (int j0 = 0; j0 < m; j0 += 8) {
      const int rem = m - j0 < 8 ? m - j0 : 8;
      const __mmask8 mask = static_cast<__mmask8>((1u << rem) - 1u);
      __m512d acc[kTile];
      for (int t = 0; t < kTile; ++t) acc[t] = _mm512_setzero_pd();
      for (int f = 0; f < k; ++f) {
        const __m512d z = _mm512_maskz_loadu_pd(
            mask, zt + static_cast<size_t>(f) * m + j0);
        for (int t = 0; t < kTile; ++t) {
          const __m512d x =
              _mm512_set1_pd(xt[static_cast<size_t>(i0 + t) * k + f]);
          const __m512d d = _mm512_sub_pd(x, z);
          acc[t] = _mm512_add_pd(acc[t], _mm512_mul_pd(d, d));
        }
      }
      for (int t = 0; t < kTile; ++t) {
        _mm512_mask_storeu_pd(out + static_cast<size_t>(i0 + t) * m + j0,
                              mask, acc[t]);
      }
    }
  }
  for (; i0 < n; ++i0) {
    const double* xr = xt + static_cast<size_t>(i0) * k;
    double* row = out + static_cast<size_t>(i0) * m;
    for (int j0 = 0; j0 < m; j0 += 8) {
      const int rem = m - j0 < 8 ? m - j0 : 8;
      const __mmask8 mask = static_cast<__mmask8>((1u << rem) - 1u);
      __m512d acc = _mm512_setzero_pd();
      for (int f = 0; f < k; ++f) {
        const __m512d z = _mm512_maskz_loadu_pd(
            mask, zt + static_cast<size_t>(f) * m + j0);
        const __m512d d = _mm512_sub_pd(_mm512_set1_pd(xr[f]), z);
        acc = _mm512_add_pd(acc, _mm512_mul_pd(d, d));
      }
      _mm512_mask_storeu_pd(row + j0, mask, acc);
    }
  }
}

__attribute__((target("avx512f"))) void ForwardSubstAvx512(
    const double* chol, const double* sqrt_w, int n, double* v, int m) {
  constexpr int kTile = 16;
  for (int i = 0; i < n; ++i) {
    double* vrow = v + static_cast<size_t>(i) * m;
    const __m512d s = _mm512_set1_pd(sqrt_w[i]);
    for (int j0 = 0; j0 < m; j0 += 8) {
      const int rem = m - j0 < 8 ? m - j0 : 8;
      const __mmask8 mask = static_cast<__mmask8>((1u << rem) - 1u);
      _mm512_mask_storeu_pd(
          vrow + j0, mask,
          _mm512_mul_pd(_mm512_maskz_loadu_pd(mask, vrow + j0), s));
    }
  }
  for (int p0 = 0; p0 < n; p0 += kTile) {
    const int tp = n - p0 < kTile ? n - p0 : kTile;
    for (int i = p0; i < p0 + tp; ++i) {
      double* vrow = v + static_cast<size_t>(i) * m;
      const double* lrow = chol + static_cast<size_t>(i) * n;
      for (int p = p0; p < i; ++p) {
        const __m512d l = _mm512_set1_pd(lrow[p]);
        const double* vp = v + static_cast<size_t>(p) * m;
        for (int j0 = 0; j0 < m; j0 += 8) {
          const int rem = m - j0 < 8 ? m - j0 : 8;
          const __mmask8 mask = static_cast<__mmask8>((1u << rem) - 1u);
          const __m512d t =
              _mm512_mul_pd(l, _mm512_maskz_loadu_pd(mask, vp + j0));
          _mm512_mask_storeu_pd(
              vrow + j0, mask,
              _mm512_sub_pd(_mm512_maskz_loadu_pd(mask, vrow + j0), t));
        }
      }
      const __m512d d = _mm512_set1_pd(lrow[i]);
      for (int j0 = 0; j0 < m; j0 += 8) {
        const int rem = m - j0 < 8 ? m - j0 : 8;
        const __mmask8 mask = static_cast<__mmask8>((1u << rem) - 1u);
        _mm512_mask_storeu_pd(
            vrow + j0, mask,
            _mm512_div_pd(_mm512_maskz_loadu_pd(mask, vrow + j0), d));
      }
    }
    // Streamed update, 8 later rows at a time: each pivot-row chunk is
    // loaded once and reused by all 8 accumulators, so the loop is no
    // longer load-port-bound. Each element's own chain still subtracts
    // pivots in ascending order.
    int i = p0 + tp;
    for (; i + 8 <= n; i += 8) {
      for (int j0 = 0; j0 < m; j0 += 8) {
        const int rem = m - j0 < 8 ? m - j0 : 8;
        const __mmask8 mask = static_cast<__mmask8>((1u << rem) - 1u);
        __m512d acc[8];
        for (int g = 0; g < 8; ++g) {
          acc[g] = _mm512_maskz_loadu_pd(
              mask, v + static_cast<size_t>(i + g) * m + j0);
        }
        for (int t = 0; t < tp; ++t) {
          const __m512d vp = _mm512_maskz_loadu_pd(
              mask, v + static_cast<size_t>(p0 + t) * m + j0);
          for (int g = 0; g < 8; ++g) {
            const __m512d l = _mm512_set1_pd(
                chol[static_cast<size_t>(i + g) * n + p0 + t]);
            acc[g] = _mm512_sub_pd(acc[g], _mm512_mul_pd(l, vp));
          }
        }
        for (int g = 0; g < 8; ++g) {
          _mm512_mask_storeu_pd(v + static_cast<size_t>(i + g) * m + j0,
                                mask, acc[g]);
        }
      }
    }
    for (; i < n; ++i) {
      double* vrow = v + static_cast<size_t>(i) * m;
      const double* lrow = chol + static_cast<size_t>(i) * n;
      for (int j0 = 0; j0 < m; j0 += 8) {
        const int rem = m - j0 < 8 ? m - j0 : 8;
        const __mmask8 mask = static_cast<__mmask8>((1u << rem) - 1u);
        __m512d acc = _mm512_maskz_loadu_pd(mask, vrow + j0);
        for (int t = 0; t < tp; ++t) {
          const __m512d l = _mm512_set1_pd(lrow[p0 + t]);
          const __m512d vp = _mm512_maskz_loadu_pd(
              mask, v + static_cast<size_t>(p0 + t) * m + j0);
          acc = _mm512_sub_pd(acc, _mm512_mul_pd(l, vp));
        }
        _mm512_mask_storeu_pd(vrow + j0, mask, acc);
      }
    }
  }
}

__attribute__((target("avx512f"))) void AccumScaledAvx512(double g,
                                                          const double* v,
                                                          double* acc, int m) {
  const __m512d gv = _mm512_set1_pd(g);
  int j = 0;
  for (; j + 8 <= m; j += 8) {
    const __m512d t = _mm512_mul_pd(gv, _mm512_loadu_pd(v + j));
    _mm512_storeu_pd(acc + j, _mm512_add_pd(_mm512_loadu_pd(acc + j), t));
  }
  if (j < m) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (m - j)) - 1u);
    const __m512d t = _mm512_mul_pd(gv, _mm512_maskz_loadu_pd(tail, v + j));
    const __m512d s = _mm512_maskz_loadu_pd(tail, acc + j);
    _mm512_mask_storeu_pd(acc + j, tail, _mm512_add_pd(s, t));
  }
}

__attribute__((target("avx512f"))) void AccumSquareAvx512(const double* v,
                                                          double* acc, int m) {
  int j = 0;
  for (; j + 8 <= m; j += 8) {
    const __m512d x = _mm512_loadu_pd(v + j);
    _mm512_storeu_pd(
        acc + j, _mm512_add_pd(_mm512_loadu_pd(acc + j), _mm512_mul_pd(x, x)));
  }
  if (j < m) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (m - j)) - 1u);
    const __m512d x = _mm512_maskz_loadu_pd(tail, v + j);
    const __m512d s = _mm512_maskz_loadu_pd(tail, acc + j);
    _mm512_mask_storeu_pd(acc + j, tail,
                          _mm512_add_pd(s, _mm512_mul_pd(x, x)));
  }
}

constexpr GpLaneOps kAvx512Ops = {
    &StandardizeTAvx512, &CrossKernelSqAvx512, &KernelTailScalar,
    &ForwardSubstAvx512, &AccumScaledAvx512,   &AccumSquareAvx512,
};

#endif  // PAWS_KERNEL_BLOCK_X86

#undef PAWS_NOINLINE

}  // namespace

const GpLaneOps* GetGpLaneOps(SimdTier tier) {
#if defined(PAWS_KERNEL_BLOCK_X86)
  switch (tier) {
    case SimdTier::kAvx2:
      return &kAvx2Ops;
    case SimdTier::kAvx512: {
      // The AVX-512 table optionally swaps in the vectorized exp replay
      // for the kernel tail; resolved once — the resolver locates libm's
      // coefficient table and proves bitwise identity before handing out
      // the fast tail (scalar tail stays otherwise). See exp_lane.h.
      static const GpLaneOps kAvx512Resolved = [] {
        GpLaneOps ops = kAvx512Ops;
        if (KernelTailFn tail = GetVectorKernelTail(SimdTier::kAvx512)) {
          ops.KernelTail = tail;
        }
        return ops;
      }();
      return &kAvx512Resolved;
    }
    case SimdTier::kScalar:
      return &kScalarOps;
  }
#else
  (void)tier;
#endif
  return &kScalarOps;
}

}  // namespace internal
}  // namespace paws

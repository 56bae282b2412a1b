#ifndef PAWS_ML_KERNEL_BLOCK_H_
#define PAWS_ML_KERNEL_BLOCK_H_

#include "util/cpu_features.h"

namespace paws {
namespace internal {

/// Kernel-block primitives for the compiled-GP sweep
/// (CompiledGpEnsemble::ScoreLearner), runtime-dispatched per CPU tier the
/// same way the compiled-forest walkers are. The big kernels are
/// register-blocked: the phase profile of the naive column-lane loops is
/// L2-bandwidth-bound (the inducing loop re-streams the standardized block
/// once per inducing point, the substitution re-streams the work block
/// once per pivot), so the widened tiers tile the row/pivot loop 8-16 deep
/// and hold the accumulators in registers — the streamed traffic drops by
/// the tile factor and only then does the lane width actually show up.
///
/// Bit-identity: every output element's reduction chain keeps the scalar
/// order — the squared distance accumulates in feature order, the forward
/// substitution subtracts pivots in ascending order after the W^1/2 scale
/// and divides last, each with separate mul/add/sub/div roundings (the
/// file builds with -ffp-contract=off; no FMA anywhere). Blocking only
/// reorders work ACROSS independent output columns and rows, never within
/// one element's chain, so every tier produces identical bits.
struct GpLaneOps {
  /// zt[f * m + j] = (rows[j * stride + f] - mu[f]) / sd[f] — the
  /// standardize divide over the block's first m rows, transposed so the
  /// kernels below read one contiguous lane row per feature. Widened tiers
  /// gather the strided reads; sub/div are element-wise IEEE ops either way.
  void (*StandardizeT)(const double* rows, int stride, int m, int k,
                       const double* mu, const double* sd, double* zt);
  /// out[i * m + j] = sum_f (xt[i * k + f] - zt[f * m + j])^2 for the
  /// whole n x m cross block, each element's sum in ascending f order —
  /// the distance half of RbfKernel::Eval, columns as lanes.
  void (*CrossKernelSq)(const double* xt, int n, int k, const double* zt,
                        int m, double* out);
  /// w[i * m + j] = sv * exp(-w[i * m + j] / denom) over the n x m block —
  /// the transcendental tail of RbfKernel::Eval, kept on scalar libm so
  /// exp rounds exactly as the reference's call does.
  void (*KernelTail)(double sv, double denom, double* w, int n, int m);
  /// In-place multi-RHS forward substitution, V = L \ (diag(sqrt_w) V):
  /// per column j and row i the op order is exactly the reference loop —
  /// v[i][j] *= sqrt_w[i]; v[i][j] -= chol[i][p] * v[p][j] for p = 0..i-1
  /// ascending (each v[p] already final); v[i][j] /= chol[i][i].
  void (*ForwardSubst)(const double* chol, const double* sqrt_w, int n,
                       double* v, int m);
  /// acc[j] += g * v[j] — one inducing point's term of the latent-mean
  /// GEMV; called in i-ascending order.
  void (*AccumScaled)(double g, const double* v, double* acc, int m);
  /// acc[j] += v[j]^2 — the latent-variance accumulation.
  void (*AccumSquare)(const double* v, double* acc, int m);
};

/// Ops table for `tier`. Tiers this build (or a non-x86 target) cannot
/// encode fall back to the scalar table; never returns nullptr.
const GpLaneOps* GetGpLaneOps(SimdTier tier);

}  // namespace internal
}  // namespace paws

#endif  // PAWS_ML_KERNEL_BLOCK_H_

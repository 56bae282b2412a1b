#ifndef PAWS_ML_COMPILED_GP_H_
#define PAWS_ML_COMPILED_GP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/classifier.h"
#include "ml/compiled_backend.h"

namespace paws {

namespace internal {
struct GpLaneOps;
}  // namespace internal

/// Kernel-block ScoringBackend for an iWare-E ensemble whose weak learners
/// are all baggings of Gaussian-process classifiers (GPB — the paper's
/// uncertainty-bearing configuration). Every member GP's posterior cache is
/// flattened into contiguous pools at selection time — inducing inputs as
/// one row-major block, likelihood gradients, W^1/2, the Cholesky factor of
/// B, standardizer moments — and a batch is served as one fused sweep per
/// member: standardize the block's rows once, evaluate the cross-covariance
/// kernel block column-vectorized, then run the latent-mean GEMV and the
/// multi-RHS forward substitution over the whole block. No virtual dispatch
/// per member, no per-call work-buffer allocation (thread-local scratch),
/// and the reference path's kChunk=64 re-streaming of the Cholesky factor
/// drops to once per 256-row block.
///
/// Bit-exactness contract: per column the arithmetic replays
/// GaussianProcessClassifier::PredictBatchWithVariance term for term — the
/// standardize divide, the feature-order squared-distance reduction and the
/// exact `signal_variance * exp(-sq / (2 l^2))` kernel expression, the
/// i-ascending latent-mean accumulation, the scalar-order forward
/// substitution, the variance clamp and the MacKay sigmoid — and bagging
/// members accumulate `prob` / `variance + prob^2` in member order, exactly
/// BaggingClassifier::PredictBatchWithVariance. Vectorization happens only
/// ACROSS columns (independent lanes), never within a column's reduction,
/// so compiled-GP serving is bit-identical to the reference path including
/// the variance channel. The lane width is runtime-dispatched like the
/// forest walkers — Compile() resolves an internal::GpLaneOps table from
/// the active SIMD tier (CPUID-detected, clamped by PAWS_FORCE_BACKEND) —
/// but because every lane op is element-independent and FMA-free, every
/// tier produces the same bits; the backend keeps the single name
/// "compiled-gp" across tiers. The mixing harness is shared with the other
/// compiled backends (internal::CompiledBackendBase).
class CompiledGpEnsemble
    : public internal::CompiledBackendBase<CompiledGpEnsemble> {
 public:
  /// Flattens `learners` (parallel to ascending `thresholds` and mixing
  /// `weights`). Returns nullptr — caller tries the next backend — unless
  /// every learner is a fitted BaggingClassifier whose members are all
  /// fitted GaussianProcessClassifiers of one shared feature width and the
  /// thresholds are strictly increasing (the prefix-scan precondition).
  static std::unique_ptr<CompiledGpEnsemble> Compile(
      const std::vector<std::unique_ptr<Classifier>>& learners,
      const std::vector<double>& thresholds,
      const std::vector<double>& weights);

  const char* name() const override { return "compiled-gp"; }

  /// Total flattened member count across all learners.
  int num_members() const { return static_cast<int>(members_.size()); }

  /// Largest inducing-point count over all members (scratch sizing).
  int max_inducing_points() const { return max_inducing_; }

 private:
  friend class internal::CompiledBackendBase<CompiledGpEnsemble>;

  CompiledGpEnsemble() = default;

  /// Scores one learner over the block's `count` rows (see
  /// CompiledBackendBase for the exact contract): per row, the
  /// member-order sum of MacKay-averaged probabilities and
  /// `variance + prob^2` in `sum`/`sum2` (GP members carry intrinsic
  /// variance), then the bagging mean and clamped ensemble-spread variance
  /// in `mean`/`variance`.
  void ScoreLearner(int learner, const double* rows, int stride, int count,
                    double* sum, double* sum2, double* mean,
                    double* variance) const;

  /// GaussianProcessClassifier::PredictBatchWithVariance requires the
  /// exact trained width, so the compiled path does too.
  void CheckRowWidth(int cols) const {
    CheckOrDie(cols == num_features_,
               "CompiledGpEnsemble: feature row width mismatch");
  }

  /// One member GP's flattened posterior cache: sizes, the effective
  /// kernel, and offsets into the shared pools below.
  struct Member {
    int32_t n = 0;                  // inducing points
    double length_scale = 1.0;      // effective kernel
    double signal_variance = 1.0;   // also the prior latent variance
    size_t x_offset = 0;            // inducing rows, n * k doubles
    size_t vec_offset = 0;          // grad_log_lik then sqrt_w, n each
    size_t chol_offset = 0;         // L of B, n * n row-major
    size_t std_offset = 0;          // standardizer mean then stddev, k each
  };

  std::vector<Member> members_;
  // Members of learner i: [learner_member_begin_[i],
  // learner_member_begin_[i + 1]).
  std::vector<int32_t> learner_member_begin_;  // size num_learners + 1
  std::vector<double> x_pool_;     // inducing inputs, row-major per member
  std::vector<double> vec_pool_;   // grad_log_lik / sqrt_w runs
  std::vector<double> chol_pool_;  // Cholesky factors, row-major per member
  std::vector<double> std_pool_;   // standardizer mean / stddev runs
  int max_inducing_ = 0;
  // Tier-dispatched lane primitives, resolved once at Compile() from the
  // active SIMD tier (points at a static table; never null, never owned).
  const internal::GpLaneOps* lanes_ = nullptr;
};

}  // namespace paws

#endif  // PAWS_ML_COMPILED_GP_H_

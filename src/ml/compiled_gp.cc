#include "ml/compiled_gp.h"

#include <algorithm>
#include <cmath>

#include "ml/bagging.h"
#include "ml/gaussian_process.h"
#include "ml/kernel_block.h"
#include "util/cpu_features.h"
#include "util/special.h"

namespace paws {

std::unique_ptr<CompiledGpEnsemble> CompiledGpEnsemble::Compile(
    const std::vector<std::unique_ptr<Classifier>>& learners,
    const std::vector<double>& thresholds,
    const std::vector<double>& weights) {
  if (!ValidEnsembleShape(learners, thresholds, weights)) return nullptr;
  std::unique_ptr<CompiledGpEnsemble> gp(new CompiledGpEnsemble());
  gp->thresholds_ = thresholds;
  gp->weights_ = weights;
  gp->learner_member_begin_.push_back(0);
  int k = -1;
  for (const auto& learner : learners) {
    const auto* bag = dynamic_cast<const BaggingClassifier*>(learner.get());
    if (bag == nullptr || bag->num_fitted() == 0) return nullptr;
    for (int b = 0; b < bag->num_fitted(); ++b) {
      const auto* member =
          dynamic_cast<const GaussianProcessClassifier*>(&bag->member(b));
      if (member == nullptr || !member->fitted() ||
          member->num_inducing_points() == 0) {
        return nullptr;
      }
      const Standardizer& standardizer = member->standardizer();
      if (k < 0) k = standardizer.num_features();
      if (k <= 0 || standardizer.num_features() != k) return nullptr;
      const int n = member->num_inducing_points();
      const RbfKernel& kernel = member->effective_kernel();
      Member flat;
      flat.n = n;
      flat.length_scale = kernel.length_scale;
      flat.signal_variance = kernel.signal_variance;
      // Inducing inputs: one row-major block, replacing the reference
      // path's per-row heap vectors.
      flat.x_offset = gp->x_pool_.size();
      for (const std::vector<double>& row : member->inducing_inputs()) {
        if (static_cast<int>(row.size()) != k) return nullptr;
        gp->x_pool_.insert(gp->x_pool_.end(), row.begin(), row.end());
      }
      // Posterior vectors: likelihood gradient then W^1/2, back to back.
      if (member->grad_log_lik().size() != static_cast<size_t>(n) ||
          member->sqrt_w().size() != static_cast<size_t>(n)) {
        return nullptr;
      }
      flat.vec_offset = gp->vec_pool_.size();
      gp->vec_pool_.insert(gp->vec_pool_.end(), member->grad_log_lik().begin(),
                           member->grad_log_lik().end());
      gp->vec_pool_.insert(gp->vec_pool_.end(), member->sqrt_w().begin(),
                           member->sqrt_w().end());
      const Matrix& chol = member->chol_b();
      if (chol.rows() != n || chol.cols() != n) return nullptr;
      flat.chol_offset = gp->chol_pool_.size();
      for (int i = 0; i < n; ++i) {
        gp->chol_pool_.insert(gp->chol_pool_.end(), chol.Row(i),
                              chol.Row(i) + n);
      }
      flat.std_offset = gp->std_pool_.size();
      gp->std_pool_.insert(gp->std_pool_.end(), standardizer.mean().begin(),
                           standardizer.mean().end());
      gp->std_pool_.insert(gp->std_pool_.end(), standardizer.stddev().begin(),
                           standardizer.stddev().end());
      gp->max_inducing_ = std::max(gp->max_inducing_, n);
      gp->members_.push_back(flat);
    }
    gp->learner_member_begin_.push_back(
        static_cast<int32_t>(gp->members_.size()));
  }
  gp->num_features_ = k;
  // Same resolution moment as CompiledForest: backend selection pins the
  // lane width, so PAWS_FORCE_BACKEND + set_compiled_serving(true) re-pins.
  gp->lanes_ = internal::GetGpLaneOps(ActiveSimdTier());
  return gp;
}

void CompiledGpEnsemble::ScoreLearner(int learner, const double* rows,
                                      int stride, int count, double* sum,
                                      double* sum2, double* mean,
                                      double* variance) const {
  // Reusable per-thread scratch: ScoreLearner must be concurrent-safe
  // (const, called from ParallelFor workers) and allocation-free on the
  // steady state — the reference path re-mallocs these buffers on every
  // member call.
  static thread_local std::vector<double> zt;     // standardized rows, k x m
  static thread_local std::vector<double> work;   // sq then K_* then V, n x m
  static thread_local std::vector<double> lmean;  // latent means, m
  static thread_local std::vector<double> lvar;   // sum of V^2, m

  const int m = count;
  const int k = num_features_;
  const int member_begin = learner_member_begin_[learner];
  const int member_end = learner_member_begin_[learner + 1];
  zt.resize(static_cast<size_t>(k) * m);
  work.resize(static_cast<size_t>(max_inducing_) * m);
  lmean.resize(m);
  lvar.resize(m);
  for (int mem = member_begin; mem < member_end; ++mem) {
    const Member& gp = members_[mem];
    const int n = gp.n;
    const double* mu = std_pool_.data() + gp.std_offset;
    const double* sd = mu + k;
    // Standardize the block's rows, stored transposed (zt[f * m + j]) so
    // the distance sweep below reads one contiguous lane row per feature.
    // Same `(x - mu) / sd` divide as the reference, element-independent;
    // widened tiers gather the strided row reads.
    lanes_->StandardizeT(rows, stride, m, k, mu, sd, zt.data());
    // Cross-covariance block. Per column the squared distance accumulates
    // in feature order — RbfKernel::Eval's reduction, which the compiler
    // may never reorder (and so never vectorizes in the reference's
    // one-column-at-a-time calls). The tier-dispatched kernel runs the
    // lanes ACROSS columns (register-blocked over inducing rows), so the
    // per-column chains overlap while each stays bit-exact; the
    // `signal_variance * exp(-sq / (2 l^2))` tail is verbatim Eval, left
    // to scalar libm so the transcendental rounds exactly as the
    // reference's call does.
    const double* xt = x_pool_.data() + gp.x_offset;
    const double denom = 2.0 * gp.length_scale * gp.length_scale;
    lanes_->CrossKernelSq(xt, n, k, zt.data(), m, work.data());
    lanes_->KernelTail(gp.signal_variance, denom, work.data(), n, m);
    // Latent means: i-ascending accumulation, matching the reference (and
    // the one-row dot product) bit for bit.
    const double* grad = vec_pool_.data() + gp.vec_offset;
    const double* sqrt_w = grad + n;
    std::fill(lmean.begin(), lmean.begin() + m, 0.0);
    for (int i = 0; i < n; ++i) {
      lanes_->AccumScaled(grad[i], work.data() + static_cast<size_t>(i) * m,
                          lmean.data(), m);
    }
    // Multi-RHS forward substitution in place, V = L \ (W^1/2 K_*): per
    // column the reference op order exactly (scale, p-ascending subtracts,
    // divide), columns as independent lanes, pivot loop blocked.
    lanes_->ForwardSubst(chol_pool_.data() + gp.chol_offset, sqrt_w, n,
                         work.data(), m);
    std::fill(lvar.begin(), lvar.begin() + m, 0.0);
    for (int i = 0; i < n; ++i) {
      lanes_->AccumSquare(work.data() + static_cast<size_t>(i) * m,
                          lvar.data(), m);
    }
    // MacKay-averaged probability per column, then the bagging member
    // accumulation: GP members carry intrinsic variance, so sum2 collects
    // `variance + prob^2` — BaggingClassifier::PredictBatchWithVariance's
    // second moment, first member assigning.
    const double prior = gp.signal_variance;
    for (int j = 0; j < m; ++j) {
      const double v = std::max(0.0, prior - lvar[j]);
      const double kappa = 1.0 / std::sqrt(1.0 + M_PI * v / 8.0);
      const double prob = Sigmoid(kappa * lmean[j]);
      if (mem == member_begin) {
        sum[j] = prob;
        sum2[j] = v + prob * prob;
      } else {
        sum[j] += prob;
        sum2[j] += v + prob * prob;
      }
    }
  }
  const int b = member_end - member_begin;
  for (int j = 0; j < m; ++j) {
    const double mm = sum[j] / b;
    const double ss = sum2[j] / b;
    mean[j] = mm;
    variance[j] = std::max(0.0, ss - mm * mm);
  }
}

}  // namespace paws

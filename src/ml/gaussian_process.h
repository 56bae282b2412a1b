#ifndef PAWS_ML_GAUSSIAN_PROCESS_H_
#define PAWS_ML_GAUSSIAN_PROCESS_H_

#include <memory>
#include <vector>

#include "ml/classifier.h"
#include "ml/kernel.h"
#include "util/matrix.h"

namespace paws {

/// Gaussian-process binary classifier with a logistic likelihood, fitted by
/// the Laplace approximation (Rasmussen & Williams 2006, Algorithms 3.1 and
/// 3.2). This is the paper's key weak learner: it attaches an intrinsic
/// predictive variance to each prediction, which the planner later exploits
/// for robustness (Sec. IV, Eq. 1).
///
/// Exact GP inference is cubic in the number of training points, so Fit
/// subsamples at most `max_points` rows (keeping all positives first —
/// matching the library's treatment of unreliable negatives).
struct GaussianProcessConfig {
  RbfKernel kernel{/*length_scale=*/1.0, /*signal_variance=*/1.0};
  /// If true (default) the kernel length scale is multiplied by
  /// sqrt(num_features) at fit time. Standardized independent feature
  /// vectors sit at expected squared distance 2k, so a dimension-blind
  /// length scale would make the kernel vanish in high dimensions.
  bool scale_length_with_dim = true;
  int max_points = 250;
  int max_newton_iterations = 30;
  double newton_tolerance = 1e-6;
};

template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, GaussianProcessConfig> c) {
  io(c.kernel.length_scale, c.kernel.signal_variance, c.scale_length_with_dim,
     c.max_points, c.max_newton_iterations, c.newton_tolerance);
}

class GaussianProcessClassifier : public Classifier {
 public:
  explicit GaussianProcessClassifier(GaussianProcessConfig config = {})
      : config_(config) {}

  Status Fit(const Dataset& data, Rng* rng) override;
  void PredictBatch(const FeatureMatrixView& x,
                    std::vector<double>* out_probs) const override;

  /// Averaged predictive probability plus the *latent* predictive variance
  /// Var[f_*] per row — the paper's per-prediction uncertainty score. The
  /// batch path amortizes the kernel solves across rows: cross-covariances
  /// are assembled as an (inducing x rows) block and the triangular solve
  /// L V = W^1/2 K_* runs over all columns at once, turning the
  /// dependency-chained per-row substitution into vectorizable row sweeps.
  /// Per column the arithmetic order is unchanged, so batch output is
  /// bit-identical to one-row calls.
  void PredictBatchWithVariance(const FeatureMatrixView& x,
                                std::vector<Prediction>* out) const override;
  bool ProvidesVariance() const override { return true; }
  std::unique_ptr<Classifier> CloneUntrained() const override;

  /// Archived as a "GPCL" section: the config, then (once fitted) the full
  /// posterior cache — the *effective* kernel (length scale resolved at fit
  /// time), the standardizer, inducing inputs, likelihood gradient at the
  /// mode, W^1/2 and the Cholesky factor of B — so a loaded GP predicts
  /// bit-identically without re-running Newton.
  static constexpr ArchiveSection kArchiveSection{FourCc("GPCL"), 1};
  void Save(ArchiveWriter* ar) const override { SaveRecord(*this, ar); }
  Status CheckRowWidth(int width) const override;
  template <typename Io>
  friend void ArchiveFields(Io& io,
                            ArchiveRef<Io, GaussianProcessClassifier> m) {
    io(m.config_, m.fitted_);
    if (m.fitted_) {
      io(m.kernel_.length_scale, m.kernel_.signal_variance, m.standardizer_,
         AsFlatRows(m.x_train_), m.grad_log_lik_, m.sqrt_w_, m.chol_b_);
    }
  }
  friend Status ArchiveLoaded(GaussianProcessClassifier& gp);

  int num_inducing_points() const { return static_cast<int>(x_train_.size()); }

  /// Read-only views of the fitted posterior cache (inducing inputs,
  /// likelihood gradient at the mode, W^1/2, the Cholesky factor of B, the
  /// effective kernel and the standardizer). The compiled-GP scoring
  /// backend flattens these into contiguous blocks at selection time; the
  /// arithmetic it replays over them is PredictBatchWithVariance's, term
  /// for term.
  bool fitted() const { return fitted_; }
  const RbfKernel& effective_kernel() const { return kernel_; }
  const Standardizer& standardizer() const { return standardizer_; }
  const std::vector<std::vector<double>>& inducing_inputs() const {
    return x_train_;
  }
  const std::vector<double>& grad_log_lik() const { return grad_log_lik_; }
  const std::vector<double>& sqrt_w() const { return sqrt_w_; }
  const Matrix& chol_b() const { return chol_b_; }

 private:

  GaussianProcessConfig config_;
  RbfKernel kernel_;  // effective kernel (length scale resolved at fit time)
  Standardizer standardizer_;
  std::vector<std::vector<double>> x_train_;  // standardized inducing inputs
  std::vector<double> grad_log_lik_;          // d log p(y|f) at the mode
  std::vector<double> sqrt_w_;                // W^{1/2} diagonal
  Matrix chol_b_;                             // L with B = I + W^1/2 K W^1/2
  bool fitted_ = false;
};

}  // namespace paws

#endif  // PAWS_ML_GAUSSIAN_PROCESS_H_

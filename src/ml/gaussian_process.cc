#include "ml/gaussian_process.h"

#include <algorithm>
#include <cmath>

#include "util/special.h"

namespace paws {

Status GaussianProcessClassifier::Fit(const Dataset& data, Rng* rng) {
  if (data.empty()) {
    return Status::InvalidArgument("GaussianProcess: empty data");
  }
  CheckOrDie(rng != nullptr, "GaussianProcessClassifier::Fit requires an Rng");
  standardizer_ = Standardizer::Fit(data);
  kernel_ = config_.kernel;
  if (config_.scale_length_with_dim) {
    kernel_.length_scale *= std::sqrt(static_cast<double>(data.num_features()));
  }

  // Subsample to max_points: keep positives first (they are scarce and
  // reliable), fill the remainder with random negatives.
  std::vector<int> pos, neg;
  for (int i = 0; i < data.size(); ++i) {
    (data.label(i) == 1 ? pos : neg).push_back(i);
  }
  std::vector<int> chosen;
  if (data.size() <= config_.max_points) {
    for (int i = 0; i < data.size(); ++i) chosen.push_back(i);
  } else {
    if (static_cast<int>(pos.size()) > config_.max_points / 2) {
      // Cap positives at half the budget to keep some negatives.
      const std::vector<int> sub = rng->SampleWithoutReplacement(
          static_cast<int>(pos.size()), config_.max_points / 2);
      for (int s : sub) chosen.push_back(pos[s]);
    } else {
      chosen = pos;
    }
    const int want_neg = config_.max_points - static_cast<int>(chosen.size());
    const int take = std::min<int>(want_neg, static_cast<int>(neg.size()));
    const std::vector<int> sub =
        rng->SampleWithoutReplacement(static_cast<int>(neg.size()), take);
    for (int s : sub) chosen.push_back(neg[s]);
  }

  const int n = static_cast<int>(chosen.size());
  x_train_.assign(n, {});
  std::vector<double> y(n);  // +/- 1
  for (int i = 0; i < n; ++i) {
    x_train_[i] = standardizer_.Transform(data.RowVector(chosen[i]));
    y[i] = data.label(chosen[i]) == 1 ? 1.0 : -1.0;
  }

  const Matrix k = kernel_.GramMatrix(x_train_);

  // Laplace mode finding (R&W Algorithm 3.1) with the logistic likelihood:
  //   p(y_i | f_i) = sigmoid(y_i f_i)
  //   grad_i = (y_i + 1)/2 - pi_i          with pi_i = sigmoid(f_i)
  //   W_ii  = pi_i (1 - pi_i)
  std::vector<double> f(n, 0.0);
  std::vector<double> grad(n), w(n);
  double prev_objective = -1e300;
  for (int it = 0; it < config_.max_newton_iterations; ++it) {
    for (int i = 0; i < n; ++i) {
      const double pi = Sigmoid(f[i]);
      grad[i] = (y[i] + 1.0) / 2.0 - pi;
      w[i] = std::max(1e-10, pi * (1.0 - pi));
    }
    // B = I + W^1/2 K W^1/2.
    Matrix b(n, n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        b(i, j) = std::sqrt(w[i]) * k(i, j) * std::sqrt(w[j]);
      }
      b(i, i) += 1.0;
    }
    auto chol = CholeskyFactor(b);
    if (!chol.ok()) return chol.status();
    // b_vec = W f + grad;  a = b_vec - W^1/2 B^{-1} W^1/2 K b_vec.
    std::vector<double> b_vec(n);
    for (int i = 0; i < n; ++i) b_vec[i] = w[i] * f[i] + grad[i];
    std::vector<double> kb = k.MultiplyVector(b_vec);
    std::vector<double> rhs(n);
    for (int i = 0; i < n; ++i) rhs[i] = std::sqrt(w[i]) * kb[i];
    const std::vector<double> solved = CholeskySolve(chol.value(), rhs);
    std::vector<double> a(n);
    for (int i = 0; i < n; ++i) a[i] = b_vec[i] - std::sqrt(w[i]) * solved[i];
    f = k.MultiplyVector(a);

    // Objective: -0.5 a^T f + sum log sigmoid(y_i f_i).
    double objective = -0.5 * Dot(a, f);
    for (int i = 0; i < n; ++i) objective += -Log1pExp(-y[i] * f[i]);
    if (std::fabs(objective - prev_objective) < config_.newton_tolerance) {
      prev_objective = objective;
      break;
    }
    prev_objective = objective;
  }

  // Cache quantities for prediction (Algorithm 3.2).
  grad_log_lik_.assign(n, 0.0);
  sqrt_w_.assign(n, 0.0);
  for (int i = 0; i < n; ++i) {
    const double pi = Sigmoid(f[i]);
    grad_log_lik_[i] = (y[i] + 1.0) / 2.0 - pi;
    sqrt_w_[i] = std::sqrt(std::max(1e-10, pi * (1.0 - pi)));
  }
  Matrix b(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      b(i, j) = sqrt_w_[i] * k(i, j) * sqrt_w_[j];
    }
    b(i, i) += 1.0;
  }
  auto chol = CholeskyFactor(b);
  if (!chol.ok()) return chol.status();
  chol_b_ = std::move(chol).value();
  fitted_ = true;
  return Status::OK();
}

void GaussianProcessClassifier::PredictBatch(
    const FeatureMatrixView& x, std::vector<double>* out_probs) const {
  std::vector<Prediction> preds;
  PredictBatchWithVariance(x, &preds);
  out_probs->resize(preds.size());
  for (size_t i = 0; i < preds.size(); ++i) (*out_probs)[i] = preds[i].prob;
}

void GaussianProcessClassifier::PredictBatchWithVariance(
    const FeatureMatrixView& x, std::vector<Prediction>* out) const {
  CheckOrDie(fitted_, "GaussianProcessClassifier before Fit");
  CheckOrDie(x.cols() == standardizer_.num_features(),
             "GaussianProcessClassifier: feature width mismatch");
  const int n = static_cast<int>(x_train_.size());
  const int total = x.rows();
  const int kf = x.cols();
  out->resize(total);
  const std::vector<double>& mu = standardizer_.mean();
  const std::vector<double>& sd = standardizer_.stddev();
  const double prior = kernel_.signal_variance;
  // Rows are processed in column chunks so the (inducing x rows) scratch
  // blocks stay cache-sized even for park-scale batches.
  const int kChunk = 256;
  std::vector<double> z;     // chunk rows, standardized (m x kf)
  std::vector<double> work;  // K_* then W^1/2 K_* then V = L \ ... (n x m)
  std::vector<double> mean, var;
  for (int begin = 0; begin < total; begin += kChunk) {
    const int m = std::min(kChunk, total - begin);
    z.resize(static_cast<size_t>(m) * kf);
    for (int j = 0; j < m; ++j) {
      const double* row = x.Row(begin + j);
      for (int f = 0; f < kf; ++f) {
        z[static_cast<size_t>(j) * kf + f] = (row[f] - mu[f]) / sd[f];
      }
    }
    // Cross-covariance block K_*[i][j] = k(x_train_i, z_j), through the
    // same RbfKernel::Eval that Fit's Gram matrix uses.
    work.resize(static_cast<size_t>(n) * m);
    for (int i = 0; i < n; ++i) {
      const double* xt = x_train_[i].data();
      double* krow = work.data() + static_cast<size_t>(i) * m;
      for (int j = 0; j < m; ++j) {
        krow[j] = kernel_.Eval(xt, z.data() + static_cast<size_t>(j) * kf, kf);
      }
    }
    // Latent means: mean_j = sum_i K_*[i][j] * grad_i (i ascending, matching
    // the one-row dot product bit for bit).
    mean.assign(m, 0.0);
    for (int i = 0; i < n; ++i) {
      const double g = grad_log_lik_[i];
      const double* krow = work.data() + static_cast<size_t>(i) * m;
      for (int j = 0; j < m; ++j) mean[j] += krow[j] * g;
    }
    // Multi-RHS forward substitution, in place: V = L \ (W^1/2 K_*). Each
    // column follows the scalar ForwardSubstitute order exactly; the row
    // sweeps vectorize across columns — the batch-only amortization.
    for (int i = 0; i < n; ++i) {
      double* vrow = work.data() + static_cast<size_t>(i) * m;
      for (int j = 0; j < m; ++j) vrow[j] *= sqrt_w_[i];
      for (int k = 0; k < i; ++k) {
        const double l_ik = chol_b_(i, k);
        const double* vk = work.data() + static_cast<size_t>(k) * m;
        for (int j = 0; j < m; ++j) vrow[j] -= l_ik * vk[j];
      }
      const double diag = chol_b_(i, i);
      for (int j = 0; j < m; ++j) vrow[j] /= diag;
    }
    // Latent variances: var_j = prior - sum_i V[i][j]^2 (i ascending).
    var.assign(m, 0.0);
    for (int i = 0; i < n; ++i) {
      const double* vrow = work.data() + static_cast<size_t>(i) * m;
      for (int j = 0; j < m; ++j) var[j] += vrow[j] * vrow[j];
    }
    for (int j = 0; j < m; ++j) {
      const double v = std::max(0.0, prior - var[j]);
      // MacKay's approximation of the logistic-Gaussian integral:
      //   E[sigmoid(f)] ~= sigmoid(kappa * mean), kappa = 1/sqrt(1 + pi v/8).
      const double kappa = 1.0 / std::sqrt(1.0 + M_PI * v / 8.0);
      (*out)[begin + j] = Prediction{Sigmoid(kappa * mean[j]), v};
    }
  }
}

std::unique_ptr<Classifier> GaussianProcessClassifier::CloneUntrained() const {
  return std::make_unique<GaussianProcessClassifier>(config_);
}

Status ArchiveLoaded(GaussianProcessClassifier& gp) {
  if (!gp.fitted_) return Status::OK();
  const size_t n = gp.x_train_.size();
  if (n > 0 && gp.x_train_[0].size() !=
                   static_cast<size_t>(gp.standardizer_.num_features())) {
    return Status::InvalidArgument("GaussianProcess: bad inducing-set shape");
  }
  if (gp.grad_log_lik_.size() != n || gp.sqrt_w_.size() != n ||
      gp.chol_b_.rows() != static_cast<int>(n) ||
      gp.chol_b_.cols() != static_cast<int>(n)) {
    return Status::InvalidArgument(
        "GaussianProcess: posterior cache shape mismatch");
  }
  const RbfKernel& k = gp.kernel_;
  if (!(std::isfinite(k.length_scale) && k.length_scale > 0.0 &&
        std::isfinite(k.signal_variance) && k.signal_variance > 0.0)) {
    return Status::InvalidArgument(
        "GaussianProcess: kernel length scale or signal variance not finite "
        "and positive");
  }
  bool ok = AllFinite(gp.grad_log_lik_) && AllFinite(gp.sqrt_w_);
  for (size_t i = 0; ok && i < n; ++i) {
    const double* l_row = gp.chol_b_.Row(static_cast<int>(i));
    ok = AllFinite(gp.x_train_[i]) && AllFinite(l_row, n) && l_row[i] > 0.0;
  }
  if (!ok) {
    return Status::InvalidArgument(
        "GaussianProcess: posterior cache not finite or Cholesky diagonal "
        "not positive");
  }
  return Status::OK();
}

Status GaussianProcessClassifier::CheckRowWidth(int width) const {
  if (fitted_ && width != standardizer_.num_features()) {
    return Status::InvalidArgument(
        "a Gaussian process scores rows of " +
        std::to_string(standardizer_.num_features()) + " columns, not " +
        std::to_string(width));
  }
  return Status::OK();
}

}  // namespace paws

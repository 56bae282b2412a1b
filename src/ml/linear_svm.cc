#include "ml/linear_svm.h"

#include <algorithm>
#include <cmath>

#include "util/matrix.h"
#include "util/special.h"

namespace paws {

Status LinearSvm::Fit(const Dataset& data, Rng* rng) {
  if (data.empty()) return Status::InvalidArgument("LinearSvm: empty data");
  CheckOrDie(rng != nullptr, "LinearSvm::Fit requires an Rng");
  const int n = data.size();
  const int k = data.num_features();
  standardizer_ = Standardizer::Fit(data);
  std::vector<std::vector<double>> x(n);
  std::vector<int> y(n);  // +/- 1
  for (int i = 0; i < n; ++i) {
    x[i] = standardizer_.Transform(data.RowVector(i));
    y[i] = data.label(i) == 1 ? 1 : -1;
  }

  weights_.assign(k, 0.0);
  bias_ = 0.0;
  // Pegasos: step size 1/(lambda * t).
  long t = 1;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    const std::vector<int> order = rng->Permutation(n);
    for (int idx : order) {
      const double eta = 1.0 / (config_.lambda * t);
      const double margin = y[idx] * (Dot(weights_, x[idx]) + bias_);
      for (int f = 0; f < k; ++f) {
        weights_[f] *= (1.0 - eta * config_.lambda);
      }
      if (margin < 1.0) {
        const double scale = eta * y[idx];
        for (int f = 0; f < k; ++f) weights_[f] += scale * x[idx][f];
        bias_ += scale;
      }
      ++t;
    }
  }

  // Platt scaling on training margins (Newton iterations on the two-
  // parameter logistic). Targets use Platt's label smoothing.
  int n_pos = 0;
  for (int i = 0; i < n; ++i) n_pos += data.label(i);
  const int n_neg = n - n_pos;
  const double t_pos = (n_pos + 1.0) / (n_pos + 2.0);
  const double t_neg = 1.0 / (n_neg + 2.0);
  std::vector<double> f(n), target(n);
  for (int i = 0; i < n; ++i) {
    f[i] = Dot(weights_, x[i]) + bias_;
    target[i] = data.label(i) == 1 ? t_pos : t_neg;
  }
  double a = 0.0, b = std::log((n_neg + 1.0) / (n_pos + 1.0));
  for (int it = 0; it < config_.platt_iterations; ++it) {
    double g_a = 0.0, g_b = 0.0, h_aa = 1e-10, h_ab = 0.0, h_bb = 1e-10;
    for (int i = 0; i < n; ++i) {
      const double p = Sigmoid(-(a * f[i] + b));
      const double d = p - target[i];  // dL/d(af+b) = -(p - t) * ... sign
      // L = -sum t*log p + (1-t) log(1-p); with p = sigmoid(-(af+b)),
      // dL/da = (t - p) * f ; dL/db = (t - p).
      g_a += (target[i] - p) * f[i];
      g_b += (target[i] - p);
      const double w = p * (1.0 - p);
      h_aa += w * f[i] * f[i];
      h_ab += w * f[i];
      h_bb += w;
      (void)d;
    }
    // Newton step: solve H * delta = g (2x2).
    const double det = h_aa * h_bb - h_ab * h_ab;
    if (std::fabs(det) < 1e-14) break;
    const double da = (g_a * h_bb - g_b * h_ab) / det;
    const double db = (g_b * h_aa - g_a * h_ab) / det;
    a -= da;
    b -= db;
    if (std::fabs(da) + std::fabs(db) < 1e-10) break;
  }
  platt_a_ = a;
  platt_b_ = b;
  fitted_ = true;
  return Status::OK();
}

double LinearSvm::DecisionValueRow(const double* x) const {
  // Standardization fused into the dot product: no per-row temporary.
  const std::vector<double>& mean = standardizer_.mean();
  const std::vector<double>& stddev = standardizer_.stddev();
  double acc = 0.0;
  for (size_t f = 0; f < weights_.size(); ++f) {
    acc += weights_[f] * ((x[f] - mean[f]) / stddev[f]);
  }
  return acc + bias_;
}

double LinearSvm::DecisionValue(const std::vector<double>& x) const {
  CheckOrDie(fitted_, "LinearSvm::DecisionValue before Fit");
  CheckOrDie(x.size() == weights_.size(),
             "LinearSvm::DecisionValue width mismatch");
  return DecisionValueRow(x.data());
}

void LinearSvm::PredictBatch(const FeatureMatrixView& x,
                             std::vector<double>* out_probs) const {
  CheckOrDie(fitted_, "LinearSvm::PredictBatch before Fit");
  CheckOrDie(x.cols() == static_cast<int>(weights_.size()),
             "LinearSvm::PredictBatch width mismatch");
  out_probs->resize(x.rows());
  for (int i = 0; i < x.rows(); ++i) {
    const double f = DecisionValueRow(x.Row(i));
    (*out_probs)[i] = Sigmoid(-(platt_a_ * f + platt_b_));
  }
}

std::unique_ptr<Classifier> LinearSvm::CloneUntrained() const {
  return std::make_unique<LinearSvm>(config_);
}

Status ArchiveLoaded(LinearSvm& svm) {
  const int width = svm.standardizer_.num_features();
  if (!svm.fitted_) return Status::OK();
  if (svm.weights_.size() != static_cast<size_t>(width)) {
    return Status::InvalidArgument("LinearSvm: weight width mismatch");
  }
  if (!AllFinite(svm.weights_) || !std::isfinite(svm.bias_) ||
      !std::isfinite(svm.platt_a_) || !std::isfinite(svm.platt_b_)) {
    return Status::InvalidArgument(
        "LinearSvm: weight, bias or Platt parameter not finite");
  }
  return Status::OK();
}

Status LinearSvm::CheckRowWidth(int width) const {
  if (fitted_ && static_cast<size_t>(width) != weights_.size()) {
    return Status::InvalidArgument(
        "a linear SVM scores rows of " + std::to_string(weights_.size()) +
        " columns, not " + std::to_string(width));
  }
  return Status::OK();
}

}  // namespace paws

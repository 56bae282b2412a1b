#include "ml/compiled_linear.h"

#include <algorithm>

#include "ml/bagging.h"
#include "ml/linear_svm.h"
#include "util/special.h"

namespace paws {

std::unique_ptr<CompiledLinearEnsemble> CompiledLinearEnsemble::Compile(
    const std::vector<std::unique_ptr<Classifier>>& learners,
    const std::vector<double>& thresholds,
    const std::vector<double>& weights) {
  if (!ValidEnsembleShape(learners, thresholds, weights)) return nullptr;
  std::unique_ptr<CompiledLinearEnsemble> flat(new CompiledLinearEnsemble());
  flat->thresholds_ = thresholds;
  flat->weights_ = weights;
  flat->learner_member_begin_.push_back(0);
  for (const auto& learner : learners) {
    const auto* bag = dynamic_cast<const BaggingClassifier*>(learner.get());
    if (bag == nullptr || bag->num_fitted() == 0) return nullptr;
    for (int b = 0; b < bag->num_fitted(); ++b) {
      const auto* svm = dynamic_cast<const LinearSvm*>(&bag->member(b));
      if (svm == nullptr || !svm->fitted()) return nullptr;
      const int k = static_cast<int>(svm->weights().size());
      if (flat->num_features_ == 0) flat->num_features_ = k;
      // One shared width: the flat matrix has rectangular member rows.
      if (k == 0 || k != flat->num_features_) return nullptr;
      const auto& st = svm->standardizer();
      flat->weight_rows_.insert(flat->weight_rows_.end(),
                                svm->weights().begin(), svm->weights().end());
      flat->mean_rows_.insert(flat->mean_rows_.end(), st.mean().begin(),
                              st.mean().end());
      flat->stddev_rows_.insert(flat->stddev_rows_.end(), st.stddev().begin(),
                                st.stddev().end());
      flat->bias_.push_back(svm->bias());
      flat->platt_a_.push_back(svm->platt_a());
      flat->platt_b_.push_back(svm->platt_b());
    }
    flat->learner_member_begin_.push_back(
        static_cast<int32_t>(flat->bias_.size()));
  }
  return flat;
}

void CompiledLinearEnsemble::ScoreLearner(int learner, const double* rows,
                                          int stride, int count, double* sum,
                                          double* sum2, double* mean,
                                          double* variance) const {
  const int k = num_features_;
  const int member_begin = learner_member_begin_[learner];
  const int member_end = learner_member_begin_[learner + 1];
  for (int member = member_begin; member < member_end; ++member) {
    // GEMV sweep: this member's parameter rows stay hot while it scores
    // the whole block. Standardization is fused into the dot
    // product exactly as LinearSvm::DecisionValueRow performs it —
    // accumulate w * ((x - mean) / stddev) in feature order, bias last —
    // so the decision value matches the reference bit for bit.
    const double* w = weight_rows_.data() + static_cast<size_t>(member) * k;
    const double* mu = mean_rows_.data() + static_cast<size_t>(member) * k;
    const double* sd = stddev_rows_.data() + static_cast<size_t>(member) * k;
    const double bias = bias_[member];
    const double a = platt_a_[member];
    const double b = platt_b_[member];
    // The first member assigns, so callers never pre-zero the
    // accumulators. Starting at the first member's value instead of 0.0
    // is bit-identical: 0.0 + v == v for every probability (v >= 0), and
    // the member variance is exactly 0 (LinearSvm reports none), so the
    // reference's `p.variance + p.prob * p.prob` term is `p * p`.
    if (member == member_begin) {
      for (int i = 0; i < count; ++i) {
        const double* row = rows + static_cast<size_t>(i) * stride;
        double acc = 0.0;
        for (int f = 0; f < k; ++f) acc += w[f] * ((row[f] - mu[f]) / sd[f]);
        const double p = Sigmoid(-(a * (acc + bias) + b));
        sum[i] = p;
        sum2[i] = p * p;
      }
    } else {
      for (int i = 0; i < count; ++i) {
        const double* row = rows + static_cast<size_t>(i) * stride;
        double acc = 0.0;
        for (int f = 0; f < k; ++f) acc += w[f] * ((row[f] - mu[f]) / sd[f]);
        const double p = Sigmoid(-(a * (acc + bias) + b));
        sum[i] += p;
        sum2[i] += p * p;
      }
    }
  }
  const int b_count = member_end - member_begin;
  for (int i = 0; i < count; ++i) {
    const double m = sum[i] / b_count;
    const double s = sum2[i] / b_count;
    mean[i] = m;
    variance[i] = std::max(0.0, s - m * m);
  }
}

}  // namespace paws

#include "ml/bagging.h"

#include <algorithm>
#include <cmath>

namespace paws {

Status ArchiveLoaded(BaggingConfig& config) {
  if (config.num_estimators < 1) {
    return Status::InvalidArgument("BaggingConfig: num_estimators < 1");
  }
  return Status::OK();
}

std::vector<int> BaggingClassifier::DrawBootstrap(const Dataset& data,
                                                  Rng* rng) const {
  const int n = data.size();
  std::vector<int> rows;
  if (config_.balanced) {
    // Undersample negatives to the positive count; resample positives.
    std::vector<int> pos, neg;
    pos.reserve(n);
    neg.reserve(n);
    for (int i = 0; i < n; ++i) {
      (data.label(i) == 1 ? pos : neg).push_back(i);
    }
    // With no positives (possible in tiny folds) fall back to plain
    // bootstrap so Fit still succeeds.
    if (pos.empty() || neg.empty()) {
      rows.reserve(n);
      for (int i = 0; i < n; ++i) {
        rows.push_back(rng->UniformInt(n));
      }
      return rows;
    }
    const int m = static_cast<int>(pos.size());
    rows.reserve(2 * static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) {
      rows.push_back(pos[rng->UniformInt(m)]);
      rows.push_back(neg[rng->UniformInt(static_cast<int>(neg.size()))]);
    }
    return rows;
  }
  const int draws = std::max(1, static_cast<int>(config_.subsample * n));
  rows.reserve(draws);
  for (int i = 0; i < draws; ++i) rows.push_back(rng->UniformInt(n));
  return rows;
}

Status BaggingClassifier::Fit(const Dataset& data, Rng* rng) {
  if (data.empty()) return Status::InvalidArgument("Bagging: empty data");
  CheckOrDie(rng != nullptr, "BaggingClassifier::Fit requires an Rng");
  members_.clear();
  bootstrap_counts_.clear();
  num_train_rows_ = data.size();
  const int num = config_.num_estimators;
  // Consume the caller's Rng serially: every member gets its bootstrap and
  // a forked generator up front, so fitting below is embarrassingly
  // parallel and bit-identical for any thread count.
  std::vector<std::vector<int>> bootstraps(num);
  std::vector<Rng> member_rngs;
  member_rngs.reserve(num);
  for (int b = 0; b < num; ++b) {
    bootstraps[b] = DrawBootstrap(data, rng);
    member_rngs.push_back(rng->Fork());
    if (config_.track_bootstrap_counts) {
      std::vector<int> counts(num_train_rows_, 0);
      for (int r : bootstraps[b]) ++counts[r];
      bootstrap_counts_.push_back(std::move(counts));
    }
  }
  members_.resize(num);
  std::vector<Status> statuses(num, Status::OK());
  ParallelFor(config_.parallelism, 0, num, /*grain=*/1,
              [&](std::int64_t lo, std::int64_t hi) {
                for (std::int64_t b = lo; b < hi; ++b) {
                  auto member = base_->CloneUntrained();
                  statuses[b] =
                      member->Fit(data.Subset(bootstraps[b]), &member_rngs[b]);
                  members_[b] = std::move(member);
                }
              });
  const Status st = FirstError(statuses);
  if (!st.ok()) {
    members_.clear();
    bootstrap_counts_.clear();
  }
  return st;
}

void BaggingClassifier::PredictBatch(const FeatureMatrixView& x,
                                     std::vector<double>* out_probs) const {
  CheckOrDie(!members_.empty(), "BaggingClassifier::PredictBatch before Fit");
  const int n = x.rows();
  out_probs->assign(n, 0.0);
  std::vector<double> member_probs;
  for (const auto& m : members_) {
    m->PredictBatch(x, &member_probs);
    for (int r = 0; r < n; ++r) (*out_probs)[r] += member_probs[r];
  }
  for (int r = 0; r < n; ++r) (*out_probs)[r] /= members_.size();
}

void BaggingClassifier::PredictBatchWithVariance(
    const FeatureMatrixView& x, std::vector<Prediction>* out) const {
  CheckOrDie(!members_.empty(), "BaggingClassifier before Fit");
  const int b = static_cast<int>(members_.size());
  const int n = x.rows();
  std::vector<double> mean(n, 0.0);
  std::vector<double> second_moment(n, 0.0);  // E[v_i + m_i^2]
  std::vector<Prediction> member_preds;
  for (const auto& m : members_) {
    m->PredictBatchWithVariance(x, &member_preds);
    for (int r = 0; r < n; ++r) {
      const Prediction& p = member_preds[r];
      mean[r] += p.prob;
      second_moment[r] += p.variance + p.prob * p.prob;
    }
  }
  out->resize(n);
  for (int r = 0; r < n; ++r) {
    const double m = mean[r] / b;
    const double s = second_moment[r] / b;
    (*out)[r] = Prediction{m, std::max(0.0, s - m * m)};
  }
}

std::unique_ptr<Classifier> BaggingClassifier::CloneUntrained() const {
  return std::make_unique<BaggingClassifier>(base_->CloneUntrained(), config_);
}

Status ArchiveLoaded(BaggingClassifier& bagger) {
  const std::vector<std::vector<int>>& counts = bagger.bootstrap_counts_;
  if (bagger.num_train_rows_ < 0 ||
      (!counts.empty() && counts.size() != bagger.members_.size())) {
    return Status::InvalidArgument("Bagging: malformed bootstrap counts");
  }
  return Status::OK();
}

Status BaggingClassifier::CheckCountRow(const std::vector<int>& row) const {
  if (row.size() != static_cast<size_t>(num_train_rows_)) {
    return Status::InvalidArgument("Bagging: bootstrap count row mismatch");
  }
  return Status::OK();
}

Status BaggingClassifier::CheckRowWidth(int width) const {
  for (const auto& member : members_) {
    PAWS_RETURN_IF_ERROR(member->CheckRowWidth(width));
  }
  return Status::OK();
}

StatusOr<double> BaggingClassifier::InfinitesimalJackknifeVariance(
    const std::vector<double>& x) const {
  if (!config_.track_bootstrap_counts || bootstrap_counts_.empty()) {
    return Status::FailedPrecondition(
        "IJ variance requires track_bootstrap_counts");
  }
  const int b = static_cast<int>(members_.size());
  std::vector<double> preds(b);
  double t_bar = 0.0;
  for (int j = 0; j < b; ++j) {
    preds[j] = members_[j]->PredictProb(x);
    t_bar += preds[j];
  }
  t_bar /= b;
  double var = 0.0;
  for (int i = 0; i < num_train_rows_; ++i) {
    double n_bar = 0.0;
    for (int j = 0; j < b; ++j) n_bar += bootstrap_counts_[j][i];
    n_bar /= b;
    double cov = 0.0;
    for (int j = 0; j < b; ++j) {
      cov += (bootstrap_counts_[j][i] - n_bar) * (preds[j] - t_bar);
    }
    cov /= b;
    var += cov * cov;
  }
  return var;
}

}  // namespace paws

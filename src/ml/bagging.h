#ifndef PAWS_ML_BAGGING_H_
#define PAWS_ML_BAGGING_H_

#include <memory>
#include <vector>

#include "ml/classifier.h"
#include "util/thread_pool.h"

namespace paws {

/// Bagging ensemble configuration.
struct BaggingConfig {
  int num_estimators = 10;
  /// If true, each bootstrap undersamples the majority (negative) class to
  /// match the positive count — the "balanced bagging classifier" the paper
  /// uses for the extreme class imbalance in SWS (imbalanced-learn's
  /// BalancedBaggingClassifier). Positives are sampled with replacement.
  bool balanced = false;
  /// Fraction of rows drawn per bootstrap (ignored when balanced = true).
  double subsample = 1.0;
  /// If true, bootstrap membership counts are recorded so the
  /// infinitesimal-jackknife variance estimate is available.
  bool track_bootstrap_counts = true;
  /// Threads used to fit members. Bootstraps and member RNGs are drawn
  /// serially from the caller's Rng before the parallel region, so the
  /// trained ensemble is bit-identical for every thread count.
  ParallelismConfig parallelism;
};

/// Archives everything except `parallelism`, which is a property of the
/// serving host, not the model; loaded configs default to auto threading.
template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, BaggingConfig> c) {
  io(c.num_estimators, c.balanced, c.subsample, c.track_bootstrap_counts);
}
Status ArchiveLoaded(BaggingConfig& config);

/// Bootstrap-aggregated ensemble around any base classifier. A bagging
/// ensemble of decision trees with per-split feature sampling is equivalent
/// to a random forest (paper Sec. V-C).
///
/// Uncertainty: PredictWithVariance returns the *ensemble spread* — the
/// variance of member predictions (the paper's heuristic confidence metric
/// for bagged trees), or, when members themselves provide variance (GPs),
/// the full mixture variance E[v_i + m_i^2] - m^2.
class BaggingClassifier : public Classifier {
 public:
  BaggingClassifier(std::unique_ptr<Classifier> base, BaggingConfig config)
      : base_(std::move(base)), config_(config) {
    CheckOrDie(base_ != nullptr, "BaggingClassifier requires a base learner");
    CheckOrDie(config_.num_estimators >= 1,
               "BaggingClassifier requires >= 1 estimator");
  }

  Status Fit(const Dataset& data, Rng* rng) override;
  /// Members vote batch-at-a-time: each member's own PredictBatch runs once
  /// over all rows, so per-row virtual dispatch is paid per member, not per
  /// (member, row).
  void PredictBatch(const FeatureMatrixView& x,
                    std::vector<double>* out_probs) const override;
  void PredictBatchWithVariance(const FeatureMatrixView& x,
                                std::vector<Prediction>* out) const override;
  bool ProvidesVariance() const override { return true; }
  std::unique_ptr<Classifier> CloneUntrained() const override;

  /// Archived as a "BAGG" section: the config, the base-learner prototype
  /// and every fitted member (both polymorphically, as learner fields),
  /// then the bootstrap counts backing the infinitesimal-jackknife
  /// estimate.
  static constexpr ArchiveSection kArchiveSection{FourCc("BAGG"), 1};
  void Save(ArchiveWriter* ar) const override { SaveRecord(*this, ar); }
  Status CheckRowWidth(int width) const override;
  template <typename Io>
  friend void ArchiveFields(Io& io, ArchiveRef<Io, BaggingClassifier> m) {
    io(m.config_, m.base_, m.members_, m.num_train_rows_);
    // A second call, so the cap is the member count just read: at most one
    // row of counts per member, each checked as it is read.
    io(ArchiveGuarded(
        m.bootstrap_counts_, m.members_.size(),
        [&m](const std::vector<int>& row) { return m.CheckCountRow(row); }));
  }
  friend Status ArchiveLoaded(BaggingClassifier& bagger);

  int num_fitted() const { return static_cast<int>(members_.size()); }
  const Classifier& member(int i) const { return *members_[i]; }

  /// Infinitesimal-jackknife variance estimate (Wager, Hastie & Efron 2014):
  /// Var_IJ = sum_i Cov_b(N_{b,i}, t_b)^2, where N_{b,i} is how often
  /// training row i appears in bootstrap b and t_b is member b's prediction.
  /// Requires track_bootstrap_counts; returns FailedPrecondition otherwise.
  StatusOr<double> InfinitesimalJackknifeVariance(
      const std::vector<double>& x) const;

 private:
  /// The empty ensemble the archived learner field reads into.
  BaggingClassifier() = default;
  friend void ArchiveFields(FieldReader& io,
                            std::unique_ptr<Classifier>& model);

  std::vector<int> DrawBootstrap(const Dataset& data, Rng* rng) const;
  /// One row of bootstrap counts holds a count per training row.
  Status CheckCountRow(const std::vector<int>& row) const;

  std::unique_ptr<Classifier> base_;
  BaggingConfig config_;
  std::vector<std::unique_ptr<Classifier>> members_;
  int num_train_rows_ = 0;
  // bootstrap_counts_[b][i] = multiplicity of training row i in bootstrap b.
  std::vector<std::vector<int>> bootstrap_counts_;
};

}  // namespace paws

#endif  // PAWS_ML_BAGGING_H_

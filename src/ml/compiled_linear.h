#ifndef PAWS_ML_COMPILED_LINEAR_H_
#define PAWS_ML_COMPILED_LINEAR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/classifier.h"
#include "ml/compiled_backend.h"

namespace paws {

/// Flat weight-matrix ScoringBackend for an iWare-E ensemble whose weak
/// learners are all baggings of linear SVMs (SVB — the paper's baseline
/// learner family). Every member SVM of every threshold learner is
/// flattened into one contiguous parameter pool — per-member rows of
/// Pegasos weights, standardizer means and standard deviations, plus the
/// bias and Platt coefficients — so scoring a learner is a single GEMV
/// sweep: for each member row, one fused standardize-and-dot-product pass
/// over the block's feature rows, with no virtual dispatch per member and
/// no per-call probability buffers.
///
/// Bit-exactness contract: the member decision value accumulates
/// `w[f] * ((x[f] - mean[f]) / stddev[f])` in feature order and adds the
/// bias last — exactly LinearSvm::DecisionValueRow — and the Platt
/// sigmoid, member-order bagging accumulation and learner-order mixing
/// replay the reference arithmetic term for term, so compiled-SVB serving
/// is bit-identical to the reference path. The mixing harness is shared
/// with the compiled-DTB forest (internal::CompiledBackendBase).
class CompiledLinearEnsemble
    : public internal::CompiledBackendBase<CompiledLinearEnsemble> {
 public:
  /// Flattens `learners` (parallel to ascending `thresholds` and mixing
  /// `weights`). Returns nullptr — caller tries the next backend — unless
  /// every learner is a fitted BaggingClassifier whose members are all
  /// fitted LinearSvms of one shared feature width and the thresholds are
  /// strictly increasing (the prefix-scan precondition).
  static std::unique_ptr<CompiledLinearEnsemble> Compile(
      const std::vector<std::unique_ptr<Classifier>>& learners,
      const std::vector<double>& thresholds,
      const std::vector<double>& weights);

  const char* name() const override { return "compiled-svb"; }

  /// Total flattened member count across all learners.
  int num_members() const { return static_cast<int>(bias_.size()); }

 private:
  friend class internal::CompiledBackendBase<CompiledLinearEnsemble>;

  CompiledLinearEnsemble() = default;

  /// Scores one learner over the block's `count` rows (see
  /// CompiledBackendBase for the exact contract): per row, the
  /// member-order sum of Platt-calibrated probabilities and squares in
  /// `sum`/`sum2`, then the bagging mean and clamped ensemble-spread
  /// variance in `mean`/`variance`.
  void ScoreLearner(int learner, const double* rows, int stride, int count,
                    double* sum, double* sum2, double* mean,
                    double* variance) const;

  /// LinearSvm::PredictBatch requires the exact trained width, so the
  /// compiled path does too (wider rows would silently drop features).
  void CheckRowWidth(int cols) const {
    CheckOrDie(cols == num_features_,
               "CompiledLinearEnsemble: feature row width mismatch");
  }

  // Per-member parameter rows, [member * num_features_ + feature]. Kept as
  // the raw fitted parameters (weights / means / stddevs separate, divide
  // performed at scoring time) so the arithmetic matches the reference
  // path bit for bit; pre-folding the standardizer into the weights would
  // change the rounding.
  std::vector<double> weight_rows_;
  std::vector<double> mean_rows_;
  std::vector<double> stddev_rows_;
  std::vector<double> bias_;     // per member
  std::vector<double> platt_a_;  // per member
  std::vector<double> platt_b_;  // per member
  // Members of learner i: [learner_member_begin_[i],
  // learner_member_begin_[i + 1]).
  std::vector<int32_t> learner_member_begin_;  // size num_learners + 1
};

}  // namespace paws

#endif  // PAWS_ML_COMPILED_LINEAR_H_

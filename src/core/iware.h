#ifndef PAWS_CORE_IWARE_H_
#define PAWS_CORE_IWARE_H_

#include <memory>
#include <vector>

#include "ml/bagging.h"
#include "ml/classifier.h"
#include "ml/decision_tree.h"
#include "ml/effort_curve.h"
#include "ml/gaussian_process.h"
#include "ml/linear_svm.h"
#include "ml/scoring_backend.h"

namespace paws {

/// Weak-learner family used inside iWare-E (paper Table II):
/// SVB = bagging of linear SVMs, DTB = bagging of decision trees
/// (a random forest), GPB = bagging of Gaussian-process classifiers.
enum class WeakLearnerKind {
  kSvmBagging,
  kDecisionTreeBagging,
  kGaussianProcessBagging,
};

const char* WeakLearnerName(WeakLearnerKind kind);

/// Configuration of the enhanced iWare-E ensemble with the paper's three
/// enhancements (Sec. IV):
///  1. CV-optimized classifier weights (optimize_weights),
///  2. thresholds from patrol-effort percentiles (percentile_thresholds),
///  3. Gaussian-process weak learners exposing predictive variance.
struct IWareConfig {
  /// Number of weak learners I (the paper's single hyperparameter after
  /// enhancement 2; 20 for MFNP/QENP, 10 for SWS).
  int num_thresholds = 8;
  /// Enhancement 2: percentile-based thresholds; false reverts to the
  /// original uniform grid [theta_min, theta_max] (ablation A3).
  bool percentile_thresholds = true;
  double theta_min = 0.0;
  double theta_max = 7.5;
  /// Enhancement 1: optimize classifier weights by cross-validated log
  /// loss; false reverts to equal weights (ablation A2).
  bool optimize_weights = true;
  int cv_folds = 3;
  /// Minimum rows (and at least one of each class) a filtered subset needs
  /// for its weak learner to be trained.
  int min_subset_rows = 20;

  WeakLearnerKind weak_learner = WeakLearnerKind::kGaussianProcessBagging;
  BaggingConfig bagging;
  DecisionTreeConfig tree;
  LinearSvmConfig svm;
  GaussianProcessConfig gp;

  /// Archived with a schema version of its own: every field above, but
  /// not `parallelism` (below), which describes the serving host rather
  /// than the model.
  static constexpr ArchiveSection kArchiveSection{0, 1};

  /// Threads used by Fit (CV folds, per-threshold weak-learner training)
  /// and by the batch prediction paths (row chunks). All parallel regions
  /// fork their random streams serially first and write disjoint output
  /// slots, so results are bit-identical for every thread count; 1 runs
  /// everything inline on the caller. MakeWeakLearner propagates this
  /// setting to the bagging ensemble unless `bagging.parallelism` was
  /// pinned explicitly.
  ParallelismConfig parallelism;
};

template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, IWareConfig> c) {
  io(c.num_thresholds, c.percentile_thresholds, c.theta_min, c.theta_max,
     c.optimize_weights, c.cv_folds, c.min_subset_rows,
     ArchiveAs<uint8_t>(c.weak_learner, WeakLearnerKind::kSvmBagging,
                        WeakLearnerKind::kGaussianProcessBagging),
     c.bagging, c.tree, c.svm, c.gp);
}

/// Builds the bagging weak learner (SVB / DTB / GPB) described by `config`
/// — also usable standalone as the paper's non-iWare baselines.
std::unique_ptr<Classifier> MakeWeakLearner(const IWareConfig& config);

/// The imperfect-observation-aware ensemble. Weak learner C_{theta_i} is
/// trained on the subset D_{theta_i} where negative rows with patrol effort
/// <= theta_i are removed (positives always kept). At prediction time the
/// weak learners with theta_i <= (the point's patrol effort) are
/// "qualified" and vote with the learned weights, so the prediction is a
/// function of both features and hypothetical patrol effort — exactly the
/// black-box g_v(c) the planner optimizes.
class IWareEnsemble {
 public:
  explicit IWareEnsemble(IWareConfig config) : config_(std::move(config)) {}

  /// Trains thresholds, weak learners and weights. Fails if the data are
  /// too small or single-class.
  Status Fit(const Dataset& data, Rng* rng);

  /// Predicted detection probability and mixture variance for features `x`
  /// under hypothetical current patrol effort `effort`. One-row wrapper
  /// over PredictBatch, so looped pointwise calls and batch calls are
  /// bit-identical.
  Prediction Predict(const std::vector<double>& x, double effort) const;
  double PredictProb(const std::vector<double>& x, double effort) const {
    return Predict(x, effort).prob;
  }

  /// Batch prediction under one shared hypothetical effort (the risk-map
  /// hot path): every qualified weak learner scores the whole batch once.
  void PredictBatch(const FeatureMatrixView& x, double effort,
                    std::vector<Prediction>* out) const;

  /// Batch prediction with per-row efforts (dataset scoring). Rows are
  /// grouped by NumQualified(effort) — rows in one group mix the same
  /// learners — and each group is gathered and scored as one shared-effort
  /// batch at a member row's own effort, so every row matches the
  /// pointwise Predict at its effort bit for bit.
  void PredictBatch(const FeatureMatrixView& x,
                    const std::vector<double>& efforts,
                    std::vector<Prediction>* out) const;

  /// Tabulates g_v(c) / nu_v(c) for every row of `x` over `effort_grid` in
  /// one pass: each weak learner is evaluated once per row, and the grid
  /// reuses those evaluations (effort only gates which learners vote, not
  /// what they output). This feeds the planner's PWL construction, the
  /// risk-map sweeps, and the field-test simulator.
  EffortCurveTable PredictEffortCurves(const FeatureMatrixView& x,
                                       std::vector<double> effort_grid) const;

  /// Scores every row of `data` using each row's own effort channel.
  std::vector<double> PredictDataset(const Dataset& data) const;

  /// Number of weak learners qualified to vote at `effort`: those whose
  /// threshold does not exceed it (non-decreasing in effort; a NaN effort
  /// qualifies every learner, as in every ScoringBackend).
  int NumQualified(double effort) const;

  int num_learners() const { return static_cast<int>(learners_.size()); }
  const std::vector<double>& thresholds() const { return thresholds_; }
  const std::vector<double>& weights() const { return weights_; }
  const IWareConfig& config() const { return config_; }

  /// Re-pins the thread count used by the prediction paths (training used
  /// the value in place at Fit time). Outputs are unaffected: every
  /// parallel region is bit-identical across thread counts, so this only
  /// trades wall time — benchmarks use it to measure serial vs parallel.
  void set_parallelism(ParallelismConfig parallelism) {
    config_.parallelism = parallelism;
  }

  /// The ScoringBackend every serving call dispatches through — selected
  /// per ensemble when the learner set changes (Fit / Load /
  /// set_compiled_serving): "compiled-dtb[-avx2|-avx512]" (flat SoA
  /// forest at the active SIMD dispatch tier; see util/cpu_features.h
  /// and the PAWS_FORCE_BACKEND override) for bagged trees,
  /// "compiled-svb" (flat weight-matrix GEMV) for bagged linear SVMs,
  /// "compiled-gp" (fused kernel-block sweep) for bagged Gaussian
  /// processes, "reference" (virtual dispatch) otherwise. All backends
  /// are bit-identical; only wall time differs.
  const ScoringBackend& scoring_backend() const {
    CheckOrDie(backend_ != nullptr, "IWareEnsemble: backend before Fit");
    return *backend_;
  }
  /// scoring_backend().name(), or "none" before Fit/Load.
  const char* scoring_backend_name() const {
    return backend_ != nullptr ? backend_->name() : "none";
  }
  /// True when serving runs through a compiled (non-reference) backend.
  bool has_compiled_backend() const;
  /// True when the selected backend is the flat compiled-DTB forest at
  /// any SIMD tier (kept for DTB-specific benchmarks/tests; SVB and GPB
  /// compile to "compiled-svb"/"compiled-gp" and also report
  /// has_compiled_backend()).
  bool has_compiled_forest() const;

  /// Re-selects the serving backend: false pins the reference path, true
  /// restores the best compiled backend the learner set supports.
  /// Predictions are bit-identical either way — benchmarks and the
  /// equivalence tests use this to time/compare the reference path.
  void set_compiled_serving(bool enabled);

  /// OK when every weak learner scores rows of `width` columns; otherwise
  /// InvalidArgument naming both widths.
  Status CheckRowWidth(int width) const;

  /// Archived as an "IWAR" section: the config, then (once fitted) the
  /// thresholds, optimized weights and every weak learner. A loaded
  /// ensemble predicts bit-identically to the saved one (thread pinning
  /// resets to auto; see set_parallelism).
  static constexpr ArchiveSection kArchiveSection{FourCc("IWAR"), 1};
  template <typename Io>
  friend void ArchiveFields(Io& io, ArchiveRef<Io, IWareEnsemble> m) {
    io(m.config_, m.fitted_);
    if (!m.fitted_) return;
    io(m.thresholds_, m.weights_);
    // A second call, so the cap is the threshold count just read.
    io(ArchiveGuarded(m.learners_, m.thresholds_.size()));
  }
  friend Status ArchiveLoaded(IWareEnsemble& model);

 private:
  std::vector<double> ComputeThresholds(const Dataset& data) const;

  /// Re-selects the serving backend for `learners_` (SelectScoringBackend:
  /// compiled-DTB, compiled-SVB, or reference). Called at the end of Fit
  /// and Load: the backend is derived state, never serialized, so the
  /// archive format is untouched.
  void RebuildScoringBackend();

  /// The per-call ensemble view the backend reads (reference backend only;
  /// compiled backends own flattened copies).
  WeakLearnerSetView View() const {
    return WeakLearnerSetView{learners_, thresholds_, weights_};
  }

  IWareConfig config_;
  std::vector<double> thresholds_;
  std::vector<std::unique_ptr<Classifier>> learners_;
  std::vector<double> weights_;
  std::unique_ptr<ScoringBackend> backend_;
  bool fitted_ = false;
};

}  // namespace paws

#endif  // PAWS_CORE_IWARE_H_

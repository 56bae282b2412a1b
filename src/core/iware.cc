#include "core/iware.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "ml/cross_validation.h"
#include "ml/weight_optimizer.h"
#include "util/thread_pool.h"

namespace paws {

Status ArchiveLoaded(IWareEnsemble& model) {
  if (model.fitted_) {
    const size_t count = model.learners_.size();
    if (count == 0 || count != model.thresholds_.size() ||
        count != model.weights_.size()) {
      return Status::InvalidArgument(
          "IWareEnsemble: learner/threshold/weight count mismatch");
    }
    if (!AllFinite(model.thresholds_)) {
      return Status::InvalidArgument("IWareEnsemble: threshold not finite");
    }
    for (size_t i = 1; i < model.thresholds_.size(); ++i) {
      if (!(model.thresholds_[i] > model.thresholds_[i - 1])) {
        return Status::InvalidArgument(
            "IWareEnsemble: thresholds not strictly increasing");
      }
    }
    // Serving mixes sum(w * p) / sum(w): a negative weight can move that
    // outside [0, 1] and a NaN one makes it NaN. Zero is legal (a zero sum
    // falls back to learner 0).
    for (const double w : model.weights_) {
      if (!(w >= 0.0 && std::isfinite(w))) {
        return Status::InvalidArgument(
            "IWareEnsemble: weight negative or not finite");
      }
    }
  }
  // The serving backend is derived state — re-selected here rather than
  // serialized, so the archive format predates and outlives it.
  model.RebuildScoringBackend();
  return Status::OK();
}

Status IWareEnsemble::CheckRowWidth(int width) const {
  for (const auto& learner : learners_) {
    PAWS_RETURN_IF_ERROR(learner->CheckRowWidth(width));
  }
  return Status::OK();
}

void IWareEnsemble::RebuildScoringBackend() {
  backend_ =
      fitted_ ? SelectScoringBackend(learners_, thresholds_, weights_)
              : nullptr;
}

bool IWareEnsemble::has_compiled_backend() const {
  return backend_ != nullptr &&
         std::strcmp(backend_->name(), "reference") != 0;
}

bool IWareEnsemble::has_compiled_forest() const {
  // Prefix match: the compiled forest reports its SIMD dispatch tier as a
  // name suffix ("compiled-dtb-avx2" etc.).
  return backend_ != nullptr &&
         std::strncmp(backend_->name(), "compiled-dtb", 12) == 0;
}

void IWareEnsemble::set_compiled_serving(bool enabled) {
  if (!fitted_) {
    backend_ = nullptr;
    return;
  }
  backend_ = enabled ? SelectScoringBackend(learners_, thresholds_, weights_)
                     : MakeReferenceScoringBackend();
}

const char* WeakLearnerName(WeakLearnerKind kind) {
  switch (kind) {
    case WeakLearnerKind::kSvmBagging:
      return "SVB";
    case WeakLearnerKind::kDecisionTreeBagging:
      return "DTB";
    case WeakLearnerKind::kGaussianProcessBagging:
      return "GPB";
  }
  return "unknown";
}

std::unique_ptr<Classifier> MakeWeakLearner(const IWareConfig& config) {
  std::unique_ptr<Classifier> base;
  switch (config.weak_learner) {
    case WeakLearnerKind::kSvmBagging:
      base = std::make_unique<LinearSvm>(config.svm);
      break;
    case WeakLearnerKind::kDecisionTreeBagging:
      base = std::make_unique<DecisionTree>(config.tree);
      break;
    case WeakLearnerKind::kGaussianProcessBagging:
      base = std::make_unique<GaussianProcessClassifier>(config.gp);
      break;
  }
  BaggingConfig bagging = config.bagging;
  if (bagging.parallelism.num_threads == 0) {
    // Inherit the ensemble-level thread pin. Inside IWareEnsemble::Fit the
    // outer parallel region already owns the pool, so member training runs
    // inline there either way; this matters for standalone baselines.
    bagging.parallelism = config.parallelism;
  }
  return std::make_unique<BaggingClassifier>(std::move(base), bagging);
}

std::vector<double> IWareEnsemble::ComputeThresholds(
    const Dataset& data) const {
  std::vector<double> thresholds;
  const int count = config_.num_thresholds;
  if (config_.percentile_thresholds) {
    // Enhancement 2: theta_i at evenly spaced effort percentiles, starting
    // at 0% so the first learner keeps every row. Percentiles keep the
    // amount of discarded data consistent across learners and adapt to the
    // effort distribution's sparsity.
    for (int i = 0; i < count; ++i) {
      thresholds.push_back(data.EffortPercentile(100.0 * i / count));
    }
  } else {
    // Original iWare-E: uniform grid on [theta_min, theta_max].
    for (int i = 0; i < count; ++i) {
      thresholds.push_back(config_.theta_min +
                           (config_.theta_max - config_.theta_min) * i /
                               std::max(1, count - 1));
    }
  }
  // Deduplicate (sparse effort distributions can repeat percentiles).
  std::sort(thresholds.begin(), thresholds.end());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                   thresholds.end());
  return thresholds;
}

Status IWareEnsemble::Fit(const Dataset& data, Rng* rng) {
  if (data.size() < config_.min_subset_rows) {
    return Status::InvalidArgument("IWareEnsemble: too few rows");
  }
  const int pos = data.CountPositives();
  if (pos == 0 || pos == data.size()) {
    return Status::InvalidArgument("IWareEnsemble: single-class data");
  }
  CheckOrDie(rng != nullptr, "IWareEnsemble::Fit requires an Rng");

  const std::vector<double> all_thresholds = ComputeThresholds(data);

  // Train one weak learner per usable threshold on the filtered subset.
  // The Rng-free subset filtering runs serially; the expensive learner
  // fits then run in parallel, one serially forked Rng per learner, so the
  // trained set is bit-identical for every thread count.
  auto train_set = [&](const Dataset& d, const std::vector<double>& thetas,
                       std::vector<std::unique_ptr<Classifier>>* out,
                       std::vector<double>* kept_thetas,
                       Rng* fit_rng) -> Status {
    out->clear();
    kept_thetas->clear();
    std::vector<Dataset> subsets;
    for (double theta : thetas) {
      Dataset subset = d.FilterNegativesBelowEffort(theta);
      const int sp = subset.CountPositives();
      if (subset.size() < config_.min_subset_rows || sp == 0 ||
          sp == subset.size()) {
        continue;
      }
      subsets.push_back(std::move(subset));
      kept_thetas->push_back(theta);
    }
    if (subsets.empty()) {
      kept_thetas->clear();
      return Status::FailedPrecondition(
          "IWareEnsemble: no threshold produced a trainable subset");
    }
    const int count = static_cast<int>(subsets.size());
    std::vector<Rng> learner_rngs;
    learner_rngs.reserve(count);
    for (int i = 0; i < count; ++i) learner_rngs.push_back(fit_rng->Fork());
    out->resize(count);
    std::vector<Status> statuses(count, Status::OK());
    ParallelFor(config_.parallelism, 0, count, /*grain=*/1,
                [&](std::int64_t lo, std::int64_t hi) {
                  for (std::int64_t i = lo; i < hi; ++i) {
                    auto learner = MakeWeakLearner(config_);
                    statuses[i] = learner->Fit(subsets[i], &learner_rngs[i]);
                    (*out)[i] = std::move(learner);
                  }
                });
    const Status st = FirstError(statuses);
    if (!st.ok()) {
      out->clear();
      kept_thetas->clear();
    }
    return st;
  };

  // Enhancement 1: learn classifier weights from out-of-fold predictions.
  if (config_.optimize_weights && data.size() >= 4 * config_.cv_folds) {
    const std::vector<std::vector<int>> folds =
        StratifiedKFold(data.labels(), config_.cv_folds, rng);
    // Folds are independent given their serially forked Rngs; each fold
    // fills its own slot and the slots are concatenated in fold order
    // afterwards, so the optimization problem (and hence the weights) is
    // identical for every thread count.
    struct FoldRows {
      std::vector<std::vector<double>> probs;
      std::vector<std::vector<uint8_t>> qualified;
      std::vector<int> labels;
    };
    std::vector<FoldRows> fold_rows(config_.cv_folds);
    std::vector<Rng> fold_rngs;
    fold_rngs.reserve(config_.cv_folds);
    for (int f = 0; f < config_.cv_folds; ++f) {
      fold_rngs.push_back(rng->Fork());
    }
    auto run_fold = [&](int f) {
      std::vector<int> train_rows;
      for (int g = 0; g < config_.cv_folds; ++g) {
        if (g == f) continue;
        train_rows.insert(train_rows.end(), folds[g].begin(), folds[g].end());
      }
      const Dataset fold_train = data.Subset(train_rows);
      std::vector<std::unique_ptr<Classifier>> fold_learners;
      std::vector<double> fold_thetas;
      const Status st = train_set(fold_train, all_thresholds, &fold_learners,
                                  &fold_thetas, &fold_rngs[f]);
      if (!st.ok()) return;  // degenerate fold: skip its rows
      // Map fold learners back onto the global threshold list; a learner
      // votes when qualified (theta <= effort). Each fold learner scores
      // its qualifying held-out rows in one gathered batch.
      std::vector<int> fold_index(all_thresholds.size(), -1);
      for (size_t i = 0; i < all_thresholds.size(); ++i) {
        const auto it = std::find(fold_thetas.begin(), fold_thetas.end(),
                                  all_thresholds[i]);
        if (it != fold_thetas.end()) {
          fold_index[i] = static_cast<int>(it - fold_thetas.begin());
        }
      }
      const int nf = static_cast<int>(folds[f].size());
      std::vector<std::vector<double>> probs(
          nf, std::vector<double>(all_thresholds.size(), 0.5));
      std::vector<std::vector<uint8_t>> qualified(
          nf, std::vector<uint8_t>(all_thresholds.size(), 0));
      std::vector<uint8_t> any(nf, 0);
      std::vector<double> gathered, buf;
      std::vector<int> rows_idx, row_ids;
      auto gather_rows = [&](const std::vector<int>& idx) {
        row_ids.clear();
        for (int j : idx) row_ids.push_back(folds[f][j]);
        return GatherRows(data.FeaturesView(), row_ids, &gathered);
      };
      for (size_t i = 0; i < all_thresholds.size(); ++i) {
        if (fold_index[i] < 0) continue;
        rows_idx.clear();
        for (int j = 0; j < nf; ++j) {
          if (all_thresholds[i] <= data.effort(folds[f][j])) {
            rows_idx.push_back(j);
          }
        }
        if (rows_idx.empty()) continue;
        fold_learners[fold_index[i]]->PredictBatch(gather_rows(rows_idx),
                                                   &buf);
        for (size_t j = 0; j < rows_idx.size(); ++j) {
          probs[rows_idx[j]][i] = buf[j];
          qualified[rows_idx[j]][i] = 1;
          any[rows_idx[j]] = 1;
        }
      }
      // Below every threshold: the loosest learner still votes.
      rows_idx.clear();
      for (int j = 0; j < nf; ++j) {
        if (!any[j]) rows_idx.push_back(j);
      }
      if (!rows_idx.empty()) {
        fold_learners[0]->PredictBatch(gather_rows(rows_idx), &buf);
        for (size_t j = 0; j < rows_idx.size(); ++j) {
          probs[rows_idx[j]][0] = buf[j];
          qualified[rows_idx[j]][0] = 1;
        }
      }
      for (int j = 0; j < nf; ++j) {
        fold_rows[f].probs.push_back(std::move(probs[j]));
        fold_rows[f].qualified.push_back(std::move(qualified[j]));
        fold_rows[f].labels.push_back(data.label(folds[f][j]));
      }
    };
    ParallelFor(config_.parallelism, 0, config_.cv_folds, /*grain=*/1,
                [&](std::int64_t lo, std::int64_t hi) {
                  for (std::int64_t f = lo; f < hi; ++f) {
                    run_fold(static_cast<int>(f));
                  }
                });
    WeightOptimizationProblem problem;
    for (FoldRows& rows : fold_rows) {
      for (size_t j = 0; j < rows.probs.size(); ++j) {
        problem.probs.push_back(std::move(rows.probs[j]));
        problem.qualified.push_back(std::move(rows.qualified[j]));
        problem.labels.push_back(rows.labels[j]);
      }
    }
    if (!problem.probs.empty()) {
      auto weights = OptimizeEnsembleWeights(problem);
      if (weights.ok()) {
        weights_ = std::move(weights).value();
      }
    }
  }

  // Final training pass over the full dataset.
  PAWS_RETURN_IF_ERROR(
      train_set(data, all_thresholds, &learners_, &thresholds_, rng));
  if (weights_.size() != static_cast<size_t>(all_thresholds.size()) ||
      !config_.optimize_weights) {
    weights_.assign(all_thresholds.size(), 1.0 / all_thresholds.size());
  }
  // Align weights with the thresholds that survived the final pass.
  std::vector<double> aligned;
  for (double theta : thresholds_) {
    const auto it = std::find(all_thresholds.begin(), all_thresholds.end(),
                              theta);
    CheckOrDie(it != all_thresholds.end(), "iWare: threshold bookkeeping");
    aligned.push_back(weights_[it - all_thresholds.begin()]);
  }
  double z = 0.0;
  for (double w : aligned) z += w;
  if (z <= 0.0) {
    aligned.assign(thresholds_.size(), 1.0 / thresholds_.size());
  } else {
    for (double& w : aligned) w /= z;
  }
  weights_ = std::move(aligned);
  fitted_ = true;
  RebuildScoringBackend();
  return Status::OK();
}

Prediction IWareEnsemble::Predict(const std::vector<double>& x,
                                  double effort) const {
  // Thread-local scratch: pointwise sweeps (legacy callers, benchmarks)
  // would otherwise pay one heap allocation per cell. Only safe because no
  // batch implementation calls back into this wrapper — a backend looping
  // Predict per row would overwrite the buffer its own caller is reading;
  // the latch turns that bug into an immediate abort.
  static thread_local std::vector<Prediction> out;
  static thread_local bool entered = false;
  CheckOrDie(!entered,
             "IWareEnsemble::Predict re-entered from a batch scoring path; "
             "backends must not call the one-row wrapper");
  const internal::ScopedFlag guard(&entered);
  PredictBatch(FeatureMatrixView::OfRow(x), effort, &out);
  return out[0];
}

int IWareEnsemble::NumQualified(double effort) const {
  CheckOrDie(fitted_, "IWareEnsemble::NumQualified before Fit");
  int count = 0;
  for (double theta : thresholds_) count += !(theta > effort) ? 1 : 0;
  return count;
}

void IWareEnsemble::PredictBatch(const FeatureMatrixView& x, double effort,
                                 std::vector<Prediction>* out) const {
  CheckOrDie(fitted_, "IWareEnsemble::PredictBatch before Fit");
  backend_->PredictBatch(View(), x, effort, config_.parallelism, out);
}

void IWareEnsemble::PredictBatch(const FeatureMatrixView& x,
                                 const std::vector<double>& efforts,
                                 std::vector<Prediction>* out) const {
  CheckOrDie(fitted_, "IWareEnsemble::PredictBatch before Fit");
  CheckOrDie(static_cast<int>(efforts.size()) == x.rows(),
             "IWareEnsemble::PredictBatch: one effort per row required");
  out->resize(x.rows());
  // Rows with the same qualified count mix the same learners, so each group
  // is one shared-effort batch, scored at a member row's own effort. A row's
  // output never depends on which other rows share its batch.
  std::vector<std::vector<int>> groups(learners_.size() + 1);
  for (int r = 0; r < x.rows(); ++r) {
    groups[NumQualified(efforts[r])].push_back(r);
  }
  std::vector<double> gathered;
  std::vector<Prediction> buf;
  for (const std::vector<int>& rows : groups) {
    if (rows.empty()) continue;
    backend_->PredictBatch(View(), GatherRows(x, rows, &gathered),
                           efforts[rows[0]], config_.parallelism, &buf);
    for (size_t j = 0; j < rows.size(); ++j) (*out)[rows[j]] = buf[j];
  }
}

EffortCurveTable IWareEnsemble::PredictEffortCurves(
    const FeatureMatrixView& x, std::vector<double> effort_grid) const {
  CheckOrDie(fitted_, "IWareEnsemble::PredictEffortCurves before Fit");
  CheckOrDie(!effort_grid.empty(), "PredictEffortCurves: empty grid");
  for (size_t k = 1; k < effort_grid.size(); ++k) {
    CheckOrDie(effort_grid[k] > effort_grid[k - 1],
               "PredictEffortCurves: grid must be strictly increasing");
  }
  EffortCurveTable table;
  // The qualified count per grid point depends only on the thresholds.
  table.qualified_count.reserve(effort_grid.size());
  for (double effort : effort_grid) {
    table.qualified_count.push_back(NumQualified(effort));
  }
  // The backend fills num_cells/prob/variance: compiled backends score
  // each learner once per cell and assemble the grid by a weight prefix
  // scan; the reference backend re-mixes cached votes per grid point.
  // Either way the table is bit-identical.
  backend_->FillEffortCurves(View(), x, effort_grid, config_.parallelism,
                             &table);
  table.effort_grid = std::move(effort_grid);
  return table;
}

std::vector<double> IWareEnsemble::PredictDataset(const Dataset& data) const {
  std::vector<Prediction> preds;
  PredictBatch(data.FeaturesView(), data.efforts(), &preds);
  std::vector<double> out(preds.size());
  for (size_t i = 0; i < preds.size(); ++i) out[i] = preds[i].prob;
  return out;
}

}  // namespace paws

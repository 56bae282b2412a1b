#include "ml/scoring_backend.h"

#include <algorithm>
#include <cmath>

#include "ml/compiled_forest.h"
#include "ml/compiled_gp.h"
#include "ml/compiled_linear.h"

namespace paws {

namespace {

// Row-chunk sizes for the reference batched paths: large enough that the
// per-chunk learner dispatch amortizes, small enough that serving-sized
// batches still split across threads. Effort-curve rows carry more work
// per row (every learner x the whole grid), hence the smaller grain.
constexpr int kPredictRowGrain = 64;
constexpr int kCurveRowGrain = 32;

/// Serves through the learners' virtual PredictBatchWithVariance — the
/// original IWareEnsemble arithmetic, chunked over rows. Stateless: every
/// call reads the ensemble state from the view.
class ReferenceScoringBackend : public ScoringBackend {
 public:
  const char* name() const override { return "reference"; }

  void PredictBatch(const WeakLearnerSetView& ens, const FeatureMatrixView& x,
                    double effort, const ParallelismConfig& parallelism,
                    std::vector<Prediction>* out) const override {
    const int n = x.rows();
    out->resize(n);
    if (n == 0) return;
    // Row chunks are independent: each chunk runs the full learner loop
    // over its sub-view and writes only its own rows, and the per-row
    // arithmetic (learner order, weights) does not depend on the chunking,
    // so the result is bit-identical for every thread count.
    ParallelFor(
        parallelism, 0, n, kPredictRowGrain,
        [&](std::int64_t lo64, std::int64_t hi64) {
          const int lo = static_cast<int>(lo64);
          const int cn = static_cast<int>(hi64 - lo64);
          const FeatureMatrixView chunk(x.Row(lo), cn, x.cols());
          // The qualified set depends only on `effort`, so each qualified
          // learner scores the whole chunk once and the mixture is
          // assembled per row.
          std::vector<double> mean(cn, 0.0), second(cn, 0.0);
          std::vector<Prediction> buf;
          double wsum = 0.0;
          for (size_t i = 0; i < ens.learners.size(); ++i) {
            if (ens.thresholds[i] > effort) continue;
            ens.learners[i]->PredictBatchWithVariance(chunk, &buf);
            wsum += ens.weights[i];
            for (int r = 0; r < cn; ++r) {
              const Prediction& p = buf[r];
              mean[r] += ens.weights[i] * p.prob;
              second[r] += ens.weights[i] * (p.variance + p.prob * p.prob);
            }
          }
          if (wsum <= 0.0) {
            // Effort below every threshold: fall back to the loosest
            // learner.
            ens.learners[0]->PredictBatchWithVariance(chunk, &buf);
            for (int r = 0; r < cn; ++r) (*out)[lo + r] = buf[r];
            return;
          }
          for (int r = 0; r < cn; ++r) {
            const double m = mean[r] / wsum;
            const double s = second[r] / wsum;
            (*out)[lo + r] = Prediction{m, std::max(0.0, s - m * m)};
          }
        });
  }

  void FillEffortCurves(const WeakLearnerSetView& ens,
                        const FeatureMatrixView& x,
                        const std::vector<double>& effort_grid,
                        const ParallelismConfig& parallelism,
                        EffortCurveTable* table) const override {
    const int n = x.rows();
    const int m = static_cast<int>(effort_grid.size());
    const int num_learners = static_cast<int>(ens.learners.size());
    table->num_cells = n;
    table->prob.assign(static_cast<size_t>(n) * m, 0.0);
    table->variance.assign(static_cast<size_t>(n) * m, 0.0);
    if (n == 0) return;
    // Cell chunks are independent: every weak learner scores a chunk at
    // most once (the effort grid only changes which of these cached votes
    // are mixed at each grid point), each chunk writes only its own table
    // rows, and per-cell arithmetic does not depend on the chunking — so
    // the table is bit-identical for every thread count. Learners whose
    // threshold exceeds the grid's top never vote and are skipped entirely
    // (learner 0 always runs: it serves the low-effort fallback).
    ParallelFor(
        parallelism, 0, n, kCurveRowGrain,
        [&](std::int64_t lo64, std::int64_t hi64) {
          const int lo = static_cast<int>(lo64);
          const int cn = static_cast<int>(hi64 - lo64);
          const FeatureMatrixView chunk(x.Row(lo), cn, x.cols());
          std::vector<std::vector<Prediction>> votes(num_learners);
          for (int i = 0; i < num_learners; ++i) {
            if (i > 0 && ens.thresholds[i] > effort_grid.back()) continue;
            ens.learners[i]->PredictBatchWithVariance(chunk, &votes[i]);
          }
          std::vector<double> mean(cn), second(cn);
          for (int k = 0; k < m; ++k) {
            const double effort = effort_grid[k];
            std::fill(mean.begin(), mean.end(), 0.0);
            std::fill(second.begin(), second.end(), 0.0);
            double wsum = 0.0;
            for (int i = 0; i < num_learners; ++i) {
              if (ens.thresholds[i] > effort) continue;
              wsum += ens.weights[i];
              for (int r = 0; r < cn; ++r) {
                const Prediction& p = votes[i][r];
                mean[r] += ens.weights[i] * p.prob;
                second[r] += ens.weights[i] * (p.variance + p.prob * p.prob);
              }
            }
            for (int r = 0; r < cn; ++r) {
              const size_t idx = static_cast<size_t>(lo + r) * m + k;
              if (wsum <= 0.0) {
                table->prob[idx] = votes[0][r].prob;
                table->variance[idx] = votes[0][r].variance;
              } else {
                const double mu = mean[r] / wsum;
                const double s = second[r] / wsum;
                table->prob[idx] = mu;
                table->variance[idx] = std::max(0.0, s - mu * mu);
              }
            }
          }
        });
  }
};

}  // namespace

std::unique_ptr<ScoringBackend> MakeReferenceScoringBackend() {
  return std::make_unique<ReferenceScoringBackend>();
}

std::unique_ptr<ScoringBackend> SelectScoringBackend(
    const std::vector<std::unique_ptr<Classifier>>& learners,
    const std::vector<double>& thresholds,
    const std::vector<double>& weights) {
  if (auto forest = CompiledForest::Compile(learners, thresholds, weights)) {
    return forest;
  }
  if (auto linear =
          CompiledLinearEnsemble::Compile(learners, thresholds, weights)) {
    return linear;
  }
  if (auto gp = CompiledGpEnsemble::Compile(learners, thresholds, weights)) {
    return gp;
  }
  return MakeReferenceScoringBackend();
}

}  // namespace paws

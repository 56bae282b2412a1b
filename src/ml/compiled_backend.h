#ifndef PAWS_ML_COMPILED_BACKEND_H_
#define PAWS_ML_COMPILED_BACKEND_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ml/scoring_backend.h"

namespace paws {
namespace internal {

// Row-block sizes for the blocked compiled traversals: a block's feature
// rows stay resident while every learner sweeps over it, and one learner's
// flattened parameters stay hot across the whole block. Matches the
// reference path's parallel grains so thread-count sweeps compare like
// with like.
constexpr int kCompiledRowBlock = 256;
constexpr int kCompiledCurveRowBlock = 256;
static_assert(kCompiledCurveRowBlock <= kCompiledRowBlock,
              "scratch is sized by kCompiledRowBlock");

// Fixed-size per-chunk scratch: ParallelFor chunks are capped at
// kCompiledRowBlock rows, so every per-row intermediate lives on the
// worker's stack and the serving paths allocate nothing per call beyond
// their output buffers.
struct ChunkScratch {
  double sum[kCompiledRowBlock];
  double sum2[kCompiledRowBlock];
  double lmean[kCompiledRowBlock];
  double lvar[kCompiledRowBlock];
  double mean[kCompiledRowBlock];
  double second[kCompiledRowBlock];
};

// Runs `fn(lo, cn)` over [0, n) in chunks of at most `block` rows. The
// parallel grain is `block`, but a serial ParallelFor hands the whole
// range to one call, so the body re-blocks itself — every chunk reaching
// `fn` fits the fixed ChunkScratch capacity.
template <typename Fn>
void ForEachBlock(const ParallelismConfig& parallelism, int n, int block,
                  const Fn& fn) {
  ParallelFor(parallelism, 0, n, block,
              [&](std::int64_t lo64, std::int64_t hi64) {
                for (std::int64_t b = lo64; b < hi64; b += block) {
                  fn(static_cast<int>(b),
                     static_cast<int>(
                         std::min<std::int64_t>(block, hi64 - b)));
                }
              });
}

/// Shared serving harness of the compiled backends. A derived backend owns
/// a flattened copy of its learner parameters and supplies
///
///   void ScoreLearner(int learner, const double* rows, int stride,
///                     int count, double* sum, double* sum2, double* mean,
///                     double* variance) const;
///   void CheckRowWidth(int cols) const;
///
/// ScoreLearner scores one threshold learner over the contiguous block of
/// `count` rows at `rows` (row-major, stride `stride`): per row j the
/// member-order accumulation into `sum[j]`/`sum2[j]` (no pre-zeroing
/// required — the first member assigns), then the bagging mean and clamped
/// ensemble-spread variance into `mean[j]`/`variance[j]` — exactly
/// BaggingClassifier::PredictBatchWithVariance.
///
/// The base implements both ScoringBackend calls on top of it: the
/// qualified set at any effort is a prefix of the (strictly ascending)
/// threshold-sorted learner list, so shared-effort batches mix a fixed
/// prefix, and effort-curve tables score each learner once and extend a
/// running weight prefix scan along the grid — both bit-identical to the
/// reference accumulation order.
template <typename Derived>
class CompiledBackendBase : public ScoringBackend {
 public:
  int num_learners() const { return static_cast<int>(thresholds_.size()); }
  /// Widest feature index the compiled parameters read, plus one — the
  /// minimum row width accepted by the predict calls.
  int num_features() const { return num_features_; }

  void PredictBatch(const WeakLearnerSetView& /*ensemble*/,
                    const FeatureMatrixView& x, double effort,
                    const ParallelismConfig& parallelism,
                    std::vector<Prediction>* out) const override {
    const int n = x.rows();
    out->resize(n);
    if (n == 0) return;
    derived().CheckRowWidth(x.cols());
    const int q = NumQualified(effort);
    auto run_block = [&](int lo, int cn) {
      const double* rows = x.Row(lo);
      ChunkScratch s;
      std::fill(s.mean, s.mean + cn, 0.0);
      std::fill(s.second, s.second + cn, 0.0);
      double wsum = 0.0;
      for (int i = 0; i < q; ++i) {
        derived().ScoreLearner(i, rows, x.cols(), cn, s.sum, s.sum2, s.lmean,
                               s.lvar);
        const double w = weights_[i];
        wsum += w;
        for (int r = 0; r < cn; ++r) {
          s.mean[r] += w * s.lmean[r];
          s.second[r] += w * (s.lvar[r] + s.lmean[r] * s.lmean[r]);
        }
      }
      if (wsum <= 0.0) {
        // Effort below every threshold (or zero qualified weight): the
        // loosest learner's raw prediction, as the reference path does.
        derived().ScoreLearner(0, rows, x.cols(), cn, s.sum, s.sum2, s.lmean,
                               s.lvar);
        for (int r = 0; r < cn; ++r) {
          (*out)[lo + r] = Prediction{s.lmean[r], s.lvar[r]};
        }
        return;
      }
      for (int r = 0; r < cn; ++r) {
        const double m = s.mean[r] / wsum;
        const double sec = s.second[r] / wsum;
        (*out)[lo + r] = Prediction{m, std::max(0.0, sec - m * m)};
      }
    };
    ForEachBlock(parallelism, n, kCompiledRowBlock, run_block);
  }

  void FillEffortCurves(const WeakLearnerSetView& /*ensemble*/,
                        const FeatureMatrixView& x,
                        const std::vector<double>& effort_grid,
                        const ParallelismConfig& parallelism,
                        EffortCurveTable* table) const override {
    const int n = x.rows();
    const int m = static_cast<int>(effort_grid.size());
    table->num_cells = n;
    table->prob.assign(static_cast<size_t>(n) * m, 0.0);
    table->variance.assign(static_cast<size_t>(n) * m, 0.0);
    if (n == 0) return;
    derived().CheckRowWidth(x.cols());
    // Score once: learners beyond the grid's top can never qualify;
    // learner 0 always runs because it serves the below-every-threshold
    // fallback.
    const int q_max = NumQualified(effort_grid.back());
    const int num_scored = std::max(1, q_max);
    auto run_block = [&](int lo, int cn) {
      const double* rows = x.Row(lo);
      ChunkScratch s;
      // Learner scores, [learner * cn + row]. The one heap buffer on
      // this path: its height is the learner count, which ChunkScratch
      // cannot bound.
      std::vector<double> lmean(static_cast<size_t>(num_scored) * cn);
      std::vector<double> lvar(static_cast<size_t>(num_scored) * cn);
      for (int i = 0; i < num_scored; ++i) {
        derived().ScoreLearner(i, rows, x.cols(), cn, s.sum, s.sum2,
                               lmean.data() + static_cast<size_t>(i) * cn,
                               lvar.data() + static_cast<size_t>(i) * cn);
      }
      // Weight prefix scan along the grid, one row at a time: extending
      // the running mixture with learner qi replays the reference's
      // from-zero accumulation (same terms, same order), so every grid
      // point is bit-identical while the per-point cost drops from O(K)
      // to amortized O(1). Row-major emission keeps the accumulators in
      // registers and the table writes sequential.
      const double* thresholds = thresholds_.data();
      const double* weights = weights_.data();
      for (int r = 0; r < cn; ++r) {
        double* prob_row =
            table->prob.data() + static_cast<size_t>(lo + r) * m;
        double* var_row =
            table->variance.data() + static_cast<size_t>(lo + r) * m;
        double wsum = 0.0, mean = 0.0, second = 0.0;
        int qi = 0;
        for (int k = 0; k < m; ++k) {
          // Negated so a NaN grid point qualifies every learner, as in
          // NumQualified and the reference backend.
          while (qi < q_max && !(thresholds[qi] > effort_grid[k])) {
            const double w = weights[qi];
            const double lm = lmean[static_cast<size_t>(qi) * cn + r];
            const double lv = lvar[static_cast<size_t>(qi) * cn + r];
            wsum += w;
            mean += w * lm;
            second += w * (lv + lm * lm);
            ++qi;
          }
          if (wsum <= 0.0) {
            prob_row[k] = lmean[r];
            var_row[k] = lvar[r];
          } else {
            const double mu = mean / wsum;
            const double sec = second / wsum;
            prob_row[k] = mu;
            var_row[k] = std::max(0.0, sec - mu * mu);
          }
        }
      }
    };
    ForEachBlock(parallelism, n, kCompiledCurveRowBlock, run_block);
  }

 protected:
  int NumQualified(double effort) const {
    // thresholds_ is ascending, so the qualified set is the prefix below
    // the first threshold exceeding `effort` — every learner for a NaN
    // effort, which no threshold exceeds.
    return static_cast<int>(std::upper_bound(thresholds_.begin(),
                                             thresholds_.end(), effort) -
                            thresholds_.begin());
  }

  /// True when the learner/threshold/weight triple satisfies the compiled
  /// preconditions (non-empty, parallel, strictly ascending thresholds —
  /// the prefix-scan invariant).
  static bool ValidEnsembleShape(
      const std::vector<std::unique_ptr<Classifier>>& learners,
      const std::vector<double>& thresholds,
      const std::vector<double>& weights) {
    if (learners.empty() || learners.size() != thresholds.size() ||
        learners.size() != weights.size()) {
      return false;
    }
    for (size_t i = 1; i < thresholds.size(); ++i) {
      if (!(thresholds[i] > thresholds[i - 1])) return false;
    }
    return true;
  }

  std::vector<double> thresholds_;  // ascending effort thresholds
  std::vector<double> weights_;     // mixing weights
  int num_features_ = 0;

 private:
  const Derived& derived() const {
    return *static_cast<const Derived*>(this);
  }
};

}  // namespace internal
}  // namespace paws

#endif  // PAWS_ML_COMPILED_BACKEND_H_

#ifndef PAWS_ML_SCORING_BACKEND_H_
#define PAWS_ML_SCORING_BACKEND_H_

#include <memory>
#include <vector>

#include "ml/classifier.h"
#include "ml/effort_curve.h"
#include "util/feature_matrix.h"
#include "util/thread_pool.h"

namespace paws {

/// Non-owning view of an iWare-E ensemble's weak-learner state, passed into
/// every ScoringBackend call. Backends that serve straight off the fitted
/// learners (the reference path) read it; compiled backends own flattened
/// copies of everything they need and ignore it. Passing the view per call
/// (rather than capturing pointers at backend-construction time) keeps
/// backends valid across moves of the owning ensemble.
struct WeakLearnerSetView {
  const std::vector<std::unique_ptr<Classifier>>& learners;
  /// Ascending effort thresholds, parallel to `learners`: learner i votes
  /// unless thresholds[i] exceeds the hypothetical effort.
  const std::vector<double>& thresholds;
  /// Mixing weights, parallel to `learners`.
  const std::vector<double>& weights;
};

/// The serving seam of an iWare-E ensemble: one implementation of the two
/// batched scoring calls (shared-effort batches and effort-curve tables).
/// IWareEnsemble selects a backend per ensemble when the learner set
/// changes (Fit / Load / set_compiled_serving) and delegates every serving
/// call to it, so the hot paths carry no per-call branching on learner
/// kind. Per-row efforts never reach a backend: IWareEnsemble groups the
/// rows by qualified-learner count and scores each group as one
/// shared-effort batch.
///
/// Contract: every backend is bit-identical to the reference path — member
/// probabilities accumulate in member order, learner mixtures in learner
/// order, and each divide / clamp happens exactly where the reference
/// performs it. Backends must be safe for concurrent const calls.
class ScoringBackend {
 public:
  virtual ~ScoringBackend() = default;

  /// Stable identifier for logs/tests/stats, one of
  /// kScoringBackendNames below. Compiled-forest names carry the SIMD
  /// dispatch tier as a suffix ("compiled-dtb-avx2"), so operators can
  /// read what a serving process actually dispatches.
  virtual const char* name() const = 0;

  /// Batch prediction under one shared hypothetical effort (the risk-map
  /// hot path). Learner i votes unless thresholds[i] > `effort`, so a NaN
  /// effort qualifies every learner.
  virtual void PredictBatch(const WeakLearnerSetView& ensemble,
                            const FeatureMatrixView& x, double effort,
                            const ParallelismConfig& parallelism,
                            std::vector<Prediction>* out) const = 0;

  /// Fills `table->num_cells`, `table->prob` and `table->variance` for the
  /// strictly increasing `effort_grid`; the caller owns `effort_grid` and
  /// `qualified_count`.
  virtual void FillEffortCurves(const WeakLearnerSetView& ensemble,
                                const FeatureMatrixView& x,
                                const std::vector<double>& effort_grid,
                                const ParallelismConfig& parallelism,
                                EffortCurveTable* table) const = 0;
};

/// Every backend name a PAWS build can report — the canonical list that
/// docs/ARCHITECTURE.md's dispatch-tier table is checked against
/// (scripts/check_docs.py parses this array). Keep entries one per line.
inline constexpr const char* kScoringBackendNames[] = {
    "reference",
    "compiled-dtb",
    "compiled-dtb-avx2",
    "compiled-dtb-avx512",
    "compiled-svb",
    "compiled-gp",
};

/// The reference backend: virtual-dispatch scoring through the learners'
/// own PredictBatchWithVariance, mixed per row. Works for every learner
/// kind; the compiled backends are measured (and tested) against it.
std::unique_ptr<ScoringBackend> MakeReferenceScoringBackend();

/// Picks the fastest backend the learner set supports: compiled-DTB (at
/// the active SIMD dispatch tier — see util/cpu_features.h and the
/// PAWS_FORCE_BACKEND override) for baggings of decision trees,
/// compiled-SVB for baggings of linear SVMs, compiled-GP for baggings of
/// Gaussian processes, otherwise the reference backend. Never returns
/// nullptr.
std::unique_ptr<ScoringBackend> SelectScoringBackend(
    const std::vector<std::unique_ptr<Classifier>>& learners,
    const std::vector<double>& thresholds,
    const std::vector<double>& weights);

}  // namespace paws

#endif  // PAWS_ML_SCORING_BACKEND_H_

#ifndef PAWS_ML_CLASSIFIER_H_
#define PAWS_ML_CLASSIFIER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/dataset.h"
#include "util/archive.h"
#include "util/feature_matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace paws {

/// A probability with an attached predictive-uncertainty score. For weak
/// learners that do not model uncertainty, variance is 0.
struct Prediction {
  double prob = 0.0;
  double variance = 0.0;
};

namespace internal {

/// Sets a flag for the lifetime of a scope (exception-safe reset) — backs
/// the re-entrancy latch in the pointwise prediction wrappers.
class ScopedFlag {
 public:
  explicit ScopedFlag(bool* flag) : flag_(flag) { *flag_ = true; }
  ~ScopedFlag() { *flag_ = false; }
  ScopedFlag(const ScopedFlag&) = delete;
  ScopedFlag& operator=(const ScopedFlag&) = delete;

 private:
  bool* flag_;
};

}  // namespace internal

/// Abstract binary probabilistic classifier. All PAWS weak learners
/// (decision trees, SVMs, Gaussian processes) and ensembles implement this.
///
/// The interface is batch-first: PredictBatch is the primitive every
/// learner implements, and the pointwise PredictProb / PredictWithVariance
/// calls are one-row wrappers over it. Batch and looped-pointwise outputs
/// are therefore bit-identical by construction, and the serving hot paths
/// (risk maps, effort curves) never pay a virtual call per row.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains on `data`. Stochastic learners draw from `rng` (never null).
  virtual Status Fit(const Dataset& data, Rng* rng) = 0;

  /// P(y = 1 | x) for every row of `x`, written to `*out_probs` (resized).
  /// Must only be called after a successful Fit.
  virtual void PredictBatch(const FeatureMatrixView& x,
                            std::vector<double>* out_probs) const = 0;

  /// Probability plus predictive-uncertainty score per row. The default
  /// implementation reports zero variance.
  virtual void PredictBatchWithVariance(const FeatureMatrixView& x,
                                        std::vector<Prediction>* out) const {
    std::vector<double> probs;
    PredictBatch(x, &probs);
    out->resize(probs.size());
    for (size_t i = 0; i < probs.size(); ++i) {
      (*out)[i] = Prediction{probs[i], 0.0};
    }
  }

  /// P(y = 1 | x). One-row convenience wrapper over PredictBatch. The
  /// scratch buffer is thread-local so pointwise sweeps don't allocate per
  /// call; batch implementations must not call back into the same wrapper
  /// (a custom PredictBatch looping PredictProb per row would overwrite
  /// the buffer its own caller is reading) — enforced by the guard.
  double PredictProb(const std::vector<double>& x) const {
    static thread_local std::vector<double> probs;
    static thread_local bool entered = false;
    CheckOrDie(!entered,
               "Classifier::PredictProb re-entered from a PredictBatch "
               "implementation; batch impls must not call the one-row "
               "wrappers");
    const internal::ScopedFlag guard(&entered);
    PredictBatch(FeatureMatrixView::OfRow(x), &probs);
    return probs[0];
  }

  /// One-row convenience wrapper over PredictBatchWithVariance; same
  /// thread-local scratch contract as PredictProb.
  Prediction PredictWithVariance(const std::vector<double>& x) const {
    static thread_local std::vector<Prediction> preds;
    static thread_local bool entered = false;
    CheckOrDie(!entered,
               "Classifier::PredictWithVariance re-entered from a "
               "PredictBatchWithVariance implementation; batch impls must "
               "not call the one-row wrappers");
    const internal::ScopedFlag guard(&entered);
    PredictBatchWithVariance(FeatureMatrixView::OfRow(x), &preds);
    return preds[0];
  }

  /// True if PredictBatchWithVariance returns a model-intrinsic uncertainty
  /// (Gaussian processes) rather than the zero default.
  virtual bool ProvidesVariance() const { return false; }

  /// A fresh, untrained copy configured identically (for ensembles).
  virtual std::unique_ptr<Classifier> CloneUntrained() const = 0;

  /// Writes the learner as its own tagged section: config + fitted state.
  /// Untrained models serialize their config, so a loaded ensemble
  /// prototype still supports CloneUntrained.
  virtual void Save(ArchiveWriter* ar) const = 0;

  /// OK when the fitted model scores rows of `width` columns; otherwise
  /// InvalidArgument naming both widths. Only the four built-in learners
  /// load from archives, so only they need to override it.
  virtual Status CheckRowWidth(int /*width*/) const { return Status::OK(); }
};

/// A learner field is archived polymorphically: as the learner's own
/// tagged section, read back through a fixed dispatch on the four built-in
/// tags (TREE, LSVM, GPCL, BAGG). Unknown tags fail with InvalidArgument.
void ArchiveFields(FieldWriter& io, const std::unique_ptr<Classifier>& model);
void ArchiveFields(FieldReader& io, std::unique_ptr<Classifier>& model);

/// Convenience: scores every row of `data` in one batch.
std::vector<double> PredictAll(const Classifier& model, const Dataset& data);

}  // namespace paws

#endif  // PAWS_ML_CLASSIFIER_H_

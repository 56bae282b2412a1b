#ifndef PAWS_ML_LINEAR_SVM_H_
#define PAWS_ML_LINEAR_SVM_H_

#include <memory>
#include <vector>

#include "ml/classifier.h"

namespace paws {

/// Linear SVM trained with Pegasos (stochastic sub-gradient on the hinge
/// loss), with probabilities calibrated by Platt scaling on the training
/// margins. Features are standardized internally. This is the paper's
/// weakest weak learner — SVB rows in Table II sit near 0.5 AUC on the
/// hardest datasets — and is included as the faithful baseline.
struct LinearSvmConfig {
  double lambda = 1e-3;  // L2 regularization strength
  int epochs = 20;       // passes over the data
  int platt_iterations = 50;
};

template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, LinearSvmConfig> c) {
  io(c.lambda, c.epochs, c.platt_iterations);
}

class LinearSvm : public Classifier {
 public:
  explicit LinearSvm(LinearSvmConfig config = {}) : config_(config) {}

  Status Fit(const Dataset& data, Rng* rng) override;
  void PredictBatch(const FeatureMatrixView& x,
                    std::vector<double>* out_probs) const override;
  std::unique_ptr<Classifier> CloneUntrained() const override;

  /// Archived as an "LSVM" section: the config, then (once fitted) the
  /// standardizer, weights, bias and Platt parameters.
  static constexpr ArchiveSection kArchiveSection{FourCc("LSVM"), 1};
  void Save(ArchiveWriter* ar) const override { SaveRecord(*this, ar); }
  Status CheckRowWidth(int width) const override;
  template <typename Io>
  friend void ArchiveFields(Io& io, ArchiveRef<Io, LinearSvm> m) {
    io(m.config_, m.fitted_);
    if (m.fitted_) {
      io(m.standardizer_, m.weights_, m.bias_, m.platt_a_, m.platt_b_);
    }
  }
  friend Status ArchiveLoaded(LinearSvm& svm);

  /// Raw decision value w.x + b on standardized features.
  double DecisionValue(const std::vector<double>& x) const;

  /// Fitted-parameter access for the compiled-SVB serving backend, which
  /// flattens these into one weight matrix (see ml/compiled_linear.h).
  bool fitted() const { return fitted_; }
  const Standardizer& standardizer() const { return standardizer_; }
  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }
  double platt_a() const { return platt_a_; }
  double platt_b() const { return platt_b_; }

 private:
  double DecisionValueRow(const double* x) const;

  LinearSvmConfig config_;
  Standardizer standardizer_;
  std::vector<double> weights_;
  double bias_ = 0.0;
  // Platt scaling parameters: p = sigmoid(-(a*f + b)).
  double platt_a_ = -1.0;
  double platt_b_ = 0.0;
  bool fitted_ = false;
};

}  // namespace paws

#endif  // PAWS_ML_LINEAR_SVM_H_

#include "ml/classifier.h"

#include "ml/bagging.h"
#include "ml/decision_tree.h"
#include "ml/gaussian_process.h"
#include "ml/linear_svm.h"

namespace paws {

namespace {

template <typename T>
std::unique_ptr<Classifier> ReadLearner(FieldReader& io, T* learner) {
  std::unique_ptr<Classifier> owned(learner);
  io(*learner);
  return owned;
}

}  // namespace

void ArchiveFields(FieldWriter& io, const std::unique_ptr<Classifier>& model) {
  model->Save(io.archive());
}

void ArchiveFields(FieldReader& io, std::unique_ptr<Classifier>& model) {
  uint32_t tag = 0;
  io.Check(io.archive()->PeekSectionTag(&tag));
  if (!io.ok()) return;
  switch (tag) {
    case DecisionTree::kArchiveSection.tag:
      model = ReadLearner(io, new DecisionTree());
      return;
    case LinearSvm::kArchiveSection.tag:
      model = ReadLearner(io, new LinearSvm());
      return;
    case GaussianProcessClassifier::kArchiveSection.tag:
      model = ReadLearner(io, new GaussianProcessClassifier());
      return;
    case BaggingClassifier::kArchiveSection.tag:
      model = ReadLearner(io, new BaggingClassifier());
      return;
  }
  io.Check(Status::InvalidArgument("archive: unknown classifier tag '" +
                                   FourCcName(tag) + "'"));
}

}  // namespace paws

// Batch/pointwise equivalence across the classifier hierarchy: for every
// learner kind and for the iWare-E ensemble, PredictBatch output must be
// bit-identical to the looped pointwise calls, and the effort-curve tables
// must be monotone in qualified-learner count.
#include <cmath>
#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "core/iware.h"
#include "ml/bagging.h"
#include "ml/decision_tree.h"
#include "ml/gaussian_process.h"
#include "ml/linear_svm.h"
#include "util/rng.h"

namespace paws {
namespace {

// Noisy two-feature data with an effort channel (iWare qualification input).
Dataset MakeData(int n, Rng* rng) {
  Dataset d(2);
  for (int i = 0; i < n; ++i) {
    const double x0 = rng->Uniform(-1.0, 1.0);
    const double x1 = rng->Uniform(-1.0, 1.0);
    const int y = (x0 + 0.3 * x1 + rng->Uniform(-0.4, 0.4)) > 0 ? 1 : 0;
    d.AddRow({x0, x1}, y, rng->Uniform(0.0, 4.0));
  }
  return d;
}

std::unique_ptr<Classifier> MakeLearner(const std::string& kind) {
  if (kind == "tree") return std::make_unique<DecisionTree>();
  if (kind == "svm") return std::make_unique<LinearSvm>();
  if (kind == "gp") {
    GaussianProcessConfig gp;
    gp.max_points = 60;
    return std::make_unique<GaussianProcessClassifier>(gp);
  }
  BaggingConfig bagging;
  bagging.num_estimators = 4;
  return std::make_unique<BaggingClassifier>(
      std::make_unique<DecisionTree>(), bagging);
}

class BatchEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BatchEquivalenceTest, BatchMatchesLoopedPointwiseBitForBit) {
  Rng rng(7);
  const Dataset train = MakeData(300, &rng);
  const Dataset test = MakeData(64, &rng);
  auto model = MakeLearner(GetParam());
  ASSERT_TRUE(model->Fit(train, &rng).ok());

  std::vector<double> batch;
  model->PredictBatch(test.FeaturesView(), &batch);
  ASSERT_EQ(static_cast<int>(batch.size()), test.size());
  std::vector<Prediction> batch_var;
  model->PredictBatchWithVariance(test.FeaturesView(), &batch_var);
  ASSERT_EQ(static_cast<int>(batch_var.size()), test.size());

  for (int i = 0; i < test.size(); ++i) {
    // EXPECT_EQ, not EXPECT_NEAR: the batch path must be bit-identical to
    // the one-row wrappers (no reordered accumulation, no stale scratch).
    EXPECT_EQ(batch[i], model->PredictProb(test.RowVector(i)));
    const Prediction p = model->PredictWithVariance(test.RowVector(i));
    EXPECT_EQ(batch_var[i].prob, p.prob);
    EXPECT_EQ(batch_var[i].variance, p.variance);
    EXPECT_GE(batch[i], 0.0);
    EXPECT_LE(batch[i], 1.0);
    EXPECT_GE(batch_var[i].variance, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllLearners, BatchEquivalenceTest,
                         ::testing::Values("tree", "svm", "gp", "bagging"),
                         [](const auto& info) { return info.param; });

class IWareBatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(11);
    train_ = new Dataset(MakeData(500, &rng));
    test_ = new Dataset(MakeData(48, &rng));
    IWareConfig cfg;
    cfg.num_thresholds = 4;
    cfg.cv_folds = 2;
    cfg.weak_learner = WeakLearnerKind::kGaussianProcessBagging;
    cfg.bagging.num_estimators = 3;
    cfg.gp.max_points = 60;
    model_ = new IWareEnsemble(cfg);
    CheckOrDie(model_->Fit(*train_, &rng).ok(), "iware fixture fit failed");
  }
  static void TearDownTestSuite() {
    delete model_;
    delete test_;
    delete train_;
  }
  static Dataset* train_;
  static Dataset* test_;
  static IWareEnsemble* model_;
};

Dataset* IWareBatchTest::train_ = nullptr;
Dataset* IWareBatchTest::test_ = nullptr;
IWareEnsemble* IWareBatchTest::model_ = nullptr;

TEST_F(IWareBatchTest, UniformEffortBatchMatchesLoopedPointwise) {
  for (const double effort : {0.0, 0.5, 2.0, 3.9}) {
    std::vector<Prediction> batch;
    model_->PredictBatch(test_->FeaturesView(), effort, &batch);
    ASSERT_EQ(static_cast<int>(batch.size()), test_->size());
    for (int i = 0; i < test_->size(); ++i) {
      const Prediction p = model_->Predict(test_->RowVector(i), effort);
      EXPECT_EQ(batch[i].prob, p.prob);
      EXPECT_EQ(batch[i].variance, p.variance);
    }
  }
}

TEST_F(IWareBatchTest, PerRowEffortBatchMatchesLoopedPointwise) {
  // Rows on and one ulp below every threshold: one batch spans both sides
  // of every qualification edge.
  std::vector<double> efforts = test_->efforts();
  const std::vector<double>& thresholds = model_->thresholds();
  ASSERT_LE(2 * thresholds.size(), efforts.size());
  for (size_t i = 0; i < thresholds.size(); ++i) {
    efforts[2 * i] = thresholds[i];
    efforts[2 * i + 1] = std::nextafter(thresholds[i], -1.0);
  }
  std::vector<Prediction> batch;
  model_->PredictBatch(test_->FeaturesView(), efforts, &batch);
  ASSERT_EQ(static_cast<int>(batch.size()), test_->size());
  for (int i = 0; i < test_->size(); ++i) {
    const Prediction p = model_->Predict(test_->RowVector(i), efforts[i]);
    EXPECT_EQ(batch[i].prob, p.prob);
    EXPECT_EQ(batch[i].variance, p.variance);
  }
}

TEST_F(IWareBatchTest, PredictDatasetMatchesLoopedPointwise) {
  const std::vector<double> scores = model_->PredictDataset(*test_);
  for (int i = 0; i < test_->size(); ++i) {
    EXPECT_EQ(scores[i],
              model_->PredictProb(test_->RowVector(i), test_->effort(i)));
  }
}

TEST_F(IWareBatchTest, EffortCurvesMatchPointwiseAtGridPoints) {
  const std::vector<double> grid = {0.0, 0.8, 1.6, 2.4, 3.2, 4.0};
  const EffortCurveTable curves =
      model_->PredictEffortCurves(test_->FeaturesView(), grid);
  ASSERT_EQ(curves.num_cells, test_->size());
  ASSERT_EQ(curves.num_points(), static_cast<int>(grid.size()));
  for (int i = 0; i < test_->size(); ++i) {
    for (int k = 0; k < curves.num_points(); ++k) {
      const Prediction p = model_->Predict(test_->RowVector(i), grid[k]);
      EXPECT_EQ(curves.ProbAt(i, k), p.prob);
      EXPECT_EQ(curves.VarianceAt(i, k), p.variance);
    }
  }
}

TEST_F(IWareBatchTest, EffortCurvesMonotoneInQualifiedLearnerCount) {
  const std::vector<double> grid = {0.0, 0.5, 1.0, 2.0, 3.0, 4.0};
  const EffortCurveTable curves =
      model_->PredictEffortCurves(test_->FeaturesView(), grid);
  ASSERT_EQ(curves.qualified_count.size(), grid.size());
  for (size_t k = 0; k < grid.size(); ++k) {
    EXPECT_EQ(curves.qualified_count[k], model_->NumQualified(grid[k]));
    if (k > 0) {
      // More effort can only qualify more weak learners.
      EXPECT_GE(curves.qualified_count[k], curves.qualified_count[k - 1]);
    }
  }
  // The top of the grid qualifies every trained learner.
  EXPECT_EQ(curves.qualified_count.back(), model_->num_learners());
}

TEST_F(IWareBatchTest, ResampledCurvesInterpolateTheOriginal) {
  const EffortCurveTable curves = model_->PredictEffortCurves(
      test_->FeaturesView(), UniformEffortGrid(0.0, 4.0, 8));
  const EffortCurveTable coarse =
      ResampleEffortCurves(curves, UniformEffortGrid(0.0, 4.0, 4));
  ASSERT_EQ(coarse.num_cells, curves.num_cells);
  for (int v = 0; v < coarse.num_cells; ++v) {
    // Shared grid points (every other fine point) carry identical values.
    EXPECT_EQ(coarse.ProbAt(v, 1), curves.ProbAt(v, 2));
    EXPECT_EQ(coarse.VarianceAt(v, 3), curves.VarianceAt(v, 6));
  }
}

}  // namespace
}  // namespace paws

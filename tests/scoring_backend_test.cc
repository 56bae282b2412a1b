// ScoringBackend seam: every iWare-E serving call dispatches through one
// selected backend — "compiled-dtb" for bagged trees, "compiled-svb" (the
// flat weight-matrix GEMV layer) for bagged linear SVMs, "reference"
// otherwise — and every backend must be bit-identical to the reference
// path on every serving call, for every thread count, and through
// snapshot round trips. Also covers the re-entrancy latch on the one-row
// Predict* wrappers (backends must never call back into them).
#include "ml/scoring_backend.h"

#include <limits>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "core/iware.h"
#include "ml/compiled_linear.h"
#include "ml/linear_svm.h"
#include "util/archive.h"
#include "util/rng.h"

namespace paws {
namespace {

// Noisy two-feature data with an effort channel (iWare qualification
// input). Efforts are uniform on (0, 4], so effort 0.0 sits below every
// percentile threshold and exercises the loosest-learner fallback.
Dataset MakeData(int n, Rng* rng) {
  Dataset d(2);
  for (int i = 0; i < n; ++i) {
    const double x0 = rng->Uniform(-1.0, 1.0);
    const double x1 = rng->Uniform(-1.0, 1.0);
    const int y = (x0 + 0.3 * x1 + rng->Uniform(-0.4, 0.4)) > 0 ? 1 : 0;
    d.AddRow({x0, x1}, y, rng->Uniform(0.0, 4.0) + 0.01);
  }
  return d;
}

IWareConfig SvbConfig() {
  IWareConfig cfg;
  cfg.num_thresholds = 4;
  cfg.cv_folds = 2;
  cfg.weak_learner = WeakLearnerKind::kSvmBagging;
  cfg.bagging.num_estimators = 5;
  return cfg;
}

void ExpectPredictionsEq(const std::vector<Prediction>& a,
                         const std::vector<Prediction>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // EXPECT_EQ, not EXPECT_NEAR: the compiled path must preserve the
    // reference accumulation order exactly.
    EXPECT_EQ(a[i].prob, b[i].prob) << "row " << i;
    EXPECT_EQ(a[i].variance, b[i].variance) << "row " << i;
  }
}

void ExpectTablesEq(const EffortCurveTable& a, const EffortCurveTable& b) {
  ASSERT_EQ(a.num_cells, b.num_cells);
  EXPECT_EQ(a.effort_grid, b.effort_grid);
  EXPECT_EQ(a.qualified_count, b.qualified_count);
  EXPECT_EQ(a.prob, b.prob);
  EXPECT_EQ(a.variance, b.variance);
}

class CompiledSvbTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(29);
    train_ = new Dataset(MakeData(420, &rng));
    test_ = new Dataset(MakeData(96, &rng));
    model_ = new IWareEnsemble(SvbConfig());
    CheckOrDie(model_->Fit(*train_, &rng).ok(), "SVB fixture fit failed");
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

Dataset* CompiledSvbTest::train_ = nullptr;
Dataset* CompiledSvbTest::test_ = nullptr;
IWareEnsemble* CompiledSvbTest::model_ = nullptr;

TEST_F(CompiledSvbTest, SvbEnsembleSelectsCompiledSvbBackend) {
  EXPECT_STREQ(model_->scoring_backend_name(), "compiled-svb");
  EXPECT_TRUE(model_->has_compiled_backend());
  // The DTB-specific probe stays false: the flat forest is a different
  // backend.
  EXPECT_FALSE(model_->has_compiled_forest());
}

TEST_F(CompiledSvbTest, SharedEffortBatchBitIdenticalToReference) {
  // 0.0 sits below every threshold (fallback), 10.0 above every one.
  for (const double effort : {0.0, 0.5, 1.7, 3.9, 10.0}) {
    std::vector<Prediction> compiled, reference;
    model_->set_compiled_serving(true);
    ASSERT_STREQ(model_->scoring_backend_name(), "compiled-svb");
    model_->PredictBatch(test_->FeaturesView(), effort, &compiled);
    model_->set_compiled_serving(false);
    ASSERT_STREQ(model_->scoring_backend_name(), "reference");
    model_->PredictBatch(test_->FeaturesView(), effort, &reference);
    model_->set_compiled_serving(true);
    ExpectPredictionsEq(compiled, reference);
  }
}

TEST_F(CompiledSvbTest, PerRowEffortBatchBitIdenticalToReference) {
  // Per-row efforts spanning below-all-thresholds through above-all.
  std::vector<double> efforts = test_->efforts();
  efforts[0] = 0.0;
  efforts[1] = 100.0;
  efforts[2] = std::numeric_limits<double>::quiet_NaN();
  std::vector<Prediction> compiled, reference;
  model_->set_compiled_serving(true);
  model_->PredictBatch(test_->FeaturesView(), efforts, &compiled);
  model_->set_compiled_serving(false);
  model_->PredictBatch(test_->FeaturesView(), efforts, &reference);
  model_->set_compiled_serving(true);
  ExpectPredictionsEq(compiled, reference);
  // A NaN effort exceeds no threshold, so it qualifies every learner.
  std::vector<Prediction> all;
  model_->PredictBatch(test_->FeaturesView(), 100.0, &all);
  EXPECT_EQ(compiled[2].prob, all[2].prob);
  EXPECT_EQ(compiled[2].variance, all[2].variance);
}

TEST_F(CompiledSvbTest, EffortCurveTableBitIdenticalToReference) {
  // Grid starts below every threshold (fallback points) and tops out past
  // the highest one, so the prefix scan crosses every qualification edge.
  const std::vector<double> grid = UniformEffortGrid(0.0, 5.0, 25);
  model_->set_compiled_serving(true);
  const EffortCurveTable compiled =
      model_->PredictEffortCurves(test_->FeaturesView(), grid);
  model_->set_compiled_serving(false);
  const EffortCurveTable reference =
      model_->PredictEffortCurves(test_->FeaturesView(), grid);
  model_->set_compiled_serving(true);
  ExpectTablesEq(compiled, reference);
}

TEST_F(CompiledSvbTest, OnePointNanGridMatchesReference) {
  // A NaN effort qualifies every learner in every backend. Fields are
  // compared one by one: the NaN grids never compare equal.
  const std::vector<double> grid = {std::numeric_limits<double>::quiet_NaN()};
  model_->set_compiled_serving(true);
  const EffortCurveTable compiled =
      model_->PredictEffortCurves(test_->FeaturesView(), grid);
  model_->set_compiled_serving(false);
  const EffortCurveTable reference =
      model_->PredictEffortCurves(test_->FeaturesView(), grid);
  model_->set_compiled_serving(true);
  EXPECT_EQ(compiled.qualified_count, reference.qualified_count);
  EXPECT_EQ(compiled.prob, reference.prob);
  EXPECT_EQ(compiled.variance, reference.variance);
}

TEST_F(CompiledSvbTest, OneRowPredictMatchesBatchRow) {
  std::vector<Prediction> batch;
  model_->PredictBatch(test_->FeaturesView(), 2.0, &batch);
  for (int i = 0; i < test_->size(); ++i) {
    const Prediction p = model_->Predict(test_->RowVector(i), 2.0);
    EXPECT_EQ(batch[i].prob, p.prob);
    EXPECT_EQ(batch[i].variance, p.variance);
  }
}

TEST_F(CompiledSvbTest, ParallelCompiledServingBitIdenticalToSerial) {
  const std::vector<double> grid = UniformEffortGrid(0.0, 4.0, 20);
  for (const int threads : {1, 2, 4, 7}) {
    model_->set_parallelism(ParallelismConfig{threads});
    std::vector<Prediction> shared, per_row;
    model_->PredictBatch(test_->FeaturesView(), 2.0, &shared);
    model_->PredictBatch(test_->FeaturesView(), test_->efforts(), &per_row);
    const EffortCurveTable curves =
        model_->PredictEffortCurves(test_->FeaturesView(), grid);
    if (threads == 1) continue;
    model_->set_parallelism(ParallelismConfig::Serial());
    std::vector<Prediction> shared1, per_row1;
    model_->PredictBatch(test_->FeaturesView(), 2.0, &shared1);
    model_->PredictBatch(test_->FeaturesView(), test_->efforts(), &per_row1);
    const EffortCurveTable curves1 =
        model_->PredictEffortCurves(test_->FeaturesView(), grid);
    ExpectPredictionsEq(shared, shared1);
    ExpectPredictionsEq(per_row, per_row1);
    ExpectTablesEq(curves, curves1);
  }
  model_->set_parallelism(ParallelismConfig{});
}

TEST_F(CompiledSvbTest, SnapshotLoadRebuildsCompiledSvbBackend) {
  ArchiveWriter writer;
  SaveRecord(*model_, &writer);
  auto reader = ArchiveReader::FromBytes(writer.Bytes());
  ASSERT_TRUE(reader.ok());
  IWareEnsemble loaded_model{IWareConfig{}};
  ASSERT_TRUE(LoadRecord(&reader.value(), &loaded_model).ok());
  const IWareEnsemble* loaded = &loaded_model;
  // The backend is derived state: never archived, always re-selected.
  EXPECT_STREQ(loaded->scoring_backend_name(), "compiled-svb");
  std::vector<Prediction> want, got;
  model_->PredictBatch(test_->FeaturesView(), 2.5, &want);
  loaded->PredictBatch(test_->FeaturesView(), 2.5, &got);
  ExpectPredictionsEq(want, got);
  const std::vector<double> grid = UniformEffortGrid(0.0, 4.0, 10);
  ExpectTablesEq(model_->PredictEffortCurves(test_->FeaturesView(), grid),
                 loaded->PredictEffortCurves(test_->FeaturesView(), grid));
}

TEST(CompiledLinearCompileTest, RejectsNonBaggedAndNonSvmLearners) {
  Rng rng(5);
  const Dataset train = MakeData(200, &rng);
  {
    // A bare (unbagged) SVM is not a BaggingClassifier: no compilation.
    std::vector<std::unique_ptr<Classifier>> learners;
    learners.push_back(std::make_unique<LinearSvm>());
    ASSERT_TRUE(learners[0]->Fit(train, &rng).ok());
    EXPECT_EQ(CompiledLinearEnsemble::Compile(learners, {0.5}, {1.0}),
              nullptr);
  }
  {
    // A bagging of trees belongs to the forest backend, not this one.
    BaggingConfig bagging;
    bagging.num_estimators = 2;
    std::vector<std::unique_ptr<Classifier>> learners;
    learners.push_back(std::make_unique<BaggingClassifier>(
        std::make_unique<DecisionTree>(), bagging));
    ASSERT_TRUE(learners[0]->Fit(train, &rng).ok());
    EXPECT_EQ(CompiledLinearEnsemble::Compile(learners, {0.5}, {1.0}),
              nullptr);
  }
}

TEST(CompiledLinearCompileTest, RejectsNonAscendingThresholds) {
  Rng rng(5);
  const Dataset train = MakeData(200, &rng);
  BaggingConfig bagging;
  bagging.num_estimators = 2;
  std::vector<std::unique_ptr<Classifier>> learners;
  for (int i = 0; i < 2; ++i) {
    learners.push_back(std::make_unique<BaggingClassifier>(
        std::make_unique<LinearSvm>(), bagging));
    ASSERT_TRUE(learners[i]->Fit(train, &rng).ok());
  }
  // The prefix-scan mixing requires strictly increasing thresholds.
  EXPECT_EQ(CompiledLinearEnsemble::Compile(learners, {1.0, 0.5}, {0.5, 0.5}),
            nullptr);
  EXPECT_NE(CompiledLinearEnsemble::Compile(learners, {0.5, 1.0}, {0.5, 0.5}),
            nullptr);
}

// A broken batch implementation that loops the one-row wrapper per row —
// exactly the re-entrancy the thread-local scratch contract forbids. The
// latch must abort instead of silently corrupting the shared buffer.
class ReenteringClassifier : public Classifier {
 public:
  Status Fit(const Dataset&, Rng*) override { return Status::OK(); }
  void PredictBatch(const FeatureMatrixView& x,
                    std::vector<double>* out_probs) const override {
    out_probs->resize(x.rows());
    for (int i = 0; i < x.rows(); ++i) {
      const std::vector<double> row(x.Row(i), x.Row(i) + x.cols());
      (*out_probs)[i] = PredictProb(row);  // re-enters the wrapper
    }
  }
  std::unique_ptr<Classifier> CloneUntrained() const override {
    return std::make_unique<ReenteringClassifier>();
  }
  void Save(ArchiveWriter*) const override {}
};

TEST(ScoringBackendDeathTest, OneRowWrapperReentryAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const ReenteringClassifier broken;
  const std::vector<double> x = {0.5, -0.25};
  EXPECT_DEATH(broken.PredictProb(x), "re-entered");
}

}  // namespace
}  // namespace paws

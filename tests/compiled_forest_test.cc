// CompiledForest equivalence: the flat SoA serving layer a DTB iWare-E
// ensemble compiles itself into must be bit-identical to the reference
// (virtual-dispatch) path on every serving call — shared-effort batches,
// per-row-effort batches, full effort-curve tables — for every thread
// count, and must survive a snapshot round trip. Non-tree ensembles select
// another ScoringBackend (compiled-svb for bagged SVMs, compiled-gp for
// GPB; see scoring_backend_test.cc / compiled_gp_test.cc for those
// equivalence suites). The SIMD tier sweep lives in simd_traversal_test.cc.
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "core/iware.h"
#include "ml/compiled_forest.h"
#include "util/archive.h"
#include "util/cpu_features.h"
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

IWareConfig DtbConfig() {
  IWareConfig cfg;
  cfg.num_thresholds = 4;
  cfg.cv_folds = 2;
  cfg.weak_learner = WeakLearnerKind::kDecisionTreeBagging;
  cfg.bagging.num_estimators = 5;
  cfg.tree.max_features = 1;  // random-forest-style per-split sampling
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

class CompiledForestTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(17);
    train_ = new Dataset(MakeData(500, &rng));
    test_ = new Dataset(MakeData(96, &rng));
    model_ = new IWareEnsemble(DtbConfig());
    CheckOrDie(model_->Fit(*train_, &rng).ok(), "DTB fixture fit failed");
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

Dataset* CompiledForestTest::train_ = nullptr;
Dataset* CompiledForestTest::test_ = nullptr;
IWareEnsemble* CompiledForestTest::model_ = nullptr;

TEST_F(CompiledForestTest, DtbEnsembleCompilesAfterFit) {
  EXPECT_TRUE(model_->has_compiled_forest());
  EXPECT_TRUE(model_->has_compiled_backend());
  // The forest reports its SIMD dispatch tier as a name suffix; the prefix
  // is stable across hosts.
  const char* name = model_->scoring_backend_name();
  EXPECT_EQ(std::strncmp(name, "compiled-dtb", 12), 0) << name;
  switch (ActiveSimdTier()) {
    case SimdTier::kScalar:
      EXPECT_STREQ(name, "compiled-dtb");
      break;
    case SimdTier::kAvx2:
      EXPECT_STREQ(name, "compiled-dtb-avx2");
      break;
    case SimdTier::kAvx512:
      EXPECT_STREQ(name, "compiled-dtb-avx512");
      break;
  }
}

TEST_F(CompiledForestTest, SharedEffortBatchBitIdenticalToReference) {
  // 0.0 sits below every threshold (fallback), 10.0 above every one.
  for (const double effort : {0.0, 0.5, 1.7, 3.9, 10.0}) {
    std::vector<Prediction> compiled, reference;
    model_->set_compiled_serving(true);
    ASSERT_TRUE(model_->has_compiled_forest());
    model_->PredictBatch(test_->FeaturesView(), effort, &compiled);
    model_->set_compiled_serving(false);
    ASSERT_FALSE(model_->has_compiled_forest());
    model_->PredictBatch(test_->FeaturesView(), effort, &reference);
    model_->set_compiled_serving(true);
    ExpectPredictionsEq(compiled, reference);
  }
}

TEST_F(CompiledForestTest, PerRowEffortBatchBitIdenticalToReference) {
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

TEST_F(CompiledForestTest, EffortCurveTableBitIdenticalToReference) {
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

TEST_F(CompiledForestTest, OnePointNanGridMatchesReference) {
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

TEST_F(CompiledForestTest, OneRowPredictMatchesBatchRow) {
  std::vector<Prediction> batch;
  model_->PredictBatch(test_->FeaturesView(), 2.0, &batch);
  for (int i = 0; i < test_->size(); ++i) {
    const Prediction p = model_->Predict(test_->RowVector(i), 2.0);
    EXPECT_EQ(batch[i].prob, p.prob);
    EXPECT_EQ(batch[i].variance, p.variance);
  }
}

TEST_F(CompiledForestTest, ParallelCompiledServingBitIdenticalToSerial) {
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

TEST_F(CompiledForestTest, SnapshotLoadRebuildsCompiledForest) {
  ArchiveWriter writer;
  SaveRecord(*model_, &writer);
  auto reader = ArchiveReader::FromBytes(writer.Bytes());
  ASSERT_TRUE(reader.ok());
  IWareEnsemble loaded_model{IWareConfig{}};
  ASSERT_TRUE(LoadRecord(&reader.value(), &loaded_model).ok());
  const IWareEnsemble* loaded = &loaded_model;
  // The compiled layer is derived state: never archived, always rebuilt.
  EXPECT_TRUE(loaded->has_compiled_forest());
  std::vector<Prediction> want, got;
  model_->PredictBatch(test_->FeaturesView(), 2.5, &want);
  loaded->PredictBatch(test_->FeaturesView(), 2.5, &got);
  ExpectPredictionsEq(want, got);
  const std::vector<double> grid = UniformEffortGrid(0.0, 4.0, 10);
  ExpectTablesEq(model_->PredictEffortCurves(test_->FeaturesView(), grid),
                 loaded->PredictEffortCurves(test_->FeaturesView(), grid));
}

class CompiledForestFallbackTest
    : public ::testing::TestWithParam<WeakLearnerKind> {};

TEST_P(CompiledForestFallbackTest, NonTreeEnsemblesSelectAnotherBackend) {
  Rng rng(23);
  const Dataset train = MakeData(260, &rng);
  const Dataset test = MakeData(32, &rng);
  IWareConfig cfg = DtbConfig();
  cfg.weak_learner = GetParam();
  cfg.bagging.num_estimators = 3;
  cfg.gp.max_points = 50;
  IWareEnsemble model(cfg);
  ASSERT_TRUE(model.Fit(train, &rng).ok());
  // No bagged trees to flatten: the seam selects a different backend —
  // the flat GEMV layer for SVB, the fused kernel-block layer for GPB.
  EXPECT_FALSE(model.has_compiled_forest());
  model.set_compiled_serving(true);
  EXPECT_FALSE(model.has_compiled_forest());
  if (GetParam() == WeakLearnerKind::kSvmBagging) {
    EXPECT_STREQ(model.scoring_backend_name(), "compiled-svb");
  } else {
    EXPECT_STREQ(model.scoring_backend_name(), "compiled-gp");
  }
  EXPECT_TRUE(model.has_compiled_backend());
  std::vector<Prediction> preds;
  model.PredictBatch(test.FeaturesView(), 2.0, &preds);
  ASSERT_EQ(static_cast<int>(preds.size()), test.size());
  for (const Prediction& p : preds) {
    EXPECT_GE(p.prob, 0.0);
    EXPECT_LE(p.prob, 1.0);
    EXPECT_GE(p.variance, 0.0);
  }
  const EffortCurveTable curves = model.PredictEffortCurves(
      test.FeaturesView(), UniformEffortGrid(0.0, 4.0, 8));
  EXPECT_EQ(curves.num_cells, test.size());
}

INSTANTIATE_TEST_SUITE_P(
    NonTreeLearners, CompiledForestFallbackTest,
    ::testing::Values(WeakLearnerKind::kSvmBagging,
                      WeakLearnerKind::kGaussianProcessBagging),
    [](const auto& info) { return std::string(WeakLearnerName(info.param)); });

TEST(CompiledForestCompileTest, RejectsNonBaggedLearners) {
  Rng rng(5);
  const Dataset train = MakeData(200, &rng);
  std::vector<std::unique_ptr<Classifier>> learners;
  learners.push_back(std::make_unique<DecisionTree>());
  ASSERT_TRUE(learners[0]->Fit(train, &rng).ok());
  // A bare (unbagged) tree is not a BaggingClassifier: no compilation.
  EXPECT_EQ(CompiledForest::Compile(learners, {0.5}, {1.0}), nullptr);
}

TEST(CompiledForestCompileTest, RejectsNonAscendingThresholds) {
  Rng rng(5);
  const Dataset train = MakeData(200, &rng);
  BaggingConfig bagging;
  bagging.num_estimators = 2;
  std::vector<std::unique_ptr<Classifier>> learners;
  for (int i = 0; i < 2; ++i) {
    learners.push_back(std::make_unique<BaggingClassifier>(
        std::make_unique<DecisionTree>(), bagging));
    ASSERT_TRUE(learners[i]->Fit(train, &rng).ok());
  }
  // The prefix-scan mixing requires strictly increasing thresholds.
  EXPECT_EQ(CompiledForest::Compile(learners, {1.0, 0.5}, {0.5, 0.5}),
            nullptr);
  EXPECT_NE(CompiledForest::Compile(learners, {0.5, 1.0}, {0.5, 0.5}),
            nullptr);
}

}  // namespace
}  // namespace paws

// CompiledGpEnsemble equivalence: the fused kernel-block serving layer a
// GPB iWare-E ensemble compiles itself into must be bit-identical to the
// reference (virtual-dispatch) path on every serving call — including the
// variance channel, which GP members feed intrinsically — for every
// thread count, through NaN feature rows (compared bit-for-bit, since
// NaN != NaN), empty and one-row batches, and across a snapshot round
// trip.
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "core/iware.h"
#include "ml/compiled_gp.h"
#include "util/archive.h"
#include "util/rng.h"

namespace paws {
namespace {

Dataset MakeData(int n, Rng* rng) {
  Dataset d(3);
  for (int i = 0; i < n; ++i) {
    const double x0 = rng->Uniform(-1.0, 1.0);
    const double x1 = rng->Uniform(-1.0, 1.0);
    const double x2 = rng->Uniform(-1.0, 1.0);
    const int y =
        (x0 - 0.4 * x1 + 0.2 * x2 + rng->Uniform(-0.4, 0.4)) > 0 ? 1 : 0;
    d.AddRow({x0, x1, x2}, y, rng->Uniform(0.0, 4.0) + 0.01);
  }
  return d;
}

IWareConfig GpbConfig() {
  IWareConfig cfg;
  cfg.num_thresholds = 3;
  cfg.cv_folds = 2;
  cfg.weak_learner = WeakLearnerKind::kGaussianProcessBagging;
  cfg.bagging.num_estimators = 3;
  cfg.gp.max_points = 60;  // keeps the O(n^3) Laplace fits test-sized
  return cfg;
}

void ExpectPredictionsEq(const std::vector<Prediction>& a,
                         const std::vector<Prediction>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].prob, b[i].prob) << "row " << i;
    EXPECT_EQ(a[i].variance, b[i].variance) << "row " << i;
  }
}

// Bit-pattern comparison for batches that may contain NaN (EXPECT_EQ
// rejects NaN == NaN; identical arithmetic must still produce identical
// bits).
void ExpectPredictionsBitEq(const std::vector<Prediction>& a,
                            const std::vector<Prediction>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i].prob, &b[i].prob, sizeof(double)), 0)
        << "row " << i;
    EXPECT_EQ(std::memcmp(&a[i].variance, &b[i].variance, sizeof(double)), 0)
        << "row " << i;
  }
}

void ExpectTablesEq(const EffortCurveTable& a, const EffortCurveTable& b) {
  ASSERT_EQ(a.num_cells, b.num_cells);
  EXPECT_EQ(a.effort_grid, b.effort_grid);
  EXPECT_EQ(a.qualified_count, b.qualified_count);
  EXPECT_EQ(a.prob, b.prob);
  EXPECT_EQ(a.variance, b.variance);
}

class CompiledGpTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(41);
    train_ = new Dataset(MakeData(300, &rng));
    test_ = new Dataset(MakeData(67, &rng));  // odd: chunk remainders
    model_ = new IWareEnsemble(GpbConfig());
    CheckOrDie(model_->Fit(*train_, &rng).ok(), "GPB fixture fit failed");
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

Dataset* CompiledGpTest::train_ = nullptr;
Dataset* CompiledGpTest::test_ = nullptr;
IWareEnsemble* CompiledGpTest::model_ = nullptr;

TEST_F(CompiledGpTest, GpbEnsembleSelectsCompiledGp) {
  EXPECT_STREQ(model_->scoring_backend_name(), "compiled-gp");
  EXPECT_TRUE(model_->has_compiled_backend());
  EXPECT_FALSE(model_->has_compiled_forest());
  const auto* gp =
      dynamic_cast<const CompiledGpEnsemble*>(&model_->scoring_backend());
  ASSERT_NE(gp, nullptr);
  EXPECT_GT(gp->num_members(), 0);
  EXPECT_GT(gp->max_inducing_points(), 0);
}

TEST_F(CompiledGpTest, SharedEffortBatchBitIdenticalToReference) {
  // 0.0 sits below every threshold (fallback), 10.0 above every one.
  for (const double effort : {0.0, 0.5, 1.7, 3.9, 10.0}) {
    SCOPED_TRACE(effort);
    std::vector<Prediction> compiled, reference;
    model_->set_compiled_serving(true);
    ASSERT_STREQ(model_->scoring_backend_name(), "compiled-gp");
    model_->PredictBatch(test_->FeaturesView(), effort, &compiled);
    model_->set_compiled_serving(false);
    model_->PredictBatch(test_->FeaturesView(), effort, &reference);
    model_->set_compiled_serving(true);
    ExpectPredictionsEq(compiled, reference);
  }
}

TEST_F(CompiledGpTest, PerRowEffortBatchBitIdenticalToReference) {
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

TEST_F(CompiledGpTest, EffortCurveTableBitIdenticalToReference) {
  const std::vector<double> grid = UniformEffortGrid(0.0, 5.0, 17);
  model_->set_compiled_serving(true);
  const EffortCurveTable compiled =
      model_->PredictEffortCurves(test_->FeaturesView(), grid);
  model_->set_compiled_serving(false);
  const EffortCurveTable reference =
      model_->PredictEffortCurves(test_->FeaturesView(), grid);
  model_->set_compiled_serving(true);
  ExpectTablesEq(compiled, reference);
}

TEST_F(CompiledGpTest, OnePointNanGridMatchesReference) {
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

TEST_F(CompiledGpTest, ParallelCompiledServingBitIdenticalToSerial) {
  const std::vector<double> grid = UniformEffortGrid(0.0, 4.0, 9);
  model_->set_compiled_serving(true);
  model_->set_parallelism(ParallelismConfig::Serial());
  std::vector<Prediction> shared1, per_row1;
  model_->PredictBatch(test_->FeaturesView(), 2.0, &shared1);
  model_->PredictBatch(test_->FeaturesView(), test_->efforts(), &per_row1);
  const EffortCurveTable curves1 =
      model_->PredictEffortCurves(test_->FeaturesView(), grid);
  for (const int threads : {2, 4, 7}) {
    SCOPED_TRACE(threads);
    model_->set_parallelism(ParallelismConfig{threads});
    std::vector<Prediction> shared, per_row;
    model_->PredictBatch(test_->FeaturesView(), 2.0, &shared);
    model_->PredictBatch(test_->FeaturesView(), test_->efforts(), &per_row);
    ExpectPredictionsEq(shared, shared1);
    ExpectPredictionsEq(per_row, per_row1);
    ExpectTablesEq(model_->PredictEffortCurves(test_->FeaturesView(), grid),
                   curves1);
  }
  model_->set_parallelism(ParallelismConfig{});
}

TEST_F(CompiledGpTest, SnapshotLoadRebuildsCompiledGp) {
  ArchiveWriter writer;
  SaveRecord(*model_, &writer);
  auto reader = ArchiveReader::FromBytes(writer.Bytes());
  ASSERT_TRUE(reader.ok());
  IWareEnsemble loaded_model{IWareConfig{}};
  ASSERT_TRUE(LoadRecord(&reader.value(), &loaded_model).ok());
  const IWareEnsemble* loaded = &loaded_model;
  // The compiled layer is derived state: never archived, always rebuilt.
  EXPECT_STREQ(loaded->scoring_backend_name(), "compiled-gp");
  std::vector<Prediction> want, got;
  model_->PredictBatch(test_->FeaturesView(), 2.5, &want);
  loaded->PredictBatch(test_->FeaturesView(), 2.5, &got);
  ExpectPredictionsEq(want, got);
  const std::vector<double> grid = UniformEffortGrid(0.0, 4.0, 7);
  ExpectTablesEq(model_->PredictEffortCurves(test_->FeaturesView(), grid),
                 loaded->PredictEffortCurves(test_->FeaturesView(), grid));
}

TEST_F(CompiledGpTest, NanFeatureRowsPropagateIdenticallyBitForBit) {
  // NaN features flow through the standardize / kernel / substitution
  // chain as NaN probabilities in both paths; the sequences of operations
  // are identical, so even the NaN payloads must match.
  Rng rng(13);
  Dataset nan_data = MakeData(10, &rng);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  nan_data.AddRow({nan, 0.3, -0.2}, 1, 1.0);
  nan_data.AddRow({nan, nan, nan}, 0, 2.0);
  std::vector<Prediction> compiled, reference;
  model_->set_compiled_serving(true);
  model_->PredictBatch(nan_data.FeaturesView(), 2.0, &compiled);
  model_->set_compiled_serving(false);
  model_->PredictBatch(nan_data.FeaturesView(), 2.0, &reference);
  model_->set_compiled_serving(true);
  ExpectPredictionsBitEq(compiled, reference);
}

TEST_F(CompiledGpTest, EmptyAndOneRowBatchesServe) {
  Rng rng(7);
  const Dataset empty(3);
  const Dataset one = MakeData(1, &rng);
  model_->set_compiled_serving(true);
  std::vector<Prediction> preds;
  model_->PredictBatch(empty.FeaturesView(), 2.0, &preds);
  EXPECT_TRUE(preds.empty());
  model_->PredictBatch(one.FeaturesView(), 2.0, &preds);
  model_->set_compiled_serving(false);
  std::vector<Prediction> ref;
  model_->PredictBatch(one.FeaturesView(), 2.0, &ref);
  model_->set_compiled_serving(true);
  ExpectPredictionsEq(preds, ref);
}

TEST_F(CompiledGpTest, CompileRejectsNonGpLearners) {
  Rng rng(5);
  const Dataset train = MakeData(150, &rng);
  BaggingConfig bagging;
  bagging.num_estimators = 2;
  std::vector<std::unique_ptr<Classifier>> learners;
  for (int i = 0; i < 2; ++i) {
    learners.push_back(std::make_unique<BaggingClassifier>(
        std::make_unique<DecisionTree>(), bagging));
    ASSERT_TRUE(learners[i]->Fit(train, &rng).ok());
  }
  // Bagged trees are not GPs: the GP flattener refuses and the seam keeps
  // looking (it will have taken the forest earlier anyway).
  EXPECT_EQ(CompiledGpEnsemble::Compile(learners, {0.5, 1.0}, {0.5, 0.5}),
            nullptr);
}

}  // namespace
}  // namespace paws

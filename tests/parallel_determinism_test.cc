// Determinism under parallelism: every parallel region in the library
// forks its random streams serially and writes disjoint output slots, so
// training and prediction must be bit-identical for any thread count
// (num_threads in {1, 2, hardware}) and across repeated runs. These are
// also the tests the CI TSan job runs to sanitize the thread pool under
// real concurrency.
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "core/pipeline.h"

namespace paws {
namespace {

Scenario SmallScenario(uint64_t seed) {
  Scenario s = MakeScenario(ParkPreset::kMfnp, seed);
  s.park.width = 26;
  s.park.height = 22;
  s.num_years = 3;
  return s;
}

IWareConfig FastModel(int num_threads) {
  IWareConfig cfg;
  cfg.num_thresholds = 3;
  cfg.cv_folds = 2;
  cfg.weak_learner = WeakLearnerKind::kDecisionTreeBagging;
  cfg.bagging.num_estimators = 4;
  cfg.parallelism.num_threads = num_threads;
  return cfg;
}

/// The thread counts the determinism contract covers: serial, forced
/// multi-thread, and whatever the hardware resolves to.
std::vector<int> ThreadCounts() {
  return {1, 2, ParallelismConfig{0}.ResolveNumThreads()};
}

std::unique_ptr<BaggingClassifier> TrainBagger(const Dataset& train,
                                               int num_threads,
                                               uint64_t seed) {
  DecisionTreeConfig tree;
  tree.max_features = 2;
  BaggingConfig cfg;
  cfg.num_estimators = 6;
  cfg.parallelism.num_threads = num_threads;
  auto model = std::make_unique<BaggingClassifier>(
      std::make_unique<DecisionTree>(tree), cfg);
  Rng rng(seed);
  CheckOrDie(model->Fit(train, &rng).ok(), "bagging fit failed");
  return model;
}

TEST(ParallelDeterminismTest, BaggingTrainingBitIdenticalAcrossThreadCounts) {
  const ScenarioData data = SimulateScenario(SmallScenario(5), 7);
  const Dataset train = BuildDataset(data.park, data.history);
  const auto reference = TrainBagger(train, /*num_threads=*/1, 42);
  std::vector<double> ref_probs;
  reference->PredictBatch(train.FeaturesView(), &ref_probs);
  for (const int threads : ThreadCounts()) {
    // Two runs per thread count: identical to each other and to serial.
    for (int run = 0; run < 2; ++run) {
      const auto model = TrainBagger(train, threads, 42);
      ASSERT_EQ(model->num_fitted(), reference->num_fitted());
      std::vector<double> probs;
      model->PredictBatch(train.FeaturesView(), &probs);
      EXPECT_EQ(probs, ref_probs) << "threads=" << threads << " run=" << run;
    }
  }
}

class ParallelDeterminismIWareTest : public ::testing::Test {
 protected:
  static IWareEnsemble Train(const Dataset& train, int num_threads) {
    IWareEnsemble model(FastModel(num_threads));
    Rng rng(42);
    CheckOrDie(model.Fit(train, &rng).ok(), "iware fit failed");
    return model;
  }
};

TEST_F(ParallelDeterminismIWareTest, TrainingBitIdenticalAcrossThreadCounts) {
  const ScenarioData data = SimulateScenario(SmallScenario(5), 7);
  const Dataset train = BuildDataset(data.park, data.history);
  const IWareEnsemble reference = Train(train, /*num_threads=*/1);
  const std::vector<double> ref_scores = reference.PredictDataset(train);
  for (const int threads : ThreadCounts()) {
    const IWareEnsemble model = Train(train, threads);
    EXPECT_EQ(model.thresholds(), reference.thresholds())
        << "threads=" << threads;
    EXPECT_EQ(model.weights(), reference.weights()) << "threads=" << threads;
    EXPECT_EQ(model.PredictDataset(train), ref_scores)
        << "threads=" << threads;
  }
}

TEST_F(ParallelDeterminismIWareTest, EffortCurveTablesBitIdentical) {
  const ScenarioData data = SimulateScenario(SmallScenario(5), 7);
  const Dataset train = BuildDataset(data.park, data.history);
  const std::vector<double> grid = UniformEffortGrid(0.0, 6.0, 20);
  // One model per thread count (training is deterministic per the test
  // above); the tabulation itself must also chunk deterministically.
  const IWareEnsemble reference = Train(train, 1);
  const EffortCurveTable ref_table =
      reference.PredictEffortCurves(train.FeaturesView(), grid);
  for (const int threads : ThreadCounts()) {
    const IWareEnsemble model = Train(train, threads);
    const EffortCurveTable table =
        model.PredictEffortCurves(train.FeaturesView(), grid);
    ASSERT_EQ(table.num_cells, ref_table.num_cells);
    EXPECT_EQ(table.qualified_count, ref_table.qualified_count);
    EXPECT_EQ(table.prob, ref_table.prob) << "threads=" << threads;
    EXPECT_EQ(table.variance, ref_table.variance) << "threads=" << threads;
  }
}

TEST_F(ParallelDeterminismIWareTest, RiskMapsBitIdentical) {
  const ScenarioData data = SimulateScenario(SmallScenario(5), 7);
  std::vector<RiskMaps> maps;
  for (const int threads : ThreadCounts()) {
    PawsPipeline pipeline(data, FastModel(/*num_threads=*/0));
    pipeline.SetNumThreads(threads);
    Rng rng(1);
    ASSERT_TRUE(pipeline.Train(&rng).ok());
    maps.push_back(pipeline.PredictRisk(2.0));
  }
  for (size_t i = 1; i < maps.size(); ++i) {
    EXPECT_EQ(maps[i].risk, maps[0].risk) << "variant " << i;
    EXPECT_EQ(maps[i].variance, maps[0].variance) << "variant " << i;
  }
}

TEST_F(ParallelDeterminismIWareTest,
       PredictionChunkingIndependentOfBatchShape) {
  // One trained model, same rows predicted through differently sized
  // batches: chunk boundaries must not leak into the numbers.
  const ScenarioData data = SimulateScenario(SmallScenario(5), 7);
  const Dataset train = BuildDataset(data.park, data.history);
  const IWareEnsemble model = Train(train, 2);
  std::vector<Prediction> whole;
  model.PredictBatch(train.FeaturesView(), 2.0, &whole);
  ASSERT_EQ(static_cast<int>(whole.size()), train.size());
  for (int i = 0; i < train.size(); i += 37) {
    const Prediction p = model.Predict(train.RowVector(i), 2.0);
    EXPECT_EQ(whole[i].prob, p.prob);
    EXPECT_EQ(whole[i].variance, p.variance);
  }
}

}  // namespace
}  // namespace paws

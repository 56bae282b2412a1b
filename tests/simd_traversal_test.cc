// SIMD traversal equivalence: every dispatch tier of the compiled forest
// (scalar 4-lane ILP, AVX2 8-row gathers, AVX-512 16-row masked gathers)
// must serve bit-identically to the forced-scalar walk and to the
// reference (virtual-dispatch) path — on every serving call, for every
// thread count, through NaN feature rows, empty and one-row batches, and
// across a snapshot round trip. Tiers the host lacks are skipped (the
// suite still exercises the forced-scalar path everywhere). Also pins the
// node-pool layout contract the gathered walks address against.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "core/iware.h"
#include "ml/compiled_forest.h"
#include "util/archive.h"
#include "util/cpu_features.h"
#include "util/rng.h"

namespace paws {
namespace {

// Sets PAWS_FORCE_BACKEND for the enclosing scope and restores the prior
// environment on exit, so tests can pin a dispatch tier before re-selecting
// the backend (ActiveSimdTier re-reads the environment per call).
class ScopedForceBackend {
 public:
  explicit ScopedForceBackend(const char* value) {
    const char* old = std::getenv("PAWS_FORCE_BACKEND");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value == nullptr) {
      unsetenv("PAWS_FORCE_BACKEND");
    } else {
      setenv("PAWS_FORCE_BACKEND", value, /*overwrite=*/1);
    }
  }
  ~ScopedForceBackend() {
    if (had_old_) {
      setenv("PAWS_FORCE_BACKEND", old_.c_str(), 1);
    } else {
      unsetenv("PAWS_FORCE_BACKEND");
    }
  }
  ScopedForceBackend(const ScopedForceBackend&) = delete;
  ScopedForceBackend& operator=(const ScopedForceBackend&) = delete;

 private:
  bool had_old_ = false;
  std::string old_;
};

// Noisy four-feature data with an effort channel. Four features and deeper
// trees than the base compiled-forest suite, so lanes diverge across the
// tree early and the gathered walks see imbalanced leaf depths.
Dataset MakeData(int n, Rng* rng) {
  Dataset d(4);
  for (int i = 0; i < n; ++i) {
    std::vector<double> x(4);
    for (double& v : x) v = rng->Uniform(-1.0, 1.0);
    const int y =
        (x[0] + 0.5 * x[1] - 0.7 * x[2] * x[3] + rng->Uniform(-0.3, 0.3)) > 0
            ? 1
            : 0;
    d.AddRow(x, y, rng->Uniform(0.0, 4.0) + 0.01);
  }
  return d;
}

// Prediction rows with NaN features sprinkled in: single-NaN, all-NaN and
// clean rows interleaved, so some lanes route through the NaN comparison
// while their groupmates take ordinary splits.
Dataset MakeNanData(int n, Rng* rng) {
  Dataset d = MakeData(n, rng);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < n; i += 3) {
    std::vector<double> x(4, nan);
    if (i % 2 == 0) {
      for (int f = 1; f < 4; ++f) x[f] = rng->Uniform(-1.0, 1.0);
    }
    d.AddRow(x, i % 2, rng->Uniform(0.0, 4.0) + 0.01);
  }
  return d;
}

IWareConfig DtbConfig() {
  IWareConfig cfg;
  cfg.num_thresholds = 4;
  cfg.cv_folds = 2;
  cfg.weak_learner = WeakLearnerKind::kDecisionTreeBagging;
  cfg.bagging.num_estimators = 8;
  cfg.tree.max_features = 2;
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

void ExpectTablesEq(const EffortCurveTable& a, const EffortCurveTable& b) {
  ASSERT_EQ(a.num_cells, b.num_cells);
  EXPECT_EQ(a.effort_grid, b.effort_grid);
  EXPECT_EQ(a.qualified_count, b.qualified_count);
  EXPECT_EQ(a.prob, b.prob);
  EXPECT_EQ(a.variance, b.variance);
}

// Every tier this host can execute, weakest first. The scalar tier is
// always present, so the equivalence sweeps below never degenerate to an
// empty loop on non-AVX hosts.
std::vector<SimdTier> AvailableTiers() {
  std::vector<SimdTier> tiers{SimdTier::kScalar};
  if (DetectSimdTier() >= SimdTier::kAvx2) tiers.push_back(SimdTier::kAvx2);
  if (DetectSimdTier() >= SimdTier::kAvx512) {
    tiers.push_back(SimdTier::kAvx512);
  }
  return tiers;
}

// Pins `tier` via the environment override and re-selects the model's
// backend under it.
void SelectTier(IWareEnsemble* model, SimdTier tier) {
  ScopedForceBackend force(SimdTierName(tier));
  model->set_compiled_serving(true);
}

const char* ExpectedName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kAvx2:
      return "compiled-dtb-avx2";
    case SimdTier::kAvx512:
      return "compiled-dtb-avx512";
    case SimdTier::kScalar:
      break;
  }
  return "compiled-dtb";
}

class SimdTraversalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(71);
    train_ = new Dataset(MakeData(600, &rng));
    // 103 rows: not a multiple of any lane-group width, so the AVX2 (8-row)
    // and AVX-512 (16-row) main loops both leave a serial remainder.
    test_ = new Dataset(MakeData(103, &rng));
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

Dataset* SimdTraversalTest::train_ = nullptr;
Dataset* SimdTraversalTest::test_ = nullptr;
IWareEnsemble* SimdTraversalTest::model_ = nullptr;

TEST_F(SimdTraversalTest, NodePoolIs64ByteAligned) {
  // The gathered walks and the scalar ILP walk both stream the SoA node
  // pool; 64-byte alignment keeps every 16-byte node inside one cache
  // line and is asserted here as a regression guard on the allocator.
  model_->set_compiled_serving(true);
  const auto* forest =
      dynamic_cast<const CompiledForest*>(&model_->scoring_backend());
  ASSERT_NE(forest, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(forest->node_pool()) % 64, 0u);
}

TEST_F(SimdTraversalTest, ForcedTierIsReportedAndClamped) {
  for (const SimdTier tier : AvailableTiers()) {
    SelectTier(model_, tier);
    EXPECT_STREQ(model_->scoring_backend_name(), ExpectedName(tier));
    EXPECT_TRUE(model_->has_compiled_forest());
  }
  {
    // Forcing past the hardware clamps to the detected tier instead of
    // selecting an illegal instruction.
    ScopedForceBackend force("avx512");
    model_->set_compiled_serving(true);
    EXPECT_STREQ(model_->scoring_backend_name(),
                 ExpectedName(DetectSimdTier()));
  }
  model_->set_compiled_serving(true);
}

TEST_F(SimdTraversalTest, ForceScalarServesTheScalarWalk) {
  // The explicit force-scalar path: pinned by name, still compiled (the
  // flat forest without gathered walks), still bit-identical to the
  // reference.
  ScopedForceBackend force("scalar");
  model_->set_compiled_serving(true);
  ASSERT_STREQ(model_->scoring_backend_name(), "compiled-dtb");
  std::vector<Prediction> scalar, reference;
  model_->PredictBatch(test_->FeaturesView(), 2.0, &scalar);
  model_->set_compiled_serving(false);
  model_->PredictBatch(test_->FeaturesView(), 2.0, &reference);
  model_->set_compiled_serving(true);
  ExpectPredictionsEq(scalar, reference);
}

TEST_F(SimdTraversalTest, EveryTierBitIdenticalToScalarAndReference) {
  // Reference results once (backend choice does not depend on effort).
  model_->set_compiled_serving(false);
  const std::vector<double> grid = UniformEffortGrid(0.0, 5.0, 21);
  std::vector<double> efforts = test_->efforts();
  efforts[0] = 0.0;    // below every threshold: loosest-learner fallback
  efforts[1] = 100.0;  // above every threshold
  std::vector<std::vector<Prediction>> ref_shared;
  for (const double effort : {0.0, 0.5, 1.7, 3.9, 10.0}) {
    model_->PredictBatch(test_->FeaturesView(), effort, &ref_shared.emplace_back());
  }
  std::vector<Prediction> ref_per_row;
  model_->PredictBatch(test_->FeaturesView(), efforts, &ref_per_row);
  const EffortCurveTable ref_curves =
      model_->PredictEffortCurves(test_->FeaturesView(), grid);

  for (const SimdTier tier : AvailableTiers()) {
    SCOPED_TRACE(SimdTierName(tier));
    SelectTier(model_, tier);
    int e = 0;
    for (const double effort : {0.0, 0.5, 1.7, 3.9, 10.0}) {
      std::vector<Prediction> got;
      model_->PredictBatch(test_->FeaturesView(), effort, &got);
      ExpectPredictionsEq(got, ref_shared[e++]);
    }
    std::vector<Prediction> per_row;
    model_->PredictBatch(test_->FeaturesView(), efforts, &per_row);
    ExpectPredictionsEq(per_row, ref_per_row);
    ExpectTablesEq(model_->PredictEffortCurves(test_->FeaturesView(), grid),
                   ref_curves);
  }
  model_->set_compiled_serving(true);
}

TEST_F(SimdTraversalTest, EveryTierBitIdenticalAcrossThreadCounts) {
  const std::vector<double> grid = UniformEffortGrid(0.0, 4.0, 12);
  for (const SimdTier tier : AvailableTiers()) {
    SCOPED_TRACE(SimdTierName(tier));
    SelectTier(model_, tier);
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
  model_->set_compiled_serving(true);
}

TEST_F(SimdTraversalTest, NanFeatureRowsRouteIdenticallyOnEveryTier) {
  Rng rng(9);
  const Dataset nan_data = MakeNanData(64, &rng);
  // NaN never satisfies `x <= threshold`, so NaN features must route to
  // the right child in every tier (the reference ternary's behavior).
  model_->set_compiled_serving(false);
  std::vector<Prediction> reference;
  model_->PredictBatch(nan_data.FeaturesView(), 2.0, &reference);
  for (const SimdTier tier : AvailableTiers()) {
    SCOPED_TRACE(SimdTierName(tier));
    SelectTier(model_, tier);
    std::vector<Prediction> got;
    model_->PredictBatch(nan_data.FeaturesView(), 2.0, &got);
    ExpectPredictionsEq(got, reference);
  }
}

TEST_F(SimdTraversalTest, EmptyAndOneRowBatchesServeOnEveryTier) {
  Rng rng(3);
  const Dataset empty(4);
  const Dataset one = MakeData(1, &rng);
  model_->set_compiled_serving(false);
  std::vector<Prediction> ref_one;
  model_->PredictBatch(one.FeaturesView(), 2.0, &ref_one);
  for (const SimdTier tier : AvailableTiers()) {
    SCOPED_TRACE(SimdTierName(tier));
    SelectTier(model_, tier);
    std::vector<Prediction> preds;
    model_->PredictBatch(empty.FeaturesView(), 2.0, &preds);
    EXPECT_TRUE(preds.empty());
    model_->PredictBatch(one.FeaturesView(), 2.0, &preds);
    ExpectPredictionsEq(preds, ref_one);
    const EffortCurveTable curves = model_->PredictEffortCurves(
        one.FeaturesView(), UniformEffortGrid(0.0, 4.0, 5));
    EXPECT_EQ(curves.num_cells, 1);
  }
}

TEST_F(SimdTraversalTest, SnapshotRoundTripRebuildsForcedTier) {
  ArchiveWriter writer;
  SaveRecord(*model_, &writer);
  for (const SimdTier tier : AvailableTiers()) {
    SCOPED_TRACE(SimdTierName(tier));
    // Load under a pinned tier: the compiled layer is derived state, so
    // the loaded ensemble re-selects at the tier active at load time and
    // must predict bit-identically to the saved one.
    ScopedForceBackend force(SimdTierName(tier));
    auto reader = ArchiveReader::FromBytes(writer.Bytes());
    ASSERT_TRUE(reader.ok());
    IWareEnsemble loaded_model{IWareConfig{}};
    ASSERT_TRUE(LoadRecord(&reader.value(), &loaded_model).ok());
    const IWareEnsemble* loaded = &loaded_model;
    EXPECT_STREQ(loaded->scoring_backend_name(), ExpectedName(tier));
    SelectTier(model_, tier);
    std::vector<Prediction> want, got;
    model_->PredictBatch(test_->FeaturesView(), 2.5, &want);
    loaded->PredictBatch(test_->FeaturesView(), 2.5, &got);
    ExpectPredictionsEq(want, got);
  }
  model_->set_compiled_serving(true);
}

}  // namespace
}  // namespace paws

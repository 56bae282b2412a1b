// Round-trip property tests for the versioned snapshot layer: for every
// classifier type and for a full pipeline snapshot, save -> load ->
// PredictBatch must be bit-identical to the in-memory original; effort
// curves, risk maps and park geometry must round trip exactly; malformed
// (corrupt / truncated / wrong-version) archives must fail with Status.
#include "core/snapshot.h"

#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <typeinfo>

#include "core/pipeline.h"
#include "gtest/gtest.h"
#include "ml/bagging.h"
#include "ml/decision_tree.h"
#include "ml/gaussian_process.h"
#include "ml/linear_svm.h"
#include "util/rng.h"
#include "wide_snapshot.h"

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
  // Bagging over GPs also exercises nested polymorphic loading with a
  // variance-providing member.
  BaggingConfig bagging;
  bagging.num_estimators = 3;
  GaussianProcessConfig gp;
  gp.max_points = 40;
  return std::make_unique<BaggingClassifier>(
      std::make_unique<GaussianProcessClassifier>(gp), bagging);
}

// LoadRecord with the value returned; `value` is the blank it reads into.
template <typename T>
StatusOr<T> Load(ArchiveReader* reader, T value = T()) {
  PAWS_RETURN_IF_ERROR(LoadRecord(reader, &value));
  return StatusOr<T>(std::move(value));
}

using Learner = std::unique_ptr<Classifier>;

// The payload `writer` holds, without the 8-byte header and the 4-byte CRC
// that frame it.
std::string PayloadOf(const ArchiveWriter& writer) {
  const std::string framed = writer.Bytes();
  return framed.substr(8, framed.size() - 12);
}

// `archive` with the double `offset` bytes into the one occurrence of
// `anchor` replaced by `value` and the CRC resealed, as a buggy or hostile
// writer would produce it.
std::string Resealed(const std::string& archive, const std::string& anchor,
                     size_t offset, double value) {
  const size_t at = archive.find(anchor);
  CheckOrDie(at != std::string::npos &&
                 archive.find(anchor, at + 1) == std::string::npos,
             "reseal anchor is not unique in the archive");
  ArchiveWriter value_writer;
  value_writer.WriteDouble(value);
  std::string bytes = archive;
  bytes.replace(at + offset, 8, PayloadOf(value_writer));
  bytes.resize(bytes.size() - 4);
  AppendU32(&bytes, Crc32(bytes.data(), bytes.size()));
  return bytes;
}

template <typename T>
Status LoadStatus(const std::string& bytes, T blank = T()) {
  auto reader = ArchiveReader::FromBytes(bytes);
  CheckOrDie(reader.ok(), "resealed archive did not open");
  return Load(&*reader, std::move(blank)).status();
}

// A fitted `kind` learner's archive (MakeLearner, 200 rows of MakeData).
std::string FittedLearnerArchive(const std::string& kind, Learner* model) {
  Rng rng(11);
  const Dataset train = MakeData(200, &rng);
  *model = MakeLearner(kind);
  CheckOrDie((*model)->Fit(train, &rng).ok(), "learner fit failed");
  ArchiveWriter writer;
  SaveRecord(*model, &writer);
  return writer.Bytes();
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

class ClassifierRoundTripTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(ClassifierRoundTripTest, SaveLoadPredictBatchBitIdentical) {
  Rng rng(11);
  const Dataset train = MakeData(200, &rng);
  const Dataset test = MakeData(48, &rng);
  auto model = MakeLearner(GetParam());
  ASSERT_TRUE(model->Fit(train, &rng).ok());

  ArchiveWriter writer;
  SaveRecord(model, &writer);
  auto reader = ArchiveReader::FromBytes(writer.Bytes());
  ASSERT_TRUE(reader.ok()) << reader.status();
  auto loaded = Load<Learner>(&*reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(reader->ExpectEnd().ok());
  EXPECT_EQ(typeid(**loaded), typeid(*model));

  std::vector<Prediction> want, got;
  model->PredictBatchWithVariance(test.FeaturesView(), &want);
  (*loaded)->PredictBatchWithVariance(test.FeaturesView(), &got);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    // EXPECT_EQ, not EXPECT_NEAR: serialization stores bit patterns, so a
    // loaded model must reproduce the original to the last ulp.
    EXPECT_EQ(got[i].prob, want[i].prob);
    EXPECT_EQ(got[i].variance, want[i].variance);
  }
}

TEST_P(ClassifierRoundTripTest, UntrainedPrototypeRoundTripsAndRefits) {
  auto proto = MakeLearner(GetParam());
  ArchiveWriter writer;
  SaveRecord(proto, &writer);
  auto reader = ArchiveReader::FromBytes(writer.Bytes());
  ASSERT_TRUE(reader.ok());
  auto loaded = Load<Learner>(&*reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  // The loaded prototype keeps its config: fitting it and the original on
  // identical data and RNG streams must give bit-identical models.
  Rng data_rng(3);
  const Dataset train = MakeData(150, &data_rng);
  Rng fit_a(5), fit_b(5);
  ASSERT_TRUE(proto->Fit(train, &fit_a).ok());
  ASSERT_TRUE((*loaded)->Fit(train, &fit_b).ok());
  std::vector<double> want, got;
  proto->PredictBatch(train.FeaturesView(), &want);
  (*loaded)->PredictBatch(train.FeaturesView(), &got);
  EXPECT_EQ(want, got);
}

INSTANTIATE_TEST_SUITE_P(AllLearners, ClassifierRoundTripTest,
                         ::testing::Values("tree", "svm", "gp", "bagging"),
                         [](const auto& info) { return info.param; });

TEST(ClassifierRoundTripTest, UnknownTagFails) {
  ArchiveWriter writer;
  writer.BeginSection(FourCc("NOPE"));
  writer.WriteU32(1);
  writer.EndSection();
  auto reader = ArchiveReader::FromBytes(writer.Bytes());
  ASSERT_TRUE(reader.ok());
  const auto loaded = Load<Learner>(&*reader);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("NOPE"), std::string::npos);
}

TEST(ClassifierRoundTripTest, WrongSchemaVersionFails) {
  ArchiveWriter writer;
  writer.BeginSection(DecisionTree::kArchiveSection.tag);
  writer.WriteU32(999);  // future schema version
  writer.EndSection();
  auto reader = ArchiveReader::FromBytes(writer.Bytes());
  ASSERT_TRUE(reader.ok());
  const auto loaded = Load<Learner>(&*reader);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST(ClassifierRoundTripTest, MalformedTreeNodesFail) {
  // A node whose child points backwards (cycle) must be rejected.
  ArchiveWriter writer;
  writer.BeginSection(DecisionTree::kArchiveSection.tag);
  writer.WriteU32(1);                     // schema version
  for (int i = 0; i < 4; ++i) writer.WriteI32(0);  // config
  writer.WriteU64(1);                     // one node
  writer.WriteI32(0);                     // feature
  writer.WriteDouble(0.5);                // threshold
  writer.WriteI32(0);                     // left -> itself
  writer.WriteI32(0);                     // right -> itself
  writer.WriteDouble(0.5);                // prob
  writer.EndSection();
  auto reader = ArchiveReader::FromBytes(writer.Bytes());
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(Load<Learner>(&*reader).ok());
}

TEST(ClassifierRoundTripTest, SplitOnAFeatureNoRowCanHoldFails) {
  // Rows holding feature INT_MAX would need INT_MAX + 1 columns, which no
  // int width represents; the node is refused as it is read, before an
  // ensemble compiles its serving backend from the tree.
  const int feature = std::numeric_limits<int>::max();
  ArchiveWriter writer;
  writer.BeginSection(DecisionTree::kArchiveSection.tag);
  writer.WriteU32(1);  // schema version
  SaveRecord(DecisionTreeConfig{}, &writer);
  SaveRecord(std::vector<DecisionTree::Node>{{feature, 0.5, 1, 2, 0.5},
                                             {-1, 0.0, -1, -1, 0.25},
                                             {-1, 0.0, -1, -1, 0.75}},
             &writer);
  writer.EndSection();
  auto reader = ArchiveReader::FromBytes(writer.Bytes());
  ASSERT_TRUE(reader.ok());
  const auto loaded = Load<Learner>(&*reader);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ClassifierRoundTripTest, NodeProbabilityOutsideTheUnitIntervalFails) {
  // Fit gives every node a probability in (0, 1). A leaf outside [0, 1]
  // would be served as risk, so the node is refused as it is read.
  const auto load_with_leaf = [](double prob) {
    ArchiveWriter writer;
    writer.BeginSection(DecisionTree::kArchiveSection.tag);
    writer.WriteU32(1);  // schema version
    SaveRecord(DecisionTreeConfig{}, &writer);
    SaveRecord(std::vector<DecisionTree::Node>{{0, 0.5, 1, 2, 0.5},
                                               {-1, 0.0, -1, -1, 0.25},
                                               {-1, 0.0, -1, -1, prob}},
               &writer);
    writer.EndSection();
    auto reader = ArchiveReader::FromBytes(writer.Bytes());
    CheckOrDie(reader.ok(), "tree archive did not seal");
    return Load<Learner>(&*reader).status();
  };
  EXPECT_TRUE(load_with_leaf(0.0).ok());
  EXPECT_TRUE(load_with_leaf(1.0).ok());
  for (const double bad : {3e143, -0.25, 1.0 + 1e-12,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(load_with_leaf(bad).code(), StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(ClassifierRoundTripTest, NonFiniteStandardizerMomentFails) {
  // Every linear SVM and GP row is standardized as (x - mean) / stddev
  // before it is scored: a NaN or infinite moment serves NaN risk.
  Learner model;
  const std::string archive = FittedLearnerArchive("svm", &model);
  const Standardizer& standardizer =
      static_cast<const LinearSvm&>(*model).standardizer();
  ArchiveWriter moments_writer;
  SaveRecord(standardizer, &moments_writer);
  const std::string moments = PayloadOf(moments_writer);
  const size_t width = standardizer.mean().size();
  const size_t first_mean = 8, first_stddev = 8 + 8 * width + 8;
  EXPECT_TRUE(
      LoadStatus<Learner>(Resealed(archive, moments, first_mean, 0.5)).ok());
  EXPECT_TRUE(
      LoadStatus<Learner>(Resealed(archive, moments, first_stddev, 2.0)).ok());
  for (const double bad : {kNan, kInf, -kInf}) {
    EXPECT_EQ(
        LoadStatus<Learner>(Resealed(archive, moments, first_mean, bad)).code(),
        StatusCode::kInvalidArgument)
        << "mean " << bad;
  }
  EXPECT_EQ(
      LoadStatus<Learner>(Resealed(archive, moments, first_stddev, kInf))
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(ClassifierRoundTripTest, NonFiniteSvmParameterFails) {
  // The weights, bias and Platt parameters are stored after the
  // standardizer; a non-finite one makes the served sigmoid NaN or pins it.
  Learner model;
  const std::string archive = FittedLearnerArchive("svm", &model);
  const LinearSvm& svm = static_cast<const LinearSvm&>(*model);
  ArchiveWriter params_writer;
  params_writer.WriteDoubleVector(svm.weights());
  params_writer.WriteDouble(svm.bias());
  params_writer.WriteDouble(svm.platt_a());
  params_writer.WriteDouble(svm.platt_b());
  const std::string params = PayloadOf(params_writer);
  const size_t weights_end = 8 + 8 * svm.weights().size();
  const struct {
    const char* name;
    size_t offset;
  } fields[] = {{"weight 0", 8},
                {"bias", weights_end},
                {"platt_a", weights_end + 8},
                {"platt_b", weights_end + 16}};
  for (const auto& field : fields) {
    EXPECT_TRUE(
        LoadStatus<Learner>(Resealed(archive, params, field.offset, 0.25))
            .ok())
        << field.name;
    for (const double bad : {kNan, kInf}) {
      EXPECT_EQ(
          LoadStatus<Learner>(Resealed(archive, params, field.offset, bad))
              .code(),
          StatusCode::kInvalidArgument)
          << field.name << " " << bad;
    }
  }
}

TEST(ClassifierRoundTripTest, BadGpKernelFails) {
  // The fitted kernel's length scale and signal variance are stored just
  // before the standardizer; each must be finite and positive.
  Learner model;
  const std::string archive = FittedLearnerArchive("gp", &model);
  const auto& gp = static_cast<const GaussianProcessClassifier&>(*model);
  ArchiveWriter kernel_writer;
  kernel_writer.WriteDouble(gp.effective_kernel().length_scale);
  kernel_writer.WriteDouble(gp.effective_kernel().signal_variance);
  SaveRecord(gp.standardizer(), &kernel_writer);
  const std::string kernel = PayloadOf(kernel_writer);
  for (const size_t offset : {0, 8}) {
    EXPECT_TRUE(LoadStatus<Learner>(Resealed(archive, kernel, offset, 0.75))
                    .ok())
        << offset;
    for (const double bad : {kNan, kInf, 0.0, -1.0}) {
      EXPECT_EQ(LoadStatus<Learner>(Resealed(archive, kernel, offset, bad))
                    .code(),
                StatusCode::kInvalidArgument)
          << "offset " << offset << " value " << bad;
    }
  }
}

TEST(ClassifierRoundTripTest, NonFiniteGpPosteriorOrCholeskyDiagonalFails) {
  // Loading skips the Newton iteration, so the stored posterior cache is
  // served as is: each value must be finite and the Cholesky factor of B
  // must have a positive diagonal (it divides every forward substitution).
  Learner model;
  const std::string archive = FittedLearnerArchive("gp", &model);
  const auto& gp = static_cast<const GaussianProcessClassifier&>(*model);
  const size_t n = gp.inducing_inputs().size();
  ASSERT_GE(n, 2u);
  ArchiveWriter cache_writer;
  cache_writer.WriteI32(static_cast<int>(n));
  cache_writer.WriteI32(static_cast<int>(gp.inducing_inputs()[0].size()));
  for (const std::vector<double>& row : gp.inducing_inputs()) {
    for (const double v : row) cache_writer.WriteDouble(v);
  }
  const size_t grad_at = cache_writer.payload_size();
  cache_writer.WriteDoubleVector(gp.grad_log_lik());
  const size_t sqrt_w_at = cache_writer.payload_size();
  cache_writer.WriteDoubleVector(gp.sqrt_w());
  const size_t chol_at = cache_writer.payload_size();
  SaveRecord(gp.chol_b(), &cache_writer);
  const std::string cache = PayloadOf(cache_writer);
  // A vector's values follow its 8-byte count; the factor's follow its
  // rows, columns and count (16 bytes).
  const auto chol = [&](size_t r, size_t c) {
    return chol_at + 16 + 8 * (r * n + c);
  };
  const struct {
    const char* name;
    size_t offset;
  } fields[] = {{"inducing input", 8},
                {"likelihood gradient", grad_at + 8},
                {"W^1/2", sqrt_w_at + 8},
                {"Cholesky (1, 0)", chol(1, 0)},
                {"Cholesky (1, 1)", chol(1, 1)}};
  for (const auto& field : fields) {
    for (const double bad : {kNan, kInf}) {
      EXPECT_EQ(LoadStatus<Learner>(Resealed(archive, cache, field.offset, bad))
                    .code(),
                StatusCode::kInvalidArgument)
          << field.name << " " << bad;
    }
  }
  EXPECT_TRUE(
      LoadStatus<Learner>(Resealed(archive, cache, chol(1, 1), 1.5)).ok());
  for (const double bad : {0.0, -0.5}) {
    EXPECT_EQ(
        LoadStatus<Learner>(Resealed(archive, cache, chol(1, 1), bad)).code(),
        StatusCode::kInvalidArgument)
        << "Cholesky diagonal " << bad;
  }
}

TEST(IWareRoundTripTest, UnknownWeakLearnerKindFails) {
  IWareConfig config;
  config.weak_learner = static_cast<WeakLearnerKind>(3);
  ArchiveWriter writer;
  SaveRecord(config, &writer);
  auto reader = ArchiveReader::FromBytes(writer.Bytes());
  ASSERT_TRUE(reader.ok());
  const auto loaded = Load<IWareConfig>(&*reader);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(IWareRoundTripTest, EnsembleRoundTripsBitIdentical) {
  Rng rng(17);
  const Dataset train = MakeData(300, &rng);
  const Dataset test = MakeData(40, &rng);
  IWareConfig config;
  config.num_thresholds = 4;
  config.cv_folds = 2;
  config.weak_learner = WeakLearnerKind::kGaussianProcessBagging;
  config.bagging.num_estimators = 3;
  config.gp.max_points = 40;
  IWareEnsemble model(config);
  ASSERT_TRUE(model.Fit(train, &rng).ok());

  ArchiveWriter writer;
  SaveRecord(model, &writer);
  auto reader = ArchiveReader::FromBytes(writer.Bytes());
  ASSERT_TRUE(reader.ok());
  auto loaded = Load(&*reader, IWareEnsemble(IWareConfig{}));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(reader->ExpectEnd().ok());

  EXPECT_EQ(loaded->thresholds(), model.thresholds());
  EXPECT_EQ(loaded->weights(), model.weights());
  EXPECT_EQ(loaded->num_learners(), model.num_learners());
  EXPECT_EQ(loaded->config().weak_learner, model.config().weak_learner);

  // Shared-effort batch, per-row-efforts batch, and effort-curve tables
  // must all be bit-identical to the in-memory original.
  std::vector<Prediction> want, got;
  model.PredictBatch(test.FeaturesView(), 2.0, &want);
  loaded->PredictBatch(test.FeaturesView(), 2.0, &got);
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].prob, want[i].prob);
    EXPECT_EQ(got[i].variance, want[i].variance);
  }
  model.PredictBatch(test.FeaturesView(), test.efforts(), &want);
  loaded->PredictBatch(test.FeaturesView(), test.efforts(), &got);
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].prob, want[i].prob);
    EXPECT_EQ(got[i].variance, want[i].variance);
  }
  const std::vector<double> grid = UniformEffortGrid(0.0, 4.0, 8);
  const EffortCurveTable want_curves =
      model.PredictEffortCurves(test.FeaturesView(), grid);
  const EffortCurveTable got_curves =
      loaded->PredictEffortCurves(test.FeaturesView(), grid);
  EXPECT_EQ(got_curves.prob, want_curves.prob);
  EXPECT_EQ(got_curves.variance, want_curves.variance);
  EXPECT_EQ(got_curves.qualified_count, want_curves.qualified_count);
}

TEST(IWareRoundTripTest, NegativeOrNonFiniteWeightFails) {
  // Fit leaves the weights on the simplex (or uniform), but serving mixes
  // sum(w * p) / sum(w) from whatever an archive holds: a negative weight
  // can move risk outside [0, 1] and a NaN one makes it NaN, so both are
  // refused as the ensemble is read, and so is infinity.
  Rng rng(17);
  const Dataset train = MakeData(120, &rng);
  IWareConfig config;
  config.num_thresholds = 3;
  config.cv_folds = 2;
  config.weak_learner = WeakLearnerKind::kDecisionTreeBagging;
  config.bagging.num_estimators = 2;
  IWareEnsemble model(config);
  ASSERT_TRUE(model.Fit(train, &rng).ok());
  ArchiveWriter writer;
  SaveRecord(model, &writer);
  const std::string archive = writer.Bytes();

  ArchiveWriter weights_writer;
  weights_writer.WriteDoubleVector(model.weights());
  const std::string weights = PayloadOf(weights_writer);

  const auto load_with_first_weight = [&](double w0) {
    // The first weight sits after the vector's 8-byte count.
    return LoadStatus(Resealed(archive, weights, 8, w0),
                      IWareEnsemble(IWareConfig{}));
  };
  EXPECT_TRUE(load_with_first_weight(model.weights()[0]).ok());
  EXPECT_TRUE(load_with_first_weight(0.0).ok());
  for (const double bad : {-0.25, kInf, kNan}) {
    EXPECT_EQ(load_with_first_weight(bad).code(), StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(IWareRoundTripTest, NonFiniteThresholdFails) {
  // Serving qualifies a cell for learner i when its effort reaches
  // threshold i. The strictly-increasing check alone passes a single NaN
  // threshold and infinite end thresholds, so non-finite ones are refused.
  const auto fitted_archive = [](int num_thresholds, IWareEnsemble* model) {
    Rng rng(17);
    const Dataset train = MakeData(120, &rng);
    IWareConfig config;
    config.num_thresholds = num_thresholds;
    config.cv_folds = 2;
    config.weak_learner = WeakLearnerKind::kDecisionTreeBagging;
    config.bagging.num_estimators = 2;
    *model = IWareEnsemble(config);
    CheckOrDie(model->Fit(train, &rng).ok(), "ensemble fit failed");
    ArchiveWriter writer;
    SaveRecord(*model, &writer);
    return writer.Bytes();
  };
  for (const int count : {1, 3}) {
    IWareEnsemble model{IWareConfig{}};
    const std::string archive = fitted_archive(count, &model);
    ASSERT_EQ(model.thresholds().size(), static_cast<size_t>(count));
    ArchiveWriter thresholds_writer;
    thresholds_writer.WriteDoubleVector(model.thresholds());
    const std::string thresholds = PayloadOf(thresholds_writer);
    const auto load_with = [&](size_t index, double value) {
      return LoadStatus(Resealed(archive, thresholds, 8 + 8 * index, value),
                        IWareEnsemble(IWareConfig{}));
    };
    const size_t last = count - 1;
    EXPECT_TRUE(load_with(0, model.thresholds()[0]).ok()) << count;
    EXPECT_EQ(load_with(0, -kInf).code(), StatusCode::kInvalidArgument)
        << count;
    EXPECT_EQ(load_with(last, kInf).code(), StatusCode::kInvalidArgument)
        << count;
    if (count == 1) {
      EXPECT_EQ(load_with(0, kNan).code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(EffortCurveRoundTripTest, TableRoundTripsExactly) {
  EffortCurveTable table;
  table.effort_grid = {0.0, 1.0, 2.5};
  table.qualified_count = {1, 2, 3};
  table.num_cells = 2;
  table.prob = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  table.variance = {0.01, 0.02, 0.03, 0.04, 0.05, 0.06};
  ArchiveWriter writer;
  SaveRecord(table, &writer);
  auto reader = ArchiveReader::FromBytes(writer.Bytes());
  ASSERT_TRUE(reader.ok());
  auto loaded = Load<EffortCurveTable>(&*reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->effort_grid, table.effort_grid);
  EXPECT_EQ(loaded->qualified_count, table.qualified_count);
  EXPECT_EQ(loaded->num_cells, table.num_cells);
  EXPECT_EQ(loaded->prob, table.prob);
  EXPECT_EQ(loaded->variance, table.variance);
}

TEST(EffortCurveRoundTripTest, ShapeMismatchFails) {
  EffortCurveTable table;
  table.effort_grid = {0.0, 1.0};
  table.num_cells = 3;        // but only 2 prob entries below
  table.prob = {0.1, 0.2};
  table.variance = {0.0, 0.0};
  ArchiveWriter writer;
  SaveRecord(table, &writer);
  auto reader = ArchiveReader::FromBytes(writer.Bytes());
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(Load<EffortCurveTable>(&*reader).ok());
}

// One trained pipeline shared by the snapshot tests (training dominates
// the suite's cost).
class PipelineSnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Scenario s = MakeScenario(ParkPreset::kMfnp, 21);
    s.park.width = 30;
    s.park.height = 26;
    s.num_years = 4;
    IWareConfig cfg;
    cfg.num_thresholds = 3;
    cfg.cv_folds = 2;
    cfg.weak_learner = WeakLearnerKind::kGaussianProcessBagging;
    cfg.bagging.num_estimators = 3;
    cfg.gp.max_points = 50;
    pipeline_ = new PawsPipeline(SimulateScenario(s, 7), cfg);
    Rng rng(8);
    ASSERT_TRUE(pipeline_->Train(&rng).ok());
    ArchiveWriter writer;
    pipeline_->SaveModel(&writer);
    bytes_ = new std::string(writer.Bytes());
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete bytes_;
    pipeline_ = nullptr;
    bytes_ = nullptr;
  }

  static PawsPipeline* pipeline_;
  static std::string* bytes_;
};

PawsPipeline* PipelineSnapshotTest::pipeline_ = nullptr;
std::string* PipelineSnapshotTest::bytes_ = nullptr;

TEST_F(PipelineSnapshotTest, LoadedSnapshotServesBitIdenticalRiskMaps) {
  auto reader = ArchiveReader::FromBytes(*bytes_);
  ASSERT_TRUE(reader.ok());
  auto snapshot = ModelSnapshot::Load(&*reader);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(snapshot->park().num_cells(),
            pipeline_->data().park.num_cells());
  EXPECT_EQ(snapshot->park().name(), pipeline_->data().park.name());

  const RiskMaps want = pipeline_->PredictRisk(2.0);
  const RiskMaps got = snapshot->PredictRisk(2.0);
  EXPECT_EQ(got.risk, want.risk);          // bit-identical, not approximate
  EXPECT_EQ(got.variance, want.variance);
}

TEST_F(PipelineSnapshotTest, LoadedSnapshotPlansPatrols) {
  auto reader = ArchiveReader::FromBytes(*bytes_);
  ASSERT_TRUE(reader.ok());
  auto snapshot = ModelSnapshot::Load(&*reader);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  PlannerConfig planner;
  planner.horizon = 6;
  planner.num_patrols = 2;
  planner.pwl_segments = 5;
  planner.milp.max_nodes = 10;
  RobustParams robust;
  const auto want = pipeline_->PlanForPost(0, planner, robust);
  const auto got = snapshot->PlanForPost(0, planner, robust);
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->coverage, want->coverage);
  EXPECT_EQ(got->objective, want->objective);
}

TEST_F(PipelineSnapshotTest, FileRoundTripAndSaveModelPath) {
  const std::string path = "snapshot_test_model.paws";
  ASSERT_TRUE(pipeline_->SaveModel(path).ok());
  auto snapshot = PawsPipeline::LoadModel(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  const RiskMaps want = pipeline_->PredictRisk(3.0);
  const RiskMaps got = snapshot->PredictRisk(3.0);
  EXPECT_EQ(got.risk, want.risk);
  std::remove(path.c_str());
}

TEST_F(PipelineSnapshotTest, EffortCurvesMatchThroughSnapshot) {
  auto reader = ArchiveReader::FromBytes(*bytes_);
  ASSERT_TRUE(reader.ok());
  auto snapshot = ModelSnapshot::Load(&*reader);
  ASSERT_TRUE(snapshot.ok());
  std::vector<int> cells;
  for (int id = 0; id < 10; ++id) cells.push_back(id);
  const std::vector<double> grid = UniformEffortGrid(0.0, 5.0, 6);
  const EffortCurveTable want = PredictCellEffortCurves(
      pipeline_->model(), pipeline_->data().park, pipeline_->data().history,
      pipeline_->test_t_begin(), cells, grid);
  const EffortCurveTable got = snapshot->PredictCellCurves(cells, grid);
  EXPECT_EQ(got.prob, want.prob);
  EXPECT_EQ(got.variance, want.variance);
}

TEST_F(PipelineSnapshotTest, CorruptAndTruncatedSnapshotsFailWithStatus) {
  // Every truncation prefix and a sweep of single-byte corruptions must be
  // rejected cleanly (CRC or structural validation), never crash.
  for (size_t n = 0; n < bytes_->size(); n += 997) {
    EXPECT_FALSE(ArchiveReader::FromBytes(bytes_->substr(0, n)).ok());
  }
  for (size_t i = 8; i < bytes_->size(); i += 4099) {
    std::string bad = *bytes_;
    bad[i] = static_cast<char>(bad[i] ^ 0xff);
    auto reader = ArchiveReader::FromBytes(bad);
    if (!reader.ok()) continue;  // CRC caught it
    EXPECT_FALSE(ModelSnapshot::Load(&*reader).ok()) << "byte " << i;
  }
}

TEST_F(PipelineSnapshotTest, NonFiniteOrNegativeCoverageLayerIsRejected) {
  // The archive CRC is sound, so only semantic validation can catch a
  // coverage layer that would score NaN or out-of-range risk.
  const Park& park = pipeline_->data().park;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0}) {
    std::vector<double> lag(park.num_cells(), 0.5);
    lag[park.num_cells() / 2] = bad;
    ArchiveWriter writer;
    SaveModelSnapshotParts(pipeline_->model(), park, lag, &writer);
    const auto loaded = ModelSnapshot::FromBytes(writer.Bytes());
    ASSERT_FALSE(loaded.ok()) << "value " << bad;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

// A model fitted to rows 8 columns wider than its park serves used to
// load, then abort the first risk map. Load must refuse it, naming both
// widths, whichever learner and serving backend the model uses.
TEST_F(PipelineSnapshotTest, ModelWiderThanTheParkRowsIsRefusedAtLoad) {
  const Park& park = pipeline_->data().park;
  const int park_width = park.num_features() + 1;
  const std::string model_width = std::to_string(park_width + 8);
  for (const WeakLearnerKind kind :
       {WeakLearnerKind::kDecisionTreeBagging, WeakLearnerKind::kSvmBagging,
        WeakLearnerKind::kGaussianProcessBagging}) {
    const auto loaded =
        ModelSnapshot::FromBytes(WideModelSnapshot(park, 8, kind));
    ASSERT_FALSE(loaded.ok()) << WeakLearnerName(kind);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    const std::string& message = loaded.status().message();
    EXPECT_NE(message.find(std::to_string(park_width) + " columns"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find(model_width), std::string::npos) << message;
  }
  // A model that fits its park still loads.
  EXPECT_TRUE(ModelSnapshot::FromBytes(*bytes_).ok());
}

TEST_F(PipelineSnapshotTest, RiskMapsRoundTrip) {
  const RiskMaps maps = pipeline_->PredictRisk(1.5);
  ArchiveWriter writer;
  SaveRecord(maps, &writer);
  auto reader = ArchiveReader::FromBytes(writer.Bytes());
  ASSERT_TRUE(reader.ok());
  auto loaded = Load<RiskMaps>(&*reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->risk, maps.risk);
  EXPECT_EQ(loaded->variance, maps.variance);
  EXPECT_EQ(loaded->assumed_effort, maps.assumed_effort);
}

TEST_F(PipelineSnapshotTest, ParkGeometryRoundTripsExactly) {
  const Park& park = pipeline_->data().park;
  ArchiveWriter writer;
  SaveRecord(park, &writer);
  auto reader = ArchiveReader::FromBytes(writer.Bytes());
  ASSERT_TRUE(reader.ok());
  auto loaded = Load<Park>(&*reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->name(), park.name());
  EXPECT_EQ(loaded->num_cells(), park.num_cells());
  EXPECT_EQ(loaded->cell_indices(), park.cell_indices());
  EXPECT_EQ(loaded->feature_names(), park.feature_names());
  ASSERT_EQ(loaded->num_features(), park.num_features());
  for (int f = 0; f < park.num_features(); ++f) {
    EXPECT_EQ(loaded->feature(f).data(), park.feature(f).data());
  }
  ASSERT_EQ(loaded->patrol_posts().size(), park.patrol_posts().size());
  for (size_t p = 0; p < park.patrol_posts().size(); ++p) {
    EXPECT_EQ(loaded->patrol_posts()[p], park.patrol_posts()[p]);
  }
}

}  // namespace
}  // namespace paws

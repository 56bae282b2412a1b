// Reproduces Fig. 9: (a) prescriptive-model runtime as a function of the
// number of PWL segments (google-benchmark timings per park), and (b)
// convergence of the robust solution's utility U_{beta=1}(C_{beta=1}) with
// increasing segments (paper: converges by ~20-25 segments). Also measures
// the serving hot path: batched risk-map / effort-curve prediction vs the
// legacy cell-at-a-time loop, the compiled-forest (flat SoA) serving layer
// vs the reference virtual-dispatch path on a DTB ensemble, thread scaling
// (1 thread vs the hardware default), and snapshot save/load economics.
//
// Also rooflines the two compiled serving backends: SIMD forest traversal
// per dispatch tier vs forest size (`--forest-cells N` scales the serving
// batch) and the compiled-GP kernel-block sweep vs inducing-point count
// (`--kernel-size K` pins one kernel size).
//
// `--smoke` runs a tiny-grid version of every report and skips the
// google-benchmark sweep — CI uses it to catch benchmark bit-rot.
// `--json <path>` additionally emits every reported number as a
// machine-readable JSON document (schema documented in README under
// "BENCH_fig9.json") so the perf trajectory can be tracked across PRs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/iware.h"
#include "core/pipeline.h"
#include "core/snapshot.h"
#include "geo/synth.h"
#include "geo/tiled_feature_plane.h"
#include "ml/compiled_forest.h"
#include "ml/compiled_gp.h"
#include "serve/park_service.h"
#include "util/archive.h"
#include "util/cpu_features.h"
#include "util/csv.h"
#include "util/rng.h"

namespace {

using namespace paws;

// Shrinks fixtures so the whole binary finishes in CI-smoke time.
bool g_smoke = false;
// Roofline overrides: serving-batch rows for the SIMD traversal sweep and
// a pinned inducing-point count for the compiled-GP sweep (0 = defaults).
int g_forest_cells = 0;
int g_kernel_size = 0;
// Tiled mega-park bench: approximate in-park cell count (0 = off outside
// smoke mode; smoke runs a small park so CI catches bit-rot).
long long g_mega_cells = 0;

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Minimum wall time over `reps` runs — the standard way to de-noise a
// short benchmark on a shared machine.
template <typename Fn>
double MinMs(int reps, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, MsSince(t0));
  }
  return best;
}

// Minimal ordered JSON emitter for the --json report: one top-level
// object of (possibly nested) sections, numbers formatted round-trip
// exactly, non-finite values emitted as null so the document always
// parses.
class JsonWriter {
 public:
  void Begin(const std::string& key) {
    Comma();
    body_ += Quote(key) + ":{";
    fresh_ = true;
  }
  void End() {
    body_ += "}";
    fresh_ = false;
  }
  void Add(const std::string& key, double value) {
    Comma();
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    body_ += Quote(key) + ":" + buf;
  }
  void Add(const std::string& key, int value) {
    Comma();
    body_ += Quote(key) + ":" + std::to_string(value);
  }
  void Add(const std::string& key, bool value) {
    Comma();
    body_ += Quote(key) + ":" + (value ? "true" : "false");
  }
  void Add(const std::string& key, const std::string& value) {
    Comma();
    body_ += Quote(key) + ":" + Quote(value);
  }
  // Without this overload a string literal would convert to bool (the
  // standard conversion beats std::string's user-defined one) and emit
  // `"key":true`.
  void Add(const std::string& key, const char* value) {
    Add(key, std::string(value));
  }

  std::string ToString() const { return "{" + body_ + "}\n"; }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }
  void Comma() {
    if (!fresh_ && !body_.empty() && body_.back() != '{') body_ += ",";
    fresh_ = false;
  }

  std::string body_;
  bool fresh_ = false;
};

struct ParkFixture {
  PlanningGraph graph;
  std::vector<double> cell_rows;  // flat feature rows for graph cells
  int row_width = 0;
  double train_ms = 0.0;  // wall time of Train (load-vs-retrain baseline)
  std::unique_ptr<PawsPipeline> pipeline;
};

// Trains a model on `preset` and assembles the shared planning context
// (graph, flat feature rows). One construction path for every fixture so
// the compiled-forest report measures an identically-built park.
ParkFixture BuildFixture(ParkPreset preset, IWareConfig cfg) {
  Scenario scenario = MakeScenario(preset, 42);
  if (g_smoke) {
    scenario.park.width = 26;
    scenario.park.height = 22;
    scenario.num_years = 3;
  }
  ScenarioData data = SimulateScenario(scenario, 7);
  ParkFixture fixture;
  fixture.pipeline = std::make_unique<PawsPipeline>(std::move(data), cfg);
  Rng rng(13);
  const auto train_start = Clock::now();
  CheckOrDie(fixture.pipeline->Train(&rng).ok(), "fig9: training failed");
  fixture.train_ms = MsSince(train_start);
  const Park& park = fixture.pipeline->data().park;
  fixture.graph = BuildPlanningGraph(park, park.patrol_posts()[0], 4);
  fixture.cell_rows = BuildCellFeatureRows(
      park, fixture.pipeline->data().history,
      fixture.pipeline->test_t_begin(), fixture.graph.park_cell_ids);
  fixture.row_width = park.num_features() + 1;
  return fixture;
}

// Builds (once per park) a trained GPB model and a planning context.
const ParkFixture& GetFixture(ParkPreset preset) {
  static std::map<ParkPreset, ParkFixture>* cache =
      new std::map<ParkPreset, ParkFixture>();
  auto it = cache->find(preset);
  if (it != cache->end()) return it->second;
  IWareConfig cfg;
  cfg.weak_learner = WeakLearnerKind::kGaussianProcessBagging;
  cfg.num_thresholds = 4;
  cfg.cv_folds = 2;
  cfg.bagging.num_estimators = 4;
  cfg.gp.max_points = 80;
  cfg.bagging.balanced =
      preset == ParkPreset::kSws || preset == ParkPreset::kSwsDry;
  return cache->emplace(preset, BuildFixture(preset, cfg)).first->second;
}

// The compiled-forest serving fixture: the same MFNP park served by a DTB
// (random-forest) iWare-E ensemble — the tree-backed configuration the
// CompiledForest flattens. Paper-scale threshold count; the trees are
// regularized the way a production serving forest would be (shallow,
// generous leaves), which also keeps each flattened tree L1-resident.
const ParkFixture& GetDtbFixture() {
  static ParkFixture* fixture = nullptr;
  if (fixture != nullptr) return *fixture;
  IWareConfig cfg;
  cfg.weak_learner = WeakLearnerKind::kDecisionTreeBagging;
  cfg.num_thresholds = 20;
  cfg.cv_folds = 2;
  cfg.bagging.num_estimators = 10;
  cfg.tree.max_depth = 5;
  cfg.tree.min_samples_leaf = 16;
  fixture = new ParkFixture(BuildFixture(ParkPreset::kMfnp, cfg));
  return *fixture;
}

EffortCurveTable CurvesFor(const ParkFixture& fixture, int segments,
                           const PlannerConfig& planner) {
  return fixture.pipeline->model().PredictEffortCurves(
      FeatureMatrixView::FromFlat(fixture.cell_rows, fixture.row_width),
      UniformEffortGrid(0.0, PlannerEffortCap(planner), segments));
}

// Plans the fixture's post; `plan_ms`, when given, receives the wall time
// of PlanPatrols alone (LP build and branch and bound, no tabulation).
StatusOr<PatrolPlan> SolveOnce(const ParkFixture& fixture, int segments,
                               double* plan_ms = nullptr) {
  RobustParams robust;
  robust.beta = 1.0;
  PlannerConfig planner;
  planner.horizon = 8;
  planner.num_patrols = 4;
  planner.pwl_segments = segments;
  planner.milp.max_nodes = 10;
  const auto utils =
      MakeRobustUtilityTables(CurvesFor(fixture, segments, planner), robust);
  const auto start = Clock::now();
  auto plan = PlanPatrols(fixture.graph, utils, planner);
  if (plan_ms != nullptr) *plan_ms = MsSince(start);
  return plan;
}

// True robust utility of a plan (not the PWL surrogate): the ensemble is
// re-evaluated at each cell's assigned coverage via the per-row-efforts
// batch call.
double ExactRobustUtility(const ParkFixture& fixture,
                          const std::vector<double>& coverage,
                          const RobustParams& params) {
  std::vector<Prediction> preds;
  fixture.pipeline->model().PredictBatch(
      FeatureMatrixView::FromFlat(fixture.cell_rows, fixture.row_width),
      coverage, &preds);
  double total = 0.0;
  for (const Prediction& p : preds) {
    total += p.prob - params.beta * p.prob *
                          SquashUncertainty(p.variance, params.squash_scale);
  }
  return total;
}

void BM_PlannerRuntime(benchmark::State& state) {
  const ParkPreset preset = static_cast<ParkPreset>(state.range(0));
  const int segments = static_cast<int>(state.range(1));
  const ParkFixture& fixture = GetFixture(preset);
  for (auto _ : state) {
    auto plan = SolveOnce(fixture, segments);
    benchmark::DoNotOptimize(plan);
    if (!plan.ok()) state.SkipWithError("solve failed");
  }
  state.SetLabel(std::string(ParkPresetName(preset)) + " segments=" +
                 std::to_string(segments));
}

BENCHMARK(BM_PlannerRuntime)
    ->ArgsProduct({{static_cast<long>(ParkPreset::kMfnp),
                    static_cast<long>(ParkPreset::kQenp),
                    static_cast<long>(ParkPreset::kSws)},
                   {5, 10, 15, 20, 25}})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_RiskMapBatch(benchmark::State& state) {
  const ParkFixture& fixture = GetFixture(ParkPreset::kMfnp);
  for (auto _ : state) {
    const RiskMaps maps = fixture.pipeline->PredictRisk(2.0);
    benchmark::DoNotOptimize(maps);
  }
}
BENCHMARK(BM_RiskMapBatch)->Unit(benchmark::kMillisecond);

// The pre-redesign hot path: one virtual Predict call per cell.
void BM_RiskMapPointwise(benchmark::State& state) {
  const ParkFixture& fixture = GetFixture(ParkPreset::kMfnp);
  const auto& data = fixture.pipeline->data();
  const Dataset rows = BuildPredictionRows(data.park, data.history,
                                           fixture.pipeline->test_t_begin(),
                                           2.0);
  for (auto _ : state) {
    std::vector<Prediction> preds(rows.size());
    for (int i = 0; i < rows.size(); ++i) {
      preds[i] = fixture.pipeline->model().Predict(rows.RowVector(i), 2.0);
    }
    benchmark::DoNotOptimize(preds);
  }
}
BENCHMARK(BM_RiskMapPointwise)->Unit(benchmark::kMillisecond);

// Reports the hot-path speedup: tabulated effort curves vs evaluating the
// ensemble pointwise at every (cell, grid point), and batched vs pointwise
// risk maps.
void ReportBatchSpeedups(const ParkFixture& fixture, JsonWriter* json) {
  const auto& model = fixture.pipeline->model();
  const auto& data = fixture.pipeline->data();
  const int t = fixture.pipeline->test_t_begin();

  std::printf("=== Batched serving hot path vs pointwise ===\n");

  // Risk map (one effort level over every park cell).
  const auto t0 = Clock::now();
  const RiskMaps batch_maps =
      PredictRiskMap(model, data.park, data.history, t, 2.0);
  const double batch_ms = MsSince(t0);

  const Dataset rows = BuildPredictionRows(data.park, data.history, t, 2.0);
  const auto t1 = Clock::now();
  std::vector<Prediction> pointwise(rows.size());
  for (int i = 0; i < rows.size(); ++i) {
    pointwise[i] = model.Predict(rows.RowVector(i), 2.0);
  }
  const double pointwise_ms = MsSince(t1);
  double max_diff = 0.0;
  for (int i = 0; i < rows.size(); ++i) {
    max_diff = std::max(
        max_diff,
        std::fabs(batch_maps.risk[rows.cell_id(i)] - pointwise[i].prob));
  }
  std::printf(
      "risk map (%d cells): batch %.2f ms (%.0f ns/cell), pointwise %.2f ms "
      "-> speedup %.2fx (max |diff| = %.3g)\n",
      rows.size(), batch_ms, batch_ms * 1e6 / rows.size(), pointwise_ms,
      batch_ms > 0 ? pointwise_ms / batch_ms : 0.0, max_diff);

  // Effort curves over the planner grid vs per-(cell, grid point) calls.
  PlannerConfig planner;
  planner.horizon = 8;
  planner.num_patrols = 4;
  const std::vector<double> grid =
      UniformEffortGrid(0.0, PlannerEffortCap(planner), 25);
  const int num_cells = static_cast<int>(fixture.graph.park_cell_ids.size());

  const auto t2 = Clock::now();
  const EffortCurveTable curves = model.PredictEffortCurves(
      FeatureMatrixView::FromFlat(fixture.cell_rows, fixture.row_width),
      grid);
  const double curves_ms = MsSince(t2);

  const auto t3 = Clock::now();
  double sink = 0.0;
  for (int v = 0; v < num_cells; ++v) {
    std::vector<double> x(fixture.cell_rows.begin() + v * fixture.row_width,
                          fixture.cell_rows.begin() +
                              (v + 1) * fixture.row_width);
    for (double c : grid) sink += model.Predict(x, c).prob;
  }
  const double closure_ms = MsSince(t3);
  benchmark::DoNotOptimize(sink);
  std::printf(
      "effort curves (%d cells x %d grid points): table %.2f ms, "
      "pointwise %.2f ms -> speedup %.2fx\n\n",
      num_cells, static_cast<int>(grid.size()), curves_ms, closure_ms,
      curves_ms > 0 ? closure_ms / curves_ms : 0.0);
  (void)curves;

  if (json != nullptr) {
    json->Begin("risk_map");
    json->Add("cells", rows.size());
    json->Add("batch_ms", batch_ms);
    json->Add("ns_per_cell", batch_ms * 1e6 / rows.size());
    json->Add("pointwise_ms", pointwise_ms);
    json->Add("speedup", batch_ms > 0 ? pointwise_ms / batch_ms : 0.0);
    json->Add("max_abs_diff", max_diff);
    json->End();
    json->Begin("effort_curves");
    json->Add("cells", num_cells);
    json->Add("grid_points", static_cast<int>(grid.size()));
    json->Add("table_ms", curves_ms);
    json->Add("pointwise_ms", closure_ms);
    json->Add("speedup", curves_ms > 0 ? closure_ms / curves_ms : 0.0);
    json->End();
  }
}

// Compiled-forest serving layer: the same DTB model served through the
// PR-3 reference path (virtual per-member PredictBatch over pointer-ish
// Node structs, per-call Prediction buffers) vs the flat SoA
// CompiledForest, single-threaded. Effort-curve tables additionally
// report the O(E*K) per-effort-level construction — scoring the qualified
// learners once per grid level, the cost model the batch table replaced —
// next to the one-pass reference and the score-once compiled build.
void ReportCompiledForest(JsonWriter* json) {
  const ParkFixture& fixture = GetDtbFixture();
  IWareEnsemble& model = fixture.pipeline->mutable_model();
  CheckOrDie(model.has_compiled_forest(),
             "fig9: DTB ensemble should compile");
  model.set_parallelism(ParallelismConfig::Serial());
  const auto& data = fixture.pipeline->data();
  const int t = fixture.pipeline->test_t_begin();
  const std::vector<double> all_rows =
      BuildCellFeatureRows(data.park, data.history, t);
  const FeatureMatrixView cells =
      FeatureMatrixView::FromFlat(all_rows, data.park.num_features() + 1);
  const int n = cells.rows();
  PlannerConfig planner;
  planner.horizon = 8;
  planner.num_patrols = 4;
  const std::vector<double> grid =
      UniformEffortGrid(0.0, PlannerEffortCap(planner), 25);
  const int m = static_cast<int>(grid.size());
  const int reps = g_smoke ? 15 : 7;
  // A single smoke-sized call is only tens of microseconds — too short a
  // timing window on a shared machine. Each rep times `iters` back-to-back
  // calls and reports the per-call minimum.
  const int risk_iters = std::max(1, 2000000 / std::max(1, n));
  const int curve_iters = std::max(1, risk_iters / (2 * m));

  std::printf(
      "=== Compiled forest (flat SoA serving) vs reference, 1 thread ===\n");
  std::printf("DTB ensemble: %d learners x %d trees, %d cells\n",
              model.num_learners(), model.config().bagging.num_estimators, n);

  // Risk-map scoring (one shared effort over every park cell).
  std::vector<Prediction> compiled_preds, reference_preds;
  model.set_compiled_serving(true);
  const double risk_compiled_ms =
      MinMs(reps, [&] {
        for (int k = 0; k < risk_iters; ++k) {
          model.PredictBatch(cells, 2.0, &compiled_preds);
        }
      }) /
      risk_iters;
  const EffortCurveTable curves_compiled =
      model.PredictEffortCurves(cells, grid);
  const double curves_compiled_ms =
      MinMs(reps, [&] {
        for (int k = 0; k < curve_iters; ++k) {
          model.PredictEffortCurves(cells, grid);
        }
      }) /
      curve_iters;
  model.set_compiled_serving(false);
  const double risk_reference_ms =
      MinMs(reps, [&] {
        for (int k = 0; k < risk_iters; ++k) {
          model.PredictBatch(cells, 2.0, &reference_preds);
        }
      }) /
      risk_iters;
  const EffortCurveTable curves_reference =
      model.PredictEffortCurves(cells, grid);
  const double curves_reference_ms =
      MinMs(reps, [&] {
        for (int k = 0; k < curve_iters; ++k) {
          model.PredictEffortCurves(cells, grid);
        }
      }) /
      curve_iters;
  // The O(E*K) construction the one-pass table replaced: re-score the
  // qualified learners once per effort level via the reference batch path.
  std::vector<Prediction> level;
  const double curves_per_level_ms = MinMs(reps, [&] {
    for (double effort : grid) model.PredictBatch(cells, effort, &level);
  });
  model.set_compiled_serving(true);

  const bool risk_identical =
      std::equal(compiled_preds.begin(), compiled_preds.end(),
                 reference_preds.begin(), reference_preds.end(),
                 [](const Prediction& a, const Prediction& b) {
                   return a.prob == b.prob && a.variance == b.variance;
                 });
  const bool curves_identical =
      curves_compiled.prob == curves_reference.prob &&
      curves_compiled.variance == curves_reference.variance;

  const double risk_speedup =
      risk_compiled_ms > 0 ? risk_reference_ms / risk_compiled_ms : 0.0;
  const double curves_speedup_ref =
      curves_compiled_ms > 0 ? curves_reference_ms / curves_compiled_ms : 0.0;
  const double curves_speedup_level =
      curves_compiled_ms > 0 ? curves_per_level_ms / curves_compiled_ms : 0.0;
  std::printf(
      "risk-map scoring (%d cells): reference %.2f ms (%.0f ns/cell), "
      "compiled %.2f ms (%.0f ns/cell) -> speedup %.2fx (outputs %s)\n",
      n, risk_reference_ms, risk_reference_ms * 1e6 / n, risk_compiled_ms,
      risk_compiled_ms * 1e6 / n, risk_speedup,
      risk_identical ? "bit-identical" : "DIFFER");
  std::printf(
      "effort-curve table (%d cells x %d grid points):\n"
      "  per-level scoring (O(E*K) sweeps) %.2f ms\n"
      "  one-pass reference                %.2f ms\n"
      "  compiled score-once               %.2f ms\n"
      "  -> speedup %.2fx vs per-level, %.2fx vs one-pass reference "
      "(tables %s)\n\n",
      n, m, curves_per_level_ms, curves_reference_ms, curves_compiled_ms,
      curves_speedup_level, curves_speedup_ref,
      curves_identical ? "bit-identical" : "DIFFER");

  if (json != nullptr) {
    json->Begin("compiled_forest");
    json->Add("learners", model.num_learners());
    json->Add("trees_per_learner", model.config().bagging.num_estimators);
    json->Begin("risk_map");
    json->Add("cells", n);
    json->Add("reference_ms", risk_reference_ms);
    json->Add("compiled_ms", risk_compiled_ms);
    json->Add("reference_ns_per_cell", risk_reference_ms * 1e6 / n);
    json->Add("compiled_ns_per_cell", risk_compiled_ms * 1e6 / n);
    json->Add("speedup", risk_speedup);
    json->Add("bit_identical", risk_identical);
    json->End();
    json->Begin("effort_curves");
    json->Add("cells", n);
    json->Add("grid_points", m);
    json->Add("per_level_ms", curves_per_level_ms);
    json->Add("reference_ms", curves_reference_ms);
    json->Add("compiled_ms", curves_compiled_ms);
    json->Add("speedup_vs_per_level", curves_speedup_level);
    json->Add("speedup_vs_reference", curves_speedup_ref);
    json->Add("bit_identical", curves_identical);
    json->End();
    json->End();
  }
}

// Synthetic training/serving data for the backend rooflines: the park
// fixtures peak at a handful of features, but the SIMD and kernel-block
// sweeps need feature width and row count to scale independently of any
// scenario grid. A mildly nonlinear label keeps the trees honest.
Dataset MakeSyntheticData(int rows, int features, int seed) {
  Rng rng(seed);
  Dataset data(features);
  std::vector<double> x(features);
  for (int i = 0; i < rows; ++i) {
    double score = 0.0;
    for (int f = 0; f < features; ++f) {
      x[f] = rng.Uniform(-1.0, 1.0);
      score += (f % 3 == 0 ? 0.8 : -0.35) * x[f];
    }
    score += x[0] * x[1 % features];
    const int y = score + rng.Uniform(-1.0, 1.0) > 0.0 ? 1 : 0;
    data.AddRow(x, y, rng.Uniform(0.0, 4.0) + 0.01);
  }
  return data;
}

// Saves PAWS_FORCE_BACKEND on entry and restores it on exit, so the tier
// sweep can pin tiers without leaking the override into later reports.
class ScopedBackendEnv {
 public:
  ScopedBackendEnv() {
    const char* old = std::getenv("PAWS_FORCE_BACKEND");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
  }
  ~ScopedBackendEnv() {
    if (had_old_) {
      setenv("PAWS_FORCE_BACKEND", old_.c_str(), /*overwrite=*/1);
    } else {
      unsetenv("PAWS_FORCE_BACKEND");
    }
  }
  ScopedBackendEnv(const ScopedBackendEnv&) = delete;
  ScopedBackendEnv& operator=(const ScopedBackendEnv&) = delete;

 private:
  bool had_old_ = false;
  std::string old_;
};

// Pins the dispatch tier and re-selects the backend: ActiveSimdTier reads
// the environment at selection time, so setenv + set_compiled_serving(true)
// is the entire switch (what an operator does to a daemon, minus exec).
void PinTier(IWareEnsemble* model, SimdTier tier) {
  setenv("PAWS_FORCE_BACKEND", SimdTierName(tier), /*overwrite=*/1);
  model->set_compiled_serving(true);
}

bool PredictionsIdentical(const std::vector<Prediction>& a,
                          const std::vector<Prediction>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const Prediction& x, const Prediction& y) {
                      return x.prob == y.prob && x.variance == y.variance;
                    });
}

// SIMD forest-traversal roofline: synthetic DTB ensembles of growing
// forest size, served through every dispatch tier this host can execute
// (PAWS_FORCE_BACKEND pins each in turn) next to the reference path.
// Growing the node pool pushes the walk out of L1/L2 — exactly where the
// gathered tiers pull ahead of the 4-lane scalar ILP walk — so the
// per-tier ns/cell table is the roofline. The headline `risk_map` block
// (largest forest, strongest tier) is what bench_trend_check tracks, and
// the printed speedup-vs-forced-scalar is the acceptance number.
void ReportSimdTraversal(JsonWriter* json) {
  ScopedBackendEnv restore_env;
  const int kFeatures = 16;
  const Dataset train = MakeSyntheticData(g_smoke ? 2000 : 4000, kFeatures, 67);
  const int cells =
      g_forest_cells > 0 ? g_forest_cells : (g_smoke ? 8192 : 24576);
  const Dataset serve = MakeSyntheticData(cells, kFeatures, 68);
  const FeatureMatrixView view = serve.FeaturesView();
  const SimdTier detected = DetectSimdTier();
  std::vector<SimdTier> tiers{SimdTier::kScalar};
  if (static_cast<int>(detected) >= static_cast<int>(SimdTier::kAvx2)) {
    tiers.push_back(SimdTier::kAvx2);
  }
  if (static_cast<int>(detected) >= static_cast<int>(SimdTier::kAvx512)) {
    tiers.push_back(SimdTier::kAvx512);
  }
  // The headline (last) entry is sized so the node pool spills well past
  // L2: the scalar walk eats the miss latency serially while the gathered
  // tiers keep 4-8 rows' misses in flight, which is exactly the regime the
  // dispatch tiers exist for.
  const std::vector<int> estimator_sweep =
      g_smoke ? std::vector<int>{4, 24} : std::vector<int>{4, 8, 24};

  std::printf("=== SIMD forest traversal: dispatch-tier roofline ===\n");
  std::printf("detected tier %s; %d serving rows x %d features\n",
              SimdTierName(detected), cells, kFeatures);
  if (json != nullptr) {
    json->Begin("simd_traversal");
    json->Add("detected_tier", SimdTierName(detected));
    json->Add("features", kFeatures);
    json->Add("cells", cells);
    json->Begin("roofline");
  }

  // Headline numbers come from the largest forest (the last sweep entry).
  double best_ns = 0.0, scalar_ns = 0.0, reference_ns = 0.0;
  double headline_pool_kib = 0.0;
  int headline_trees = 0;
  bool headline_identical = false;
  for (const int estimators : estimator_sweep) {
    IWareConfig cfg;
    cfg.weak_learner = WeakLearnerKind::kDecisionTreeBagging;
    cfg.num_thresholds = 6;
    cfg.cv_folds = 2;
    cfg.bagging.num_estimators = estimators;
    cfg.tree.max_depth = 10;
    cfg.tree.min_samples_leaf = 4;
    cfg.tree.max_features = 5;
    IWareEnsemble model(cfg);
    Rng rng(101 + estimators);
    CheckOrDie(model.Fit(train, &rng).ok(), "fig9: SIMD sweep fit failed");
    model.set_parallelism(ParallelismConfig::Serial());
    const int trees = model.num_learners() * estimators;
    const auto* forest =
        dynamic_cast<const CompiledForest*>(&model.scoring_backend());
    CheckOrDie(forest != nullptr, "fig9: SIMD sweep should compile a forest");
    const double pool_kib =
        forest->num_nodes() * sizeof(CompiledForest::Node) / 1024.0;

    // Per-call work grows with cells*trees; aim each rep at a roughly
    // constant node-step budget so small forests still get a stable window.
    const int reps = g_smoke ? 3 : 5;
    const long long steps = 1LL * cells * trees * cfg.tree.max_depth;
    const int iters =
        std::max(1, static_cast<int>(60000000 / std::max(1LL, steps)));

    model.set_compiled_serving(false);
    std::vector<Prediction> reference;
    const double ref_ms = MinMs(reps, [&] {
                            for (int k = 0; k < iters; ++k) {
                              model.PredictBatch(view, 2.0, &reference);
                            }
                          }) /
                          iters;
    std::vector<double> tier_ms(tiers.size(), 0.0);
    bool identical = true;
    for (size_t ti = 0; ti < tiers.size(); ++ti) {
      PinTier(&model, tiers[ti]);
      std::vector<Prediction> preds;
      tier_ms[ti] = MinMs(reps, [&] {
                      for (int k = 0; k < iters; ++k) {
                        model.PredictBatch(view, 2.0, &preds);
                      }
                    }) /
                    iters;
      identical = identical && PredictionsIdentical(preds, reference);
    }

    std::printf("trees=%3d pool %7.1f KiB: reference %6.0f ns/cell",
                trees, pool_kib, ref_ms * 1e6 / cells);
    if (json != nullptr) {
      json->Begin("trees_" + std::to_string(trees));
      json->Add("trees", trees);
      json->Add("node_pool_kib", pool_kib);
      json->Add("reference_ns_per_cell", ref_ms * 1e6 / cells);
    }
    for (size_t ti = 0; ti < tiers.size(); ++ti) {
      std::printf(", %s %6.0f ns/cell", SimdTierName(tiers[ti]),
                  tier_ms[ti] * 1e6 / cells);
      if (json != nullptr) {
        json->Add(std::string(SimdTierName(tiers[ti])) + "_ns_per_cell",
                  tier_ms[ti] * 1e6 / cells);
      }
    }
    std::printf(" (outputs %s)\n", identical ? "bit-identical" : "DIFFER");
    if (json != nullptr) {
      json->Add("bit_identical", identical);
      json->End();
    }

    best_ns = tier_ms.back() * 1e6 / cells;
    scalar_ns = tier_ms.front() * 1e6 / cells;
    reference_ns = ref_ms * 1e6 / cells;
    headline_pool_kib = pool_kib;
    headline_trees = trees;
    headline_identical = identical;
  }

  const double speedup_vs_scalar = best_ns > 0 ? scalar_ns / best_ns : 0.0;
  const double speedup_vs_reference =
      best_ns > 0 ? reference_ns / best_ns : 0.0;
  std::printf(
      "largest forest (%d trees, %.1f KiB pool): %s tier %.2fx vs forced "
      "scalar (target >= 1.5x on gathered tiers), %.2fx vs reference\n\n",
      headline_trees, headline_pool_kib, SimdTierName(tiers.back()),
      speedup_vs_scalar, speedup_vs_reference);
  if (json != nullptr) {
    json->End();  // roofline
    json->Begin("risk_map");
    json->Add("cells", cells);
    json->Add("trees", headline_trees);
    json->Add("node_pool_kib", headline_pool_kib);
    json->Add("tier", SimdTierName(tiers.back()));
    json->Add("ns_per_cell", best_ns);
    json->Add("scalar_ns_per_cell", scalar_ns);
    json->Add("reference_ns_per_cell", reference_ns);
    json->Add("speedup_vs_scalar", speedup_vs_scalar);
    json->Add("speedup_vs_reference", speedup_vs_reference);
    json->Add("bit_identical", headline_identical);
    json->End();
    json->End();  // simd_traversal
  }
}

// Compiled-GP kernel-block roofline: a wide-feature GPB ensemble served
// through CompiledGpEnsemble vs the reference virtual-dispatch path, over
// growing inducing-point counts. The reference GP batch is already
// chunked, so the compiled win is the fused kernel block — squared
// distances lane across serving columns through a transposed block instead
// of one non-inlined kernel Eval call (a serial feature-order reduction)
// per (inducing point, cell) — plus thread-local scratch reuse across
// calls. Wide features deepen each Eval's serial reduction, which is why
// this fixture is 48-dimensional. The headline `risk_map` block (largest
// kernel) is what bench_trend_check tracks; the printed speedup is the
// acceptance number.
void ReportCompiledGp(JsonWriter* json) {
  const int kFeatures = 48;
  const Dataset train = MakeSyntheticData(g_smoke ? 360 : 520, kFeatures, 77);
  const int cells = g_smoke ? 1024 : 2048;
  const Dataset serve = MakeSyntheticData(cells, kFeatures, 78);
  const FeatureMatrixView view = serve.FeaturesView();
  const std::vector<int> kernel_sweep =
      g_kernel_size > 0 ? std::vector<int>{g_kernel_size}
      : g_smoke         ? std::vector<int>{48, 96}
                        : std::vector<int>{32, 64, 96};

  std::printf("=== Compiled GP kernel block vs reference, 1 thread ===\n");
  std::printf("%d serving rows x %d features\n", cells, kFeatures);
  if (json != nullptr) {
    json->Begin("compiled_gp");
    json->Add("features", kFeatures);
    json->Add("cells", cells);
    json->Begin("roofline");
  }

  double compiled_ns = 0.0, reference_ns = 0.0;
  int headline_inducing = 0, headline_members = 0;
  bool headline_identical = false;
  for (const int kernel_size : kernel_sweep) {
    IWareConfig cfg;
    cfg.weak_learner = WeakLearnerKind::kGaussianProcessBagging;
    cfg.num_thresholds = 3;
    cfg.cv_folds = 2;
    cfg.bagging.num_estimators = 3;
    cfg.gp.max_points = kernel_size;
    IWareEnsemble model(cfg);
    Rng rng(201 + kernel_size);
    CheckOrDie(model.Fit(train, &rng).ok(), "fig9: GP sweep fit failed");
    model.set_parallelism(ParallelismConfig::Serial());
    const auto* gp =
        dynamic_cast<const CompiledGpEnsemble*>(&model.scoring_backend());
    CheckOrDie(gp != nullptr, "fig9: GPB sweep should compile to compiled-gp");
    // Capture sizes now: the set_compiled_serving toggle below rebuilds the
    // backend, so `gp` dangles once the reference timing starts.
    const int inducing = gp->max_inducing_points();
    const int members = gp->num_members();

    // Even min-of-N is vulnerable to sustained interference on 1-core CI
    // runners, and this section's headline is trend-checked — take a few
    // extra reps rather than risk a phantom regression.
    const int reps = g_smoke ? 5 : 7;
    std::vector<Prediction> compiled_preds, reference_preds;
    const double compiled_ms = MinMs(
        reps, [&] { model.PredictBatch(view, 2.0, &compiled_preds); });
    model.set_compiled_serving(false);
    const double reference_ms = MinMs(
        reps, [&] { model.PredictBatch(view, 2.0, &reference_preds); });
    model.set_compiled_serving(true);
    const bool identical =
        PredictionsIdentical(compiled_preds, reference_preds);
    const double speedup =
        compiled_ms > 0 ? reference_ms / compiled_ms : 0.0;

    std::printf(
        "kernel m=%3d (%d members): reference %7.2f ms (%6.0f ns/cell), "
        "compiled %6.2f ms (%6.0f ns/cell) -> %.2fx (outputs %s)\n",
        inducing, members, reference_ms, reference_ms * 1e6 / cells,
        compiled_ms, compiled_ms * 1e6 / cells, speedup,
        identical ? "bit-identical" : "DIFFER");
    if (json != nullptr) {
      json->Begin("kernel_" + std::to_string(kernel_size));
      json->Add("inducing_points", inducing);
      json->Add("members", members);
      json->Add("reference_ns_per_cell", reference_ms * 1e6 / cells);
      json->Add("compiled_ns_per_cell", compiled_ms * 1e6 / cells);
      json->Add("speedup", speedup);
      json->Add("bit_identical", identical);
      json->End();
    }

    compiled_ns = compiled_ms * 1e6 / cells;
    reference_ns = reference_ms * 1e6 / cells;
    headline_inducing = inducing;
    headline_members = members;
    headline_identical = identical;
  }

  const double speedup = compiled_ns > 0 ? reference_ns / compiled_ns : 0.0;
  std::printf(
      "largest kernel (m=%d): compiled GP %.2fx vs reference "
      "(target >= 3x)\n\n",
      headline_inducing, speedup);
  if (json != nullptr) {
    json->End();  // roofline
    json->Begin("risk_map");
    json->Add("cells", cells);
    json->Add("inducing_points", headline_inducing);
    json->Add("members", headline_members);
    json->Add("ns_per_cell", compiled_ns);
    json->Add("reference_ns_per_cell", reference_ns);
    json->Add("speedup", speedup);
    json->Add("bit_identical", headline_identical);
    json->End();
    json->End();  // compiled_gp
  }
}

// Thread scaling: identical training / tabulation work pinned to 1 thread
// vs the hardware default. Outputs are bit-identical by design, so the
// report also cross-checks that while it measures wall time.
void ReportThreadScaling(const ParkFixture& fixture, JsonWriter* json) {
  const int hw = ParallelismConfig{0}.ResolveNumThreads();
  std::printf("=== Thread scaling: 1 thread vs %d ===\n", hw);

  // Bagging weak-learner training (the dominant Fit cost): enough members
  // that every core gets work.
  const auto& data = fixture.pipeline->data();
  const Dataset train = BuildDataset(data.park, data.history);
  DecisionTreeConfig tree;
  BaggingConfig bag;
  bag.num_estimators = std::max(8, 2 * hw);
  auto train_bagger = [&](int threads, double* out_ms) {
    BaggingConfig cfg = bag;
    cfg.parallelism.num_threads = threads;
    BaggingClassifier model(std::make_unique<DecisionTree>(tree), cfg);
    Rng rng(99);
    const auto t0 = Clock::now();
    CheckOrDie(model.Fit(train, &rng).ok(), "thread-scaling fit failed");
    *out_ms = MsSince(t0);
    std::vector<double> probs;
    model.PredictBatch(train.FeaturesView(), &probs);
    return probs;
  };
  double fit1_ms = 0.0, fitn_ms = 0.0;
  const std::vector<double> probs1 = train_bagger(1, &fit1_ms);
  const std::vector<double> probsn = train_bagger(0, &fitn_ms);
  const bool fit_identical = probs1 == probsn;
  std::printf(
      "bagging training (%d members, %d rows): 1 thread %.2f ms, "
      "%d threads %.2f ms -> speedup %.2fx (outputs %s)\n",
      bag.num_estimators, train.size(), fit1_ms, hw, fitn_ms,
      fitn_ms > 0 ? fit1_ms / fitn_ms : 0.0,
      fit_identical ? "bit-identical" : "DIFFER");

  // Effort-curve tabulation over the planner grid.
  PlannerConfig planner;
  planner.horizon = 8;
  planner.num_patrols = 4;
  const std::vector<double> grid =
      UniformEffortGrid(0.0, PlannerEffortCap(planner), 25);
  const FeatureMatrixView cells =
      FeatureMatrixView::FromFlat(fixture.cell_rows, fixture.row_width);
  IWareEnsemble& model = fixture.pipeline->mutable_model();
  model.set_parallelism(ParallelismConfig::Serial());
  const auto t1 = Clock::now();
  const EffortCurveTable curves1 = model.PredictEffortCurves(cells, grid);
  const double curves1_ms = MsSince(t1);
  model.set_parallelism(ParallelismConfig{});
  const auto tn = Clock::now();
  const EffortCurveTable curvesn = model.PredictEffortCurves(cells, grid);
  const double curvesn_ms = MsSince(tn);
  const bool curves_identical =
      curves1.prob == curvesn.prob && curves1.variance == curvesn.variance;
  std::printf(
      "effort-curve tabulation (%d cells x %d grid points): 1 thread "
      "%.2f ms, %d threads %.2f ms -> speedup %.2fx (tables %s)\n\n",
      curves1.num_cells, curves1.num_points(), curves1_ms, hw, curvesn_ms,
      curvesn_ms > 0 ? curves1_ms / curvesn_ms : 0.0,
      curves_identical ? "bit-identical" : "DIFFER");

  if (json != nullptr) {
    json->Begin("thread_scaling");
    json->Add("hardware_threads", hw);
    json->Add("bagging_fit_1t_ms", fit1_ms);
    json->Add("bagging_fit_nt_ms", fitn_ms);
    json->Add("bagging_fit_speedup", fitn_ms > 0 ? fit1_ms / fitn_ms : 0.0);
    json->Add("bagging_fit_bit_identical", fit_identical);
    json->Add("curves_1t_ms", curves1_ms);
    json->Add("curves_nt_ms", curvesn_ms);
    json->Add("curves_speedup", curvesn_ms > 0 ? curves1_ms / curvesn_ms : 0.0);
    json->Add("curves_bit_identical", curves_identical);
    json->End();
  }
}

// Snapshot economics: serialize the trained model (+ park + lagged
// coverage) to an archive, reload it, verify the served risk map is
// bit-identical, and report save/load wall time, snapshot size, and the
// load-vs-retrain speedup — the number CHANGES quotes for the
// train-once / serve-many story.
void ReportSnapshotRoundtrip(const ParkFixture& fixture, JsonWriter* json) {
  std::printf("=== Model snapshot: save/load vs retrain ===\n");

  const auto t0 = Clock::now();
  ArchiveWriter writer;
  fixture.pipeline->SaveModel(&writer);
  const std::string bytes = writer.Bytes();
  const double save_ms = MsSince(t0);

  const std::string path = "fig9_snapshot.paws";
  const auto st = WriteStringToFile(bytes, path);
  if (!st.ok()) {
    std::fprintf(stderr, "snapshot: %s\n", st.ToString().c_str());
    return;
  }
  const auto t1 = Clock::now();
  auto snapshot = PawsPipeline::LoadModel(path);
  const double load_ms = MsSince(t1);
  CheckOrDie(snapshot.ok(), "fig9: snapshot load failed");

  const RiskMaps want = fixture.pipeline->PredictRisk(2.0);
  const RiskMaps got = snapshot->PredictRisk(2.0);
  const bool identical =
      got.risk == want.risk && got.variance == want.variance;

  // The archive checksum alone, over the bytes just saved: every save,
  // load and served response pays it, and a CPU where the carry-less fold
  // is not picked reads several times slower here.
  const double crc_ms = MinMs(9, [&] {
    const uint32_t crc = Crc32(bytes.data(), bytes.size());
    benchmark::DoNotOptimize(crc);
  });
  const double crc_ns_per_kib = crc_ms * 1e6 / (bytes.size() / 1024.0);
  std::printf("snapshot CRC-32: %.0f ns/KiB\n", crc_ns_per_kib);
  std::printf(
      "snapshot: %.1f KiB, save %.1f ms, load %.1f ms; training took "
      "%.0f ms -> load-vs-retrain speedup %.0fx (served risk map %s)\n\n",
      bytes.size() / 1024.0, save_ms, load_ms, fixture.train_ms,
      load_ms > 0 ? fixture.train_ms / load_ms : 0.0,
      identical ? "bit-identical" : "DIFFERS");
  std::remove(path.c_str());

  if (json != nullptr) {
    json->Begin("snapshot");
    json->Add("size_kib", bytes.size() / 1024.0);
    json->Add("save_ms", save_ms);
    json->Add("load_ms", load_ms);
    json->Add("crc32_ns_per_kib", crc_ns_per_kib);
    json->Add("train_ms", fixture.train_ms);
    json->Add("load_vs_retrain_speedup",
              load_ms > 0 ? fixture.train_ms / load_ms : 0.0);
    json->Add("served_risk_map_bit_identical", identical);
    json->End();
  }
}

// Multi-park serving: the DTB model snapshot registered under 8 park ids
// in one ParkService. Reports repeated-risk-map latency at three serving
// depths — the uncached per-request path (feature rows re-assembled from
// the rasters every call), the snapshot's tile pool (warm tile rows, fresh
// scoring), and ParkService LRU hits. Every served map is checked
// bit-identical to the per-request path.
void ReportParkService(JsonWriter* json) {
  constexpr int kParks = 8;
  const ParkFixture& fixture = GetDtbFixture();
  ArchiveWriter writer;
  fixture.pipeline->SaveModel(&writer);
  const std::string bytes = writer.Bytes();
  auto load_snapshot = [&bytes] {
    auto snapshot = ModelSnapshot::FromBytes(bytes);
    CheckOrDie(snapshot.ok(), "fig9: snapshot load failed");
    return std::move(snapshot).value();
  };

  ParkService service;
  for (int p = 0; p < kParks; ++p) {
    CheckOrDie(
        service.Register("park-" + std::to_string(p), load_snapshot()).ok(),
        "fig9: register failed");
  }
  const ModelSnapshot direct = load_snapshot();
  const Park& park = direct.park();
  const int n = park.num_cells();
  PatrolHistory one_step;
  StepRecord step;
  step.effort = direct.lagged_effort();
  one_step.steps.push_back(std::move(step));

  std::printf("=== Multi-park serving: ParkService over %d parks ===\n",
              kParks);

  // Bit-identity across the fleet.
  bool identical = true;
  const RiskMaps want =
      PredictRiskMap(direct.model(), park, one_step, /*t=*/1, 2.0);
  for (int p = 0; p < kParks; ++p) {
    const auto served = service.RiskMap("park-" + std::to_string(p), 2.0);
    CheckOrDie(served.ok(), "fig9: service risk map failed");
    identical = identical && (*served)->risk == want.risk &&
                (*served)->variance == want.variance;
  }

  // Repeated-risk-map latency at the three serving depths. Single calls
  // are microseconds on the smoke grid, so each rep times `iters`
  // back-to-back calls and reports the per-call minimum.
  const int reps = g_smoke ? 15 : 7;
  const int iters = std::max(1, 500000 / std::max(1, n));
  const double uncached_ms =
      MinMs(reps, [&] {
        for (int k = 0; k < iters; ++k) {
          const RiskMaps maps =
              PredictRiskMap(direct.model(), park, one_step, /*t=*/1, 2.0);
          benchmark::DoNotOptimize(maps);
        }
      }) /
      iters;
  const double pool_ms =
      MinMs(reps, [&] {
        for (int k = 0; k < iters; ++k) {
          const RiskMaps maps = direct.PredictRisk(2.0);
          benchmark::DoNotOptimize(maps);
        }
      }) /
      iters;
  const double cached_ms =
      MinMs(reps, [&] {
        for (int k = 0; k < iters; ++k) {
          auto served = service.RiskMap("park-0", 2.0);
          benchmark::DoNotOptimize(served);
        }
      }) /
      iters;
  const double pool_speedup = pool_ms > 0 ? uncached_ms / pool_ms : 0.0;
  const double cached_speedup = cached_ms > 0 ? uncached_ms / cached_ms : 0.0;
  std::printf(
      "repeated risk map (%d cells): per-request re-assembly %.4f ms, "
      "tile pool %.4f ms (%.2fx), LRU hit %.5f ms (%.0fx) — maps %s\n\n",
      n, uncached_ms, pool_ms, pool_speedup, cached_ms, cached_speedup,
      identical ? "bit-identical" : "DIFFER");

  if (json != nullptr) {
    json->Begin("park_service");
    json->Add("parks", kParks);
    json->Add("cells_per_park", n);
    json->Add("uncached_ms", uncached_ms);
    json->Add("tile_pool_ms", pool_ms);
    json->Add("cached_ms", cached_ms);
    json->Add("tile_pool_speedup", pool_speedup);
    json->Add("cached_speedup", cached_speedup);
    json->Add("bit_identical", identical);
    json->End();
  }
}

// High-water-mark RSS of this process in MiB (Linux VmHWM; 0 elsewhere) —
// the number the mega-park memory ceiling is asserted against in CI.
double ReadPeakRssMb() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
#else
  return 0.0;
#endif
}

// Tiled mega-park serving: a park sized by --mega-cells served through a
// ModelSnapshot whose feature-tile pool is LRU-bounded at 64 MiB (no
// O(cells) feature rows ever exist).
// Reports synthesis time, cold single-tile latency (rows materialized +
// scored; the `ns_per_cell` bench_trend_check tracks), feature-row
// assembly alone (`materialize_ns_per_cell`), warm served-tile
// LRU hits, pool/cache counters, and peak RSS — which stays at park
// rasters + model + pool budget instead of growing an O(cells) row plane
// (`eager_rows_mb_avoided` is what all-cells rows held at once would add).
void ReportMegaPark(long long target_cells, JsonWriter* json) {
  // Train a small DTB model on a park with the same 11-feature stack; row
  // widths match by construction, so the model serves the mega park.
  Scenario scenario;
  scenario.num_years = 3;
  ScenarioData data = SimulateScenario(scenario, 7);
  IWareConfig cfg;
  cfg.weak_learner = WeakLearnerKind::kDecisionTreeBagging;
  cfg.num_thresholds = 10;
  cfg.cv_folds = 2;
  cfg.bagging.num_estimators = 8;
  cfg.tree.max_depth = 5;
  cfg.tree.min_samples_leaf = 16;
  IWareEnsemble model(cfg);
  Rng rng(31);
  const Dataset train = BuildDataset(data.park, data.history);
  const auto t_train = Clock::now();
  CheckOrDie(model.Fit(train, &rng).ok(), "fig9: mega-park fit failed");
  const double train_ms = MsSince(t_train);

  MegaParkConfig mega_cfg;
  mega_cfg.target_cells = target_cells;
  const auto t_gen = Clock::now();
  Park mega = GenerateMegaPark(mega_cfg);
  const double gen_ms = MsSince(t_gen);
  CheckOrDie(mega.num_features() == data.park.num_features(),
             "fig9: mega park must match the training feature stack");
  const long long cells = mega.num_cells();
  const int row_width = mega.num_features() + 1;
  const double eager_rows_mb =
      cells * static_cast<double>(row_width) * sizeof(double) / (1 << 20);

  TiledPlaneOptions tiled;
  tiled.pool_budget_bytes = 64ull << 20;
  const double pool_budget_mb =
      static_cast<double>(tiled.pool_budget_bytes) / (1 << 20);
  ModelSnapshot snapshot(std::move(model), std::move(mega),
                         std::vector<double>(cells, 0.0), tiled);
  const int num_tiles = snapshot.num_tiles();

  // Evenly sampled tiles across the park: the cold pass materializes and
  // scores each (served-tile cache miss), the warm pass replays the same
  // ids as pure LRU hits.
  const int sample = std::min(num_tiles, 256);
  std::vector<int> tile_ids;
  for (int i = 0; i < sample; ++i) {
    tile_ids.push_back(static_cast<int>(1LL * i * num_tiles / sample));
  }

  // Feature-row assembly alone, over the same tiles: a plane whose 1-byte
  // pool budget makes every GetTile a miss (the `materialize_ns_per_cell`
  // bench_trend_check tracks). Its rows are the snapshot's: same park,
  // same all-zero coverage.
  double materialize_ms = 0.0;
  long long materialized_cells = 0;
  {
    TiledPlaneOptions probe_options = tiled;
    probe_options.pool_budget_bytes = 1;
    const TiledFeaturePlane probe(snapshot.park(), {}, probe_options);
    const auto t_materialize = Clock::now();
    for (int t : tile_ids) {
      auto tile = probe.GetTile(snapshot.park(), t);
      materialized_cells += static_cast<long long>(tile->cell_ids.size());
      benchmark::DoNotOptimize(tile);
    }
    materialize_ms = MsSince(t_materialize);
  }
  const double materialize_ns_per_cell =
      materialized_cells > 0 ? materialize_ms * 1e6 / materialized_cells
                             : 0.0;

  ParkServiceOptions opts;
  opts.tile_cache_capacity = 512;  // >= the sweep below, so warm == hit
  ParkService service(opts);
  CheckOrDie(service.Register("mega", std::move(snapshot)).ok(),
             "fig9: mega-park register failed");

  std::printf("=== Tiled mega-park serving (64 MiB tile pool) ===\n");
  std::printf(
      "%lld cells, %d tiles, row width %d: synthesis %.0f ms, train %.0f ms; "
      "pool budget %.0f MiB (all-cells rows would add %.1f MiB)\n",
      cells, num_tiles, row_width, gen_ms, train_ms, pool_budget_mb,
      eager_rows_mb);

  long long scored_cells = 0;
  const auto t_cold = Clock::now();
  for (int t : tile_ids) {
    const auto tile = service.RiskTile("mega", t, 2.0);
    CheckOrDie(tile.ok(), "fig9: mega RiskTile failed");
    scored_cells += static_cast<long long>((*tile)->cell_ids.size());
  }
  const double cold_ms = MsSince(t_cold);
  const auto t_warm = Clock::now();
  for (int t : tile_ids) {
    auto tile = service.RiskTile("mega", t, 2.0);
    benchmark::DoNotOptimize(tile);
  }
  const double warm_ms = MsSince(t_warm);

  const double ns_per_cell =
      scored_cells > 0 ? cold_ms * 1e6 / scored_cells : 0.0;
  const double cold_tile_qps = cold_ms > 0 ? sample * 1000.0 / cold_ms : 0.0;
  const double warm_tile_qps = warm_ms > 0 ? sample * 1000.0 / warm_ms : 0.0;
  std::printf(
      "single-tile queries (%d tiles, %lld cells): cold %.1f ms "
      "(%.0f ns/cell, %.0f tiles/s), warm %.2f ms (%.0f tiles/s)\n",
      sample, scored_cells, cold_ms, ns_per_cell, cold_tile_qps, warm_ms,
      warm_tile_qps);
  std::printf(
      "feature-row assembly alone (same tiles, 1-byte pool): %.1f ms "
      "(%.0f ns/cell)\n",
      materialize_ms, materialize_ns_per_cell);

  const auto stats = service.RiskTileStats("mega");
  CheckOrDie(stats.ok(), "fig9: mega RiskTileStats failed");
  const double pool_resident_mb =
      static_cast<double>(stats->pool.resident_bytes) / (1 << 20);
  const double peak_rss_mb = ReadPeakRssMb();
  std::printf(
      "tile cache: %llu hits / %llu misses; feature-tile pool: %llu "
      "resident (%.1f MiB), %llu hits / %llu misses / %llu evictions; "
      "peak RSS %.0f MiB\n\n",
      static_cast<unsigned long long>(stats->hits),
      static_cast<unsigned long long>(stats->misses),
      static_cast<unsigned long long>(stats->pool.resident_tiles),
      pool_resident_mb,
      static_cast<unsigned long long>(stats->pool.hits),
      static_cast<unsigned long long>(stats->pool.misses),
      static_cast<unsigned long long>(stats->pool.evictions), peak_rss_mb);

  if (json != nullptr) {
    json->Begin("mega_park");
    json->Add("cells", static_cast<double>(cells));
    json->Add("tiles", num_tiles);
    json->Add("tile_size", stats->tile_size);
    json->Add("row_width", row_width);
    json->Add("gen_ms", gen_ms);
    json->Add("train_ms", train_ms);
    json->Add("pool_budget_mb", pool_budget_mb);
    json->Add("eager_rows_mb_avoided", eager_rows_mb);
    json->Add("sampled_tiles", sample);
    json->Add("scored_cells", static_cast<double>(scored_cells));
    json->Add("cold_ms", cold_ms);
    json->Add("ns_per_cell", ns_per_cell);
    json->Add("materialize_ms", materialize_ms);
    json->Add("materialize_ns_per_cell", materialize_ns_per_cell);
    json->Add("cold_tile_qps", cold_tile_qps);
    json->Add("warm_ms", warm_ms);
    json->Add("warm_tile_qps", warm_tile_qps);
    json->Add("tile_cache_hits", static_cast<double>(stats->hits));
    json->Add("tile_cache_misses", static_cast<double>(stats->misses));
    json->Add("pool_resident_tiles",
              static_cast<double>(stats->pool.resident_tiles));
    json->Add("pool_resident_mb", pool_resident_mb);
    json->Add("pool_hits", static_cast<double>(stats->pool.hits));
    json->Add("pool_misses", static_cast<double>(stats->pool.misses));
    json->Add("pool_evictions", static_cast<double>(stats->pool.evictions));
    json->Add("peak_rss_mb", peak_rss_mb);
    json->End();
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  const char* usage =
      "usage: %s [--smoke] [--json PATH] [--forest-cells N] "
      "[--kernel-size K] [--mega-cells N]\n";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      --i;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, usage, argv[0]);
        return 2;
      }
      json_path = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      --i;
    } else if (std::strcmp(argv[i], "--forest-cells") == 0 ||
               std::strcmp(argv[i], "--kernel-size") == 0) {
      if (i + 1 >= argc || std::atoi(argv[i + 1]) <= 0) {
        std::fprintf(stderr, usage, argv[0]);
        return 2;
      }
      (std::strcmp(argv[i], "--forest-cells") == 0 ? g_forest_cells
                                                   : g_kernel_size) =
          std::atoi(argv[i + 1]);
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      --i;
    } else if (std::strcmp(argv[i], "--mega-cells") == 0) {
      if (i + 1 >= argc || std::atoll(argv[i + 1]) <= 0) {
        std::fprintf(stderr, usage, argv[0]);
        return 2;
      }
      g_mega_cells = std::atoll(argv[i + 1]);
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      --i;
    }
  }

  JsonWriter json;
  JsonWriter* jp = json_path.empty() ? nullptr : &json;
  if (jp != nullptr) {
    json.Add("schema", "paws.fig9.v1");
    json.Add("smoke", g_smoke);
  }

  // Hot-path speedup report (risk maps + effort-curve tables), the
  // compiled-forest serving layer on a DTB ensemble, the SIMD
  // dispatch-tier and compiled-GP kernel-block rooflines, thread scaling
  // for the two training/serving loops the pool accelerates, snapshot
  // save/load economics, and multi-park ParkService throughput.
  ReportCompiledGp(jp);
  ReportBatchSpeedups(GetFixture(ParkPreset::kMfnp), jp);
  ReportCompiledForest(jp);
  ReportSimdTraversal(jp);
  ReportThreadScaling(GetFixture(ParkPreset::kMfnp), jp);
  ReportSnapshotRoundtrip(GetFixture(ParkPreset::kMfnp), jp);
  ReportParkService(jp);
  // Mega-park tiled serving: explicit --mega-cells, or a small park in
  // smoke mode so CI exercises the path every run.
  if (g_mega_cells > 0 || g_smoke) {
    ReportMegaPark(g_mega_cells > 0 ? g_mega_cells : 60000, jp);
  }

  // Part (b): utility convergence with segments.
  const std::vector<ParkPreset> presets =
      g_smoke ? std::vector<ParkPreset>{ParkPreset::kMfnp}
              : std::vector<ParkPreset>{ParkPreset::kMfnp, ParkPreset::kQenp,
                                        ParkPreset::kSws};
  const std::vector<int> segment_sweep =
      g_smoke ? std::vector<int>{5, 10} : std::vector<int>{5, 10, 15, 20, 25};
  std::printf("=== Fig. 9b: utility of robust solution vs PWL segments ===\n");
  std::printf("%6s", "segs");
  for (const ParkPreset preset : presets) {
    std::printf(" %10s", ParkPresetName(preset));
  }
  std::printf("\n");
  CsvWriter csv({"park", "segments", "utility"});
  RobustParams eval_params;
  eval_params.beta = 1.0;
  // The solver's side of each plan, segments-major, for the JSON.
  struct PlanningRow {
    double plan_ms = 0.0;
    int nodes = 0;
    long pivots = 0;
    bool proven_optimal = false;
    double utility = 0.0;
  };
  std::vector<PlanningRow> planning;
  for (const int segments : segment_sweep) {
    std::printf("%6d", segments);
    for (const ParkPreset preset : presets) {
      const ParkFixture& fixture = GetFixture(preset);
      PlanningRow row;
      auto plan = SolveOnce(fixture, segments, &row.plan_ms);
      if (plan.ok()) {
        row.nodes = plan->nodes_explored;
        row.pivots = plan->simplex_iterations;
        row.proven_optimal = plan->proven_optimal;
        // True utility of the plan (not the PWL surrogate).
        row.utility = ExactRobustUtility(fixture, plan->coverage, eval_params);
      }
      std::printf(" %10.4f", row.utility);
      csv.AddTextRow({ParkPresetName(preset), std::to_string(segments),
                      FormatDouble(row.utility)});
      planning.push_back(row);
    }
    std::printf("\n");
  }
  std::printf("Shape check: each column stabilizes as segments grow "
              "(paper: convergence by 20-25 segments).\n\n");
  const auto st = csv.WriteFile("fig9_convergence.csv");
  if (!st.ok()) std::fprintf(stderr, "csv: %s\n", st.ToString().c_str());

  if (jp != nullptr) {
    // planning.<park>.segments_<m>: node and pivot counts are exact, so
    // CI can trend-check them with no noise.
    json.Begin("planning");
    for (size_t p = 0; p < presets.size(); ++p) {
      json.Begin(ParkPresetName(presets[p]));
      for (size_t k = 0; k < segment_sweep.size(); ++k) {
        const PlanningRow& row = planning[k * presets.size() + p];
        json.Begin("segments_" + std::to_string(segment_sweep[k]));
        json.Add("plan_ms", row.plan_ms);
        json.Add("nodes", row.nodes);
        json.Add("pivots", static_cast<double>(row.pivots));
        json.Add("proven_optimal", row.proven_optimal);
        json.Add("utility", row.utility);
        json.End();
      }
      json.End();
    }
    json.End();
    const auto written = WriteStringToFile(json.ToString(), json_path);
    if (!written.ok()) {
      std::fprintf(stderr, "json: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (g_smoke) {
    std::printf("--smoke: skipping the google-benchmark sweep.\n");
    return 0;
  }

  // Part (a): runtime scaling via google-benchmark.
  std::printf("=== Fig. 9a: planner runtime vs PWL segments ===\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

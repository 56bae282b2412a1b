// ParkService: the multi-tenant serving registry. Every served artifact
// must be bit-identical to the history-based per-request paths over the
// park's coverage layer (caching, tiling and concurrency only
// short-circuit recomputation), the LRU must
// hit on repeated (snapshot, coverage, effort) triples and be invalidated
// by coverage updates and snapshot swaps, and — in the
// ParkServiceParallelTest suite, which CI also runs under TSan — hammering
// the service with mixed readers and writers must produce no torn reads:
// every concurrent result equals one of the valid serial states.
#include "serve/park_service.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "core/pipeline.h"
#include "serving_reference.h"
#include "utility_tables.h"

namespace paws {
namespace {

PlannerConfig TinyPlanner() {
  PlannerConfig config;
  config.horizon = 6;
  config.num_patrols = 2;
  config.pwl_segments = 5;
  config.milp.max_nodes = 10;
  return config;
}

// One small trained DTB snapshot, serialized once; every test rebuilds
// fresh ModelSnapshot instances from the bytes (loading is cheap, training
// is not).
class ParkServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Scenario scenario = MakeScenario(ParkPreset::kMfnp, 3);
    scenario.park.width = 26;
    scenario.park.height = 22;
    scenario.num_years = 3;
    ScenarioData data = SimulateScenario(scenario, 5);
    IWareConfig cfg;
    cfg.num_thresholds = 3;
    cfg.cv_folds = 2;
    cfg.weak_learner = WeakLearnerKind::kDecisionTreeBagging;
    cfg.bagging.num_estimators = 4;
    IWareEnsemble model(cfg);
    Rng rng(7);
    const Dataset train = BuildDataset(data.park, data.history);
    CheckOrDie(model.Fit(train, &rng).ok(), "fixture fit failed");
    const int t = data.num_steps() - 1;
    ArchiveWriter writer;
    SaveModelSnapshotParts(model, data.park, data.history.steps[t - 1].effort,
                           &writer);
    bytes_ = new std::string(writer.Bytes());
    num_cells_ = data.park.num_cells();
  }
  static void TearDownTestSuite() { delete bytes_; }

  static ModelSnapshot MakeSnapshot() {
    auto snapshot = ModelSnapshot::FromBytes(*bytes_);
    CheckOrDie(snapshot.ok(), "fixture snapshot load failed");
    return std::move(snapshot).value();
  }

  static std::string* bytes_;
  static int num_cells_;
};

std::string* ParkServiceTest::bytes_ = nullptr;
int ParkServiceTest::num_cells_ = 0;

TEST_F(ParkServiceTest, RegisterEvictAndListParks) {
  ParkService service;
  EXPECT_EQ(service.num_parks(), 0);
  ASSERT_TRUE(service.Register("mfnp", MakeSnapshot()).ok());
  ASSERT_TRUE(service.Register("qenp", MakeSnapshot()).ok());
  EXPECT_EQ(service.num_parks(), 2);
  auto ids = service.park_ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::string>{"mfnp", "qenp"}));
  EXPECT_TRUE(service.Evict("mfnp"));
  EXPECT_FALSE(service.Evict("mfnp"));
  EXPECT_EQ(service.num_parks(), 1);
}

TEST_F(ParkServiceTest, RejectsEmptyAndDuplicateIds) {
  ParkService service;
  EXPECT_FALSE(service.Register("", MakeSnapshot()).ok());
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  const Status dup = service.Register("p", MakeSnapshot());
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
}

TEST_F(ParkServiceTest, UnknownParkIsNotFoundEverywhere) {
  ParkService service;
  EXPECT_EQ(service.RiskMap("ghost", 1.0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.CellCurves("ghost", {0}, {0.0, 1.0}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      service.PlanForPost("ghost", 0, TinyPlanner(), RobustParams()).status()
          .code(),
      StatusCode::kNotFound);
  EXPECT_EQ(service.UpdateCoverage("ghost", {}).code(), StatusCode::kNotFound);
  EXPECT_EQ(service.SwapSnapshot("ghost", MakeSnapshot()).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.RiskCacheStats("ghost").status().code(),
            StatusCode::kNotFound);
}

TEST_F(ParkServiceTest, RejectsMalformedServingInputsWithoutAborting) {
  // Client mistakes must come back as Status — a CheckOrDie abort in the
  // prediction path would take down every registered park.
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  EXPECT_EQ(service.RiskMap("p", -1.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.CellCurves("p", {0}, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.CellCurves("p", {0}, {2.0, 1.0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.CellCurves("p", {0}, {1.0, 1.0}).status().code(),
            StatusCode::kInvalidArgument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(service.CellCurves("p", {0}, {nan}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.CellCurves("p", {0}, {0.0, nan}).status().code(),
            StatusCode::kInvalidArgument);
  RobustParams bad_beta;
  bad_beta.beta = 1.5;
  EXPECT_EQ(service.PlanForPost("p", 0, TinyPlanner(), bad_beta)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  RobustParams bad_scale;
  bad_scale.squash_scale = 0.0;
  EXPECT_EQ(service.PlanForPost("p", 0, TinyPlanner(), bad_scale)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Solver tolerances come from the peer too; a loose one (0.9) would
  // accept the LP envelope as a proven-optimal plan.
  for (const auto& corrupt : BadSolverOptions()) {
    PlannerConfig bad_solver = TinyPlanner();
    corrupt(&bad_solver.milp);
    EXPECT_EQ(service.PlanForPost("p", 0, bad_solver, RobustParams())
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  // The park still serves fine afterwards.
  EXPECT_TRUE(service.RiskMap("p", 1.0).ok());
}

TEST_F(ParkServiceTest, ServesManyParksBitIdenticalToDirectSnapshots) {
  // 8 registered parks (the fleet shape), each pinned to its own coverage
  // layer so the parks genuinely differ; every served map must equal the
  // history-based reference over that park's layer bit for bit.
  constexpr int kParks = 8;
  ParkService service;
  std::vector<ModelSnapshot> direct;
  for (int p = 0; p < kParks; ++p) {
    std::vector<double> coverage(num_cells_);
    for (int id = 0; id < num_cells_; ++id) {
      coverage[id] = 0.1 * p + 0.01 * (id % 7);
    }
    ModelSnapshot mine = MakeSnapshot();
    mine.UpdateLaggedEffort(coverage);
    direct.push_back(std::move(mine));
    ModelSnapshot registered = MakeSnapshot();
    registered.UpdateLaggedEffort(coverage);
    ASSERT_TRUE(service
                    .Register("park-" + std::to_string(p),
                              std::move(registered))
                    .ok());
  }
  for (int p = 0; p < kParks; ++p) {
    const auto served = service.RiskMap("park-" + std::to_string(p), 2.0);
    ASSERT_TRUE(served.ok()) << served.status();
    const RiskMaps want = ReferenceRiskMap(direct[p], 2.0);
    EXPECT_EQ((*served)->risk, want.risk);
    EXPECT_EQ((*served)->variance, want.variance);
  }
}

TEST_F(ParkServiceTest, RiskMapCacheHitsReturnTheSameObject) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  const auto first = service.RiskMap("p", 2.0);
  ASSERT_TRUE(first.ok());
  const auto second = service.RiskMap("p", 2.0);
  ASSERT_TRUE(second.ok());
  // A hit serves the cached object itself, not a recompute.
  EXPECT_EQ(first->get(), second->get());
  const auto third = service.RiskMap("p", 3.0);  // different effort: miss
  ASSERT_TRUE(third.ok());
  EXPECT_NE(first->get(), third->get());
  const auto stats = service.RiskCacheStats("p");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->hits, 1u);
  EXPECT_EQ(stats->misses, 2u);
  // Efforts key the cache by bit pattern: -0.0 and 0.0 are distinct keys
  // (and must not corrupt the LRU index by comparing equal while hashing
  // differently).
  const auto zero = service.RiskMap("p", 0.0);
  const auto neg_zero = service.RiskMap("p", -0.0);
  ASSERT_TRUE(zero.ok());
  ASSERT_TRUE(neg_zero.ok());
  EXPECT_NE(zero->get(), neg_zero->get());
  EXPECT_EQ((*zero)->risk, (*neg_zero)->risk);  // same numeric effort
}

TEST_F(ParkServiceTest, UpdateCoverageInvalidatesCachedMaps) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  const auto before = service.RiskMap("p", 2.0);
  ASSERT_TRUE(before.ok());
  std::vector<double> fresh(num_cells_, 0.75);
  ASSERT_TRUE(service.UpdateCoverage("p", fresh).ok());
  const auto after = service.RiskMap("p", 2.0);
  ASSERT_TRUE(after.ok());
  // New coverage version: the old entry can't be served again.
  EXPECT_NE(before->get(), after->get());
  ModelSnapshot direct = MakeSnapshot();
  direct.UpdateLaggedEffort(fresh);
  const RiskMaps want = ReferenceRiskMap(direct, 2.0);
  EXPECT_EQ((*after)->risk, want.risk);
  // Wrong-size layers are rejected before touching the park.
  EXPECT_EQ(service.UpdateCoverage("p", {1.0}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ParkServiceTest, RejectedCoverageUpdateLeavesTheCoverageVersion) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  const auto before = service.RiskMap("p", 2.0);
  ASSERT_TRUE(before.ok());
  ModelSnapshot direct = MakeSnapshot();
  const std::vector<double> valid = direct.lagged_effort();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -0.5}) {
    std::vector<double> layer = valid;
    layer[num_cells_ / 2] = bad;
    EXPECT_EQ(service.UpdateCoverage("p", layer).code(),
              StatusCode::kInvalidArgument)
        << "value " << bad;
    EXPECT_EQ(direct.UpdateLaggedEffort(layer).code(),
              StatusCode::kInvalidArgument)
        << "value " << bad;
  }
  EXPECT_EQ(direct.coverage_version(), 0u);
  EXPECT_EQ(direct.lagged_effort(), valid);
  // The risk-map key holds the coverage version: a hit on the pre-update
  // entry shows no rejected layer moved it.
  const auto after = service.RiskMap("p", 2.0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->get(), after->get());
  const auto stats = service.RiskCacheStats("p");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->hits, 1u);
  // And the served layer is still the original one.
  const auto bytes = service.SnapshotBytes("p");
  ASSERT_TRUE(bytes.ok());
  const auto served = ModelSnapshot::FromBytes(*bytes);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->lagged_effort(), valid);
}

TEST_F(ParkServiceTest, SwapSnapshotResetsCacheAndServesTheNewModel) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  ASSERT_TRUE(service.RiskMap("p", 2.0).ok());
  ModelSnapshot replacement = MakeSnapshot();
  std::vector<double> coverage(num_cells_, 0.33);
  replacement.UpdateLaggedEffort(coverage);
  ASSERT_TRUE(service.SwapSnapshot("p", std::move(replacement)).ok());
  const auto stats = service.RiskCacheStats("p");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->hits, 0u);
  EXPECT_EQ(stats->misses, 0u);
  const auto served = service.RiskMap("p", 2.0);
  ASSERT_TRUE(served.ok());
  ModelSnapshot direct = MakeSnapshot();
  direct.UpdateLaggedEffort(coverage);
  EXPECT_EQ((*served)->risk, ReferenceRiskMap(direct, 2.0).risk);
}

TEST_F(ParkServiceTest, CurvesAndPlansMatchDirectSnapshotCalls) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  const ModelSnapshot direct = MakeSnapshot();

  const std::vector<int> cells = {0, 3, 11};
  const std::vector<double> grid = UniformEffortGrid(0.0, 4.0, 8);
  const auto curves = service.CellCurves("p", cells, grid);
  ASSERT_TRUE(curves.ok()) << curves.status();
  const EffortCurveTable want = ReferenceCurves(direct, cells, grid);
  EXPECT_EQ((*curves)->prob, want.prob);
  EXPECT_EQ((*curves)->variance, want.variance);
  EXPECT_EQ(service.CellCurves("p", {-1}, grid).status().code(),
            StatusCode::kInvalidArgument);

  const RobustParams robust;
  const auto plan = service.PlanForPost("p", 0, TinyPlanner(), robust);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const auto want_plan = ReferencePlan(direct, 0, TinyPlanner(), robust);
  ASSERT_TRUE(want_plan.ok());
  EXPECT_EQ(plan->objective, want_plan->objective);
  EXPECT_EQ(plan->coverage, want_plan->coverage);
}

TEST_F(ParkServiceTest, CurveCacheServesTheSameTableAndCountsHits) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  const std::vector<int> cells = {0, 3, 11};
  const std::vector<double> grid = UniformEffortGrid(0.0, 4.0, 8);

  const auto first = service.CellCurves("p", cells, grid);
  ASSERT_TRUE(first.ok()) << first.status();
  const auto second = service.CellCurves("p", cells, grid);
  ASSERT_TRUE(second.ok());
  // A hit is the identical cached object, not a recomputed equal one.
  EXPECT_EQ(first->get(), second->get());
  auto stats = service.CurveCacheStats("p");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->hits, 1u);
  EXPECT_EQ(stats->misses, 1u);

  // A different grid (or cell set) is a different key.
  const auto third =
      service.CellCurves("p", cells, UniformEffortGrid(0.0, 4.0, 4));
  ASSERT_TRUE(third.ok());
  EXPECT_NE(first->get(), third->get());
}

TEST_F(ParkServiceTest, CurveCacheInvalidatesOnCoverageAndSwap) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  const std::vector<int> cells = {1, 2};
  const std::vector<double> grid = UniformEffortGrid(0.0, 3.0, 6);
  const auto before = service.CellCurves("p", cells, grid);
  ASSERT_TRUE(before.ok());

  // A coverage update bumps the version key: the next request recomputes
  // against the new lagged-effort layer instead of hitting a stale entry.
  std::vector<double> coverage(num_cells_, 0.25);
  ASSERT_TRUE(service.UpdateCoverage("p", coverage).ok());
  const auto after = service.CellCurves("p", cells, grid);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before->get(), after->get());
  ModelSnapshot direct = MakeSnapshot();
  direct.UpdateLaggedEffort(coverage);
  const EffortCurveTable want = ReferenceCurves(direct, cells, grid);
  EXPECT_EQ((*after)->prob, want.prob);
  EXPECT_EQ((*after)->variance, want.variance);

  // SwapSnapshot zeroes the counters (same contract as the risk LRU).
  ASSERT_TRUE(service.SwapSnapshot("p", MakeSnapshot()).ok());
  const auto stats = service.CurveCacheStats("p");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->hits, 0u);
  EXPECT_EQ(stats->misses, 0u);
  EXPECT_EQ(service.CurveCacheStats("ghost").status().code(),
            StatusCode::kNotFound);
}

// The concurrency suite: names contain "Parallel" so the CI TSan job's
// -R "Parallel|ThreadPool" filter runs them under real race detection.
using ParkServiceParallelTest = ParkServiceTest;

TEST_F(ParkServiceParallelTest, HammerMixedReadersAndWritersNoTornReads) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());

  // Two valid coverage states; writers flip between them (and swap whole
  // snapshots pinned to state A), so at any instant a reader must observe
  // exactly state A or state B — anything else is a torn read.
  std::vector<double> cov_a = MakeSnapshot().lagged_effort();
  std::vector<double> cov_b(num_cells_);
  for (int id = 0; id < num_cells_; ++id) cov_b[id] = 0.4 + 0.02 * (id % 5);

  const std::vector<double> efforts = {1.0, 2.5};
  std::vector<RiskMaps> valid_maps;
  std::vector<PatrolPlan> valid_plans;
  const RobustParams robust;
  for (const auto* cov : {&cov_a, &cov_b}) {
    ModelSnapshot direct = MakeSnapshot();
    direct.UpdateLaggedEffort(*cov);
    for (double e : efforts) {
      valid_maps.push_back(ReferenceRiskMap(direct, e));
    }
    auto plan = ReferencePlan(direct, 0, TinyPlanner(), robust);
    ASSERT_TRUE(plan.ok());
    valid_plans.push_back(std::move(plan).value());
  }
  auto is_valid_map = [&](const RiskMaps& got) {
    for (const RiskMaps& want : valid_maps) {
      if (got.risk == want.risk && got.variance == want.variance) return true;
    }
    return false;
  };
  auto is_valid_plan = [&](const PatrolPlan& got) {
    for (const PatrolPlan& want : valid_plans) {
      if (got.objective == want.objective && got.coverage == want.coverage) {
        return true;
      }
    }
    return false;
  };

  std::atomic<bool> failed{false};
  std::atomic<int> writer_rounds{0};
  constexpr int kReaderIters = 24;
  constexpr int kWriterIters = 12;

  std::vector<std::thread> threads;
  // Risk-map readers (the cache-hit path under contention).
  for (int worker = 0; worker < 2; ++worker) {
    threads.emplace_back([&, worker] {
      for (int i = 0; i < kReaderIters && !failed; ++i) {
        const auto maps = service.RiskMap("p", efforts[(i + worker) % 2]);
        if (!maps.ok() || !is_valid_map(**maps)) failed = true;
      }
    });
  }
  // Curve reader (uncached read path).
  threads.emplace_back([&] {
    const std::vector<double> grid = UniformEffortGrid(0.0, 4.0, 6);
    for (int i = 0; i < kReaderIters && !failed; ++i) {
      const auto curves = service.CellCurves("p", {0, 1, 2}, grid);
      if (!curves.ok()) failed = true;
    }
  });
  // Plan reader (long read transactions spanning tabulation + MILP).
  threads.emplace_back([&] {
    for (int i = 0; i < 6 && !failed; ++i) {
      const auto plan = service.PlanForPost("p", 0, TinyPlanner(), robust);
      if (!plan.ok() || !is_valid_plan(*plan)) failed = true;
    }
  });
  // Coverage writer: flips between the two valid layers.
  threads.emplace_back([&] {
    for (int i = 0; i < kWriterIters && !failed; ++i) {
      const auto& cov = (i % 2 == 0) ? cov_b : cov_a;
      if (!service.UpdateCoverage("p", cov).ok()) failed = true;
      ++writer_rounds;
    }
  });
  // Snapshot writer: swaps in a fresh snapshot pinned to state A.
  threads.emplace_back([&] {
    for (int i = 0; i < 4 && !failed; ++i) {
      ModelSnapshot fresh = MakeSnapshot();
      fresh.UpdateLaggedEffort(cov_a);
      if (!service.SwapSnapshot("p", std::move(fresh)).ok()) failed = true;
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(writer_rounds.load(), kWriterIters);
  // The service is quiescent again: one more read of each kind must be
  // bit-identical to a direct call against the final state.
  const auto final_map = service.RiskMap("p", efforts[0]);
  ASSERT_TRUE(final_map.ok());
  EXPECT_TRUE(is_valid_map(**final_map));
}

TEST_F(ParkServiceParallelTest, ConcurrentRegisterEvictAndServe) {
  ParkService service;
  for (int p = 0; p < 4; ++p) {
    ASSERT_TRUE(
        service.Register("stable-" + std::to_string(p), MakeSnapshot()).ok());
  }
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  // Readers hit the stable parks while the churn thread registers and
  // evicts others — registry lookups must never crash or misroute.
  for (int worker = 0; worker < 2; ++worker) {
    threads.emplace_back([&, worker] {
      for (int i = 0; i < 16 && !failed; ++i) {
        const std::string id = "stable-" + std::to_string((i + worker) % 4);
        const auto maps = service.RiskMap(id, 2.0);
        if (!maps.ok()) failed = true;
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 6 && !failed; ++i) {
      const std::string id = "churn-" + std::to_string(i % 2);
      if (!service.Register(id, MakeSnapshot()).ok()) failed = true;
      if (!service.Evict(id)) failed = true;
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(service.num_parks(), 4);
}

}  // namespace
}  // namespace paws

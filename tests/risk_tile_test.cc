// Risk-map tiles: the sub-park serving unit. The contract under test is
// bit-identity at every boundary — a tile's predictions equal the
// history-based whole-park risk map at its cells bit for bit, regardless
// of tile raggedness, masked-out cells, the SIMD dispatch tier the scoring
// backend runs, the tile fan-out thread count, the feature-tile pool
// budget, or a snapshot save/load round trip. Plus the RiskTile archive
// codec round trip and its truncation rejection.
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "core/pipeline.h"
#include "core/risk_map.h"
#include "core/snapshot.h"
#include "serve/park_service.h"
#include "serving_reference.h"
#include "util/cpu_features.h"

namespace paws {
namespace {

// Sets PAWS_FORCE_BACKEND for the enclosing scope and restores the prior
// environment on exit (same idiom as simd_traversal_test).
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

class RiskTileTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Scenario scenario = MakeScenario(ParkPreset::kMfnp, 3);
    scenario.park.width = 26;
    scenario.park.height = 22;
    scenario.num_years = 3;
    data_ = new ScenarioData(SimulateScenario(scenario, 5));
    IWareConfig cfg;
    cfg.num_thresholds = 3;
    cfg.cv_folds = 2;
    cfg.weak_learner = WeakLearnerKind::kDecisionTreeBagging;
    cfg.bagging.num_estimators = 4;
    IWareEnsemble model(cfg);
    Rng rng(7);
    const Dataset train = BuildDataset(data_->park, data_->history);
    CheckOrDie(model.Fit(train, &rng).ok(), "fixture fit failed");
    ArchiveWriter writer;
    SaveRecord(model, &writer);
    model_bytes_ = new std::string(writer.Bytes());
  }
  static void TearDownTestSuite() {
    delete model_bytes_;
    delete data_;
  }
  static ScenarioData* data_;
  static std::string* model_bytes_;

  static IWareEnsemble LoadModel() {
    auto reader = ArchiveReader::FromBytes(*model_bytes_);
    CheckOrDie(reader.ok(), "fixture model archive invalid");
    IWareEnsemble model{IWareConfig{}};
    CheckOrDie(LoadRecord(&*reader, &model).ok(), "fixture model load failed");
    return model;
  }
  std::vector<double> Lagged() const {
    return data_->history.steps[data_->num_steps() - 2].effort;
  }
  // Small (8-cell) tiles — interior, ragged and mostly-masked ones — under
  // an unbounded pool, or under `pool_budget_bytes` (1 = one resident
  // tile, so nearly every fetch re-materializes).
  ModelSnapshot MakeSnapshot(size_t pool_budget_bytes = 0) const {
    TiledPlaneOptions options;
    options.tile_size = 8;
    options.pool_budget_bytes = pool_budget_bytes;
    return ModelSnapshot(LoadModel(), data_->park, Lagged(), options);
  }
  // The default plane options (64-cell tiles, unbounded pool) — the shape
  // every loaded snapshot gets.
  ModelSnapshot MakeDefaultSnapshot() const {
    return ModelSnapshot(LoadModel(), data_->park, Lagged());
  }
};

ScenarioData* RiskTileTest::data_ = nullptr;
std::string* RiskTileTest::model_bytes_ = nullptr;

// Tile predictions must equal the history-based whole-park map at the
// tile's cells, bit for bit, on every tile (interior, ragged, mostly
// masked) — and so must the snapshot's own tile-assembled map.
void ExpectTilesMatchMap(const ModelSnapshot& snapshot, double effort) {
  const RiskMaps whole = ReferenceRiskMap(snapshot, effort);
  const RiskMaps assembled = snapshot.PredictRisk(effort);
  EXPECT_EQ(assembled.risk, whole.risk);
  EXPECT_EQ(assembled.variance, whole.variance);
  int covered = 0;
  for (int t = 0; t < snapshot.num_tiles(); ++t) {
    const RiskTile tile = snapshot.PredictRiskTile(t, effort);
    EXPECT_EQ(tile.tile_id, t);
    EXPECT_EQ(tile.assumed_effort, effort);
    for (size_t i = 0; i < tile.cell_ids.size(); ++i) {
      const int id = tile.cell_ids[i];
      EXPECT_EQ(tile.risk[i], whole.risk[id]);
      EXPECT_EQ(tile.variance[i], whole.variance[id]);
      ++covered;
    }
  }
  EXPECT_EQ(covered, snapshot.park().num_cells());
}

TEST_F(RiskTileTest, TilesBitIdenticalToWholeParkMapBothModes) {
  ExpectTilesMatchMap(MakeSnapshot(), 2.0);
  ExpectTilesMatchMap(MakeSnapshot(/*pool_budget_bytes=*/1), 2.0);
}

TEST_F(RiskTileTest, OneTileBudgetMatchesDefaultPoolBitForBit) {
  const ModelSnapshot pooled = MakeDefaultSnapshot();
  const ModelSnapshot starved = MakeSnapshot(/*pool_budget_bytes=*/1);
  const RiskMaps want = ReferenceRiskMap(pooled, 1.5);
  for (const ModelSnapshot* snapshot : {&pooled, &starved}) {
    const RiskMaps got = snapshot->PredictRisk(1.5);
    EXPECT_EQ(got.risk, want.risk);
    EXPECT_EQ(got.variance, want.variance);
  }
  EXPECT_EQ(starved.tile_pool_stats().resident_tiles, 1u);
  // The planner inputs too: curves gathered straight from rasters.
  const std::vector<int> cells = {0, 3, 9, pooled.park().num_cells() - 1};
  const EffortCurveTable want_curves =
      ReferenceCurves(pooled, cells, {0.0, 1.0, 2.0});
  for (const ModelSnapshot* snapshot : {&pooled, &starved}) {
    const EffortCurveTable got =
        snapshot->PredictCellCurves(cells, {0.0, 1.0, 2.0});
    EXPECT_EQ(got.prob, want_curves.prob);
    EXPECT_EQ(got.variance, want_curves.variance);
  }
}

TEST_F(RiskTileTest, TiledAssemblyBitIdenticalAcrossThreadCounts) {
  const ModelSnapshot snapshot = MakeSnapshot();
  const RiskMaps want = ReferenceRiskMap(snapshot, 2.0);
  for (const int threads : {1, 2, 3, 0 /* hardware default */}) {
    ParallelismConfig fanout;
    fanout.num_threads = threads;
    const RiskMaps got = snapshot.PredictRisk(2.0, fanout);
    EXPECT_EQ(got.risk, want.risk) << "threads=" << threads;
    EXPECT_EQ(got.variance, want.variance) << "threads=" << threads;
  }
}

TEST_F(RiskTileTest, TilesBitIdenticalOnEverySimdTierThisHostRuns) {
  const SimdTier detected = DetectSimdTier();
  const std::vector<const char*> tiers = {nullptr, "scalar", "avx2",
                                          "avx512"};
  for (const char* tier : tiers) {
    if (tier != nullptr) {
      const SimdTier want = std::string(tier) == "scalar" ? SimdTier::kScalar
                            : std::string(tier) == "avx2" ? SimdTier::kAvx2
                                                          : SimdTier::kAvx512;
      if (static_cast<int>(detected) < static_cast<int>(want)) continue;
    }
    ScopedForceBackend force(tier);
    // Backend selection happens at construction; build under the pin.
    ModelSnapshot snapshot = MakeSnapshot();
    snapshot.mutable_model().set_compiled_serving(true);
    ExpectTilesMatchMap(snapshot, 2.0);
  }
}

TEST_F(RiskTileTest, TilesSurviveSnapshotRoundTripBitForBit) {
  const ModelSnapshot original = MakeDefaultSnapshot();
  ArchiveWriter writer;
  original.Save(&writer);
  auto loaded = ModelSnapshot::FromBytes(writer.Bytes());
  ASSERT_TRUE(loaded.ok());
  for (int t = 0; t < original.num_tiles(); ++t) {
    const RiskTile a = original.PredictRiskTile(t, 2.0);
    const RiskTile b = loaded->PredictRiskTile(t, 2.0);
    EXPECT_EQ(a.cell_ids, b.cell_ids);
    EXPECT_EQ(a.risk, b.risk);
    EXPECT_EQ(a.variance, b.variance);
  }
}

TEST_F(RiskTileTest, CoverageUpdateChangesOnlyTouchedTilesOutputs) {
  ModelSnapshot snapshot = MakeSnapshot();
  std::vector<RiskTile> before;
  for (int t = 0; t < snapshot.num_tiles(); ++t) {
    before.push_back(snapshot.PredictRiskTile(t, 2.0));
  }
  // Bump one cell's coverage.
  std::vector<double> lag = Lagged();
  const int changed_cell = snapshot.park().num_cells() / 3;
  lag[changed_cell] += 2.0;
  snapshot.UpdateLaggedEffort(lag);
  // Re-derive from scratch what the new outputs should be.
  const RiskMaps want = ReferenceRiskMap(snapshot, 2.0);
  for (int t = 0; t < snapshot.num_tiles(); ++t) {
    const RiskTile after = snapshot.PredictRiskTile(t, 2.0);
    for (size_t i = 0; i < after.cell_ids.size(); ++i) {
      EXPECT_EQ(after.risk[i], want.risk[after.cell_ids[i]]);
    }
    // Untouched tiles must not have moved at all.
    const bool touched =
        snapshot.tile_coverage_version(t) == snapshot.coverage_version();
    if (!touched) {
      EXPECT_EQ(after.risk, before[t].risk);
      EXPECT_EQ(after.variance, before[t].variance);
    }
  }
}

// --- ParkService tile serving: the per-tile LRU above the snapshot. ---

TEST_F(RiskTileTest, ServiceTileCacheHitsServeTheSameObjectAndCount) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  const auto first = service.RiskTile("p", 2, 2.0);
  ASSERT_TRUE(first.ok());
  const auto second = service.RiskTile("p", 2, 2.0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // hit = the cached object
  const auto other_tile = service.RiskTile("p", 3, 2.0);
  const auto other_effort = service.RiskTile("p", 2, 3.0);
  ASSERT_TRUE(other_tile.ok());
  ASSERT_TRUE(other_effort.ok());
  EXPECT_NE(first->get(), other_tile->get());
  EXPECT_NE(first->get(), other_effort->get());
  const auto stats = service.RiskTileStats("p");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->hits, 1u);
  EXPECT_EQ(stats->misses, 3u);
  // Efforts key by bit pattern: 0.0 and -0.0 are distinct keys with
  // identical served values.
  const auto zero = service.RiskTile("p", 2, 0.0);
  const auto neg_zero = service.RiskTile("p", 2, -0.0);
  ASSERT_TRUE(zero.ok());
  ASSERT_TRUE(neg_zero.ok());
  EXPECT_NE(zero->get(), neg_zero->get());
  EXPECT_EQ((*zero)->risk, (*neg_zero)->risk);
}

TEST_F(RiskTileTest, ServiceServedTilesMatchServedWholeMapBitForBit) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  const auto map = service.RiskMap("p", 2.0);
  ASSERT_TRUE(map.ok());
  const RiskMaps want = ReferenceRiskMap(MakeSnapshot(), 2.0);
  EXPECT_EQ((*map)->risk, want.risk);
  EXPECT_EQ((*map)->variance, want.variance);
  const auto stats = service.RiskTileStats("p");
  ASSERT_TRUE(stats.ok());
  for (int t = 0; t < stats->tiles_x * stats->tiles_y; ++t) {
    const auto tile = service.RiskTile("p", t, 2.0);
    ASSERT_TRUE(tile.ok());
    for (size_t i = 0; i < (*tile)->cell_ids.size(); ++i) {
      const int id = (*tile)->cell_ids[i];
      EXPECT_EQ((*tile)->risk[i], (*map)->risk[id]);
      EXPECT_EQ((*tile)->variance[i], (*map)->variance[id]);
    }
  }
}

TEST_F(RiskTileTest, ServiceCoverageUpdateKeepsUntouchedTilesWarm) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  const int num_tiles = MakeSnapshot().num_tiles();
  std::vector<std::shared_ptr<const paws::RiskTile>> before;
  for (int t = 0; t < num_tiles; ++t) {
    auto tile = service.RiskTile("p", t, 2.0);
    ASSERT_TRUE(tile.ok());
    before.push_back(*tile);
  }
  // Touch one cell; only its tile's key moves.
  std::vector<double> lag = Lagged();
  const int changed_cell = data_->park.num_cells() / 3;
  lag[changed_cell] += 2.0;
  ASSERT_TRUE(service.UpdateCoverage("p", lag).ok());
  ModelSnapshot fresh = MakeSnapshot();
  fresh.UpdateLaggedEffort(lag);
  const RiskMaps want = ReferenceRiskMap(fresh, 2.0);
  int recomputed = 0;
  for (int t = 0; t < num_tiles; ++t) {
    const auto after = service.RiskTile("p", t, 2.0);
    ASSERT_TRUE(after.ok());
    if (after->get() == before[t].get()) continue;  // served from cache
    ++recomputed;
    // The recomputed tile reflects the new coverage exactly.
    for (size_t i = 0; i < (*after)->cell_ids.size(); ++i) {
      const int id = (*after)->cell_ids[i];
      EXPECT_EQ((*after)->risk[i], want.risk[id]);
      EXPECT_EQ((*after)->variance[i], want.variance[id]);
    }
  }
  EXPECT_EQ(recomputed, 1);  // exactly the touched tile
}

TEST_F(RiskTileTest, ServiceSwapSnapshotResetsTileCacheAndCounters) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  ASSERT_TRUE(service.RiskTile("p", 1, 2.0).ok());
  ASSERT_TRUE(service.RiskTile("p", 1, 2.0).ok());
  ASSERT_TRUE(service.SwapSnapshot("p", MakeSnapshot()).ok());
  const auto stats = service.RiskTileStats("p");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->hits, 0u);
  EXPECT_EQ(stats->misses, 0u);
  EXPECT_TRUE(service.RiskTile("p", 1, 2.0).ok());
}

TEST_F(RiskTileTest, ServiceRejectsBadTileRequestsWithTypedStatuses) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  EXPECT_EQ(service.RiskTile("ghost", 0, 2.0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.RiskTile("p", -1, 2.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.RiskTile("p", 1 << 20, 2.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.RiskTile("p", 0, -1.0).status().code(),
            StatusCode::kInvalidArgument);
}

// Concurrency suite: the name contains "Parallel", so CI's TSan job runs
// it under race detection.
using RiskTileParallelTest = RiskTileTest;

// Readers fetch tiles through a one-tile feature pool while a writer flips
// the coverage layer and swaps the snapshot: every served tile must be one
// of the two layers' serial answers, bit for bit — never a torn mix.
TEST_F(RiskTileParallelTest, TileReadersRaceCoverageWritesAndSwaps) {
  const std::vector<double> layer_a = Lagged();
  std::vector<double> layer_b = layer_a;
  for (double& km : layer_b) km += 1.5;
  ModelSnapshot serial = MakeSnapshot();
  const int num_tiles = serial.num_tiles();
  std::vector<RiskTile> want_a, want_b;
  for (int t = 0; t < num_tiles; ++t) {
    want_a.push_back(serial.PredictRiskTile(t, 2.0));
  }
  ASSERT_TRUE(serial.UpdateLaggedEffort(layer_b).ok());
  for (int t = 0; t < num_tiles; ++t) {
    want_b.push_back(serial.PredictRiskTile(t, 2.0));
  }

  ParkService service;
  ASSERT_TRUE(
      service.Register("p", MakeSnapshot(/*pool_budget_bytes=*/1)).ok());
  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      for (int t = r; !done.load(); t = (t + 1) % num_tiles) {
        const auto tile = service.RiskTile("p", t, 2.0);
        const bool matches =
            tile.ok() && (((*tile)->risk == want_a[t].risk &&
                           (*tile)->variance == want_a[t].variance) ||
                          ((*tile)->risk == want_b[t].risk &&
                           (*tile)->variance == want_b[t].variance));
        if (!matches) mismatches.fetch_add(1);
        reads.fetch_add(1);
      }
    });
  }
  // Let the readers serve a few tiles between writes, so every write
  // lands among reads.
  const auto await_reads = [&] {
    const int start = reads.load();
    while (reads.load() < start + 3) std::this_thread::yield();
  };
  for (int flip = 0; flip < 12; ++flip) {
    await_reads();
    EXPECT_TRUE(
        service.UpdateCoverage("p", flip % 2 == 0 ? layer_b : layer_a).ok());
    if (flip % 4 == 3) {
      await_reads();
      EXPECT_TRUE(
          service.SwapSnapshot("p", MakeSnapshot(/*pool_budget_bytes=*/1))
              .ok());
    }
  }
  await_reads();
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
  const auto stats = service.RiskTileStats("p");
  ASSERT_TRUE(stats.ok());
  EXPECT_LE(stats->pool.resident_tiles, 1u);
}

TEST_F(RiskTileTest, RiskTileArchiveRoundTripsExactly) {
  const ModelSnapshot snapshot = MakeSnapshot();
  const RiskTile tile = snapshot.PredictRiskTile(1, 2.5);
  ArchiveWriter writer;
  SaveRecord(tile, &writer);
  const std::string bytes = writer.Bytes();
  auto reader = ArchiveReader::FromBytes(bytes);
  ASSERT_TRUE(reader.ok());
  RiskTile loaded;
  ASSERT_TRUE(LoadRecord(&*reader, &loaded).ok());
  EXPECT_EQ(loaded.tile_id, tile.tile_id);
  EXPECT_EQ(loaded.assumed_effort, tile.assumed_effort);
  EXPECT_EQ(loaded.cell_ids, tile.cell_ids);
  EXPECT_EQ(loaded.risk, tile.risk);
  EXPECT_EQ(loaded.variance, tile.variance);
  // Every truncation must fail cleanly — at the archive envelope or at
  // the tile decoder — never crash or misparse.
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    auto trunc = ArchiveReader::FromBytes(bytes.substr(0, cut));
    if (!trunc.ok()) continue;
    RiskTile partial;
    EXPECT_FALSE(LoadRecord(&*trunc, &partial).ok()) << "cut=" << cut;
  }
}

}  // namespace
}  // namespace paws

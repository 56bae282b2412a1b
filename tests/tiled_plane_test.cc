// TiledFeaturePlane: the pooled, tile-at-a-time store of serving feature
// rows. The load-bearing contracts under test: tiles partition the dense
// cells exactly once; every materialized row is byte-identical to the
// per-request BuildCellFeatureRows row for the same cell and coverage
// layer (including ragged edge tiles and masked-out cells); coverage
// updates invalidate ONLY the tiles whose cells changed (version +
// residency); the LRU pool respects its byte budget while never going
// empty; and (FeaturePlaneTest) predictions served from the plane's rows
// reproduce the history-based paths bit for bit.
#include "geo/tiled_feature_plane.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "core/pipeline.h"
#include "core/risk_map.h"
#include "serving_reference.h"

namespace paws {
namespace {

// A park whose 26x22 grid splits into 4x3 tiles of size 8 — interior
// tiles, ragged right/bottom edges (26 = 3*8 + 2, 22 = 2*8 + 6), and
// boundary tiles that are mostly masked out.
class TiledPlaneTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Scenario scenario = MakeScenario(ParkPreset::kMfnp, 3);
    scenario.park.width = 26;
    scenario.park.height = 22;
    scenario.num_years = 3;
    data_ = new ScenarioData(SimulateScenario(scenario, 5));
  }
  static void TearDownTestSuite() { delete data_; }
  static ScenarioData* data_;

  static TiledPlaneOptions SmallTiles() {
    TiledPlaneOptions options;
    options.tile_size = 8;
    return options;
  }
  int LastStep() const { return data_->num_steps() - 1; }
  std::vector<double> LaggedAt(int t) const {
    return data_->history.steps[t - 1].effort;
  }
};

ScenarioData* TiledPlaneTest::data_ = nullptr;

TEST_F(TiledPlaneTest, GeometryCoversTheGridWithRaggedEdges) {
  const TileGeometry g = TileGeometry::For(26, 22, 8);
  EXPECT_EQ(g.tiles_x, 4);
  EXPECT_EQ(g.tiles_y, 3);
  EXPECT_EQ(g.num_tiles(), 12);
  // Every grid cell maps into exactly the tile whose rectangle holds it.
  for (int y = 0; y < 22; ++y) {
    for (int x = 0; x < 26; ++x) {
      const int t = g.TileOf(x, y);
      int x0, y0, x1, y1;
      g.TileRect(t, 26, 22, &x0, &y0, &x1, &y1);
      EXPECT_TRUE(x >= x0 && x < x1 && y >= y0 && y < y1);
    }
  }
  // The last column/row of tiles is clipped to the grid.
  int x0, y0, x1, y1;
  g.TileRect(g.num_tiles() - 1, 26, 22, &x0, &y0, &x1, &y1);
  EXPECT_EQ(x1, 26);
  EXPECT_EQ(y1, 22);
  EXPECT_EQ(x1 - x0, 2);
  EXPECT_EQ(y1 - y0, 6);
}

TEST_F(TiledPlaneTest, TilesPartitionTheDenseCellsExactlyOnce) {
  const TiledFeaturePlane plane(data_->park, {}, SmallTiles());
  std::set<int> seen;
  std::vector<int> ids;
  for (int t = 0; t < plane.num_tiles(); ++t) {
    plane.TileCellIds(data_->park, t, &ids);
    for (int id : ids) {
      EXPECT_TRUE(seen.insert(id).second) << "cell " << id << " in two tiles";
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), data_->park.num_cells());
}

// A hand-drawn 23x19 mask: ragged row ends, interior holes, out-of-park
// stretches inside tile rows that cross a tile-column boundary, and a
// corner with no in-park cell. Raster values name their grid cell.
Park HoledPark() {
  const int width = 23, height = 19;
  GridB mask(width, height, 0);
  for (int y = 0; y < height; ++y) {
    for (int x = (y * 5) % 4; x < width - y % 3; ++x) {
      const bool hole = (x * 7 + y * 3) % 11 == 0;
      const bool stretch = y % 4 == 1 && x >= 6 && x < 13;
      const bool empty_corner = x >= 15 && y < 8;
      mask.At(x, y) = !(hole || stretch || empty_corner);
    }
  }
  Park park("holed", mask);
  for (int f = 0; f < 3; ++f) {
    GridD raster(width, height, 0.0);
    for (int i = 0; i < raster.size(); ++i) {
      raster.AtIndex(i) = 1000.0 * f + i + 0.5;
    }
    park.AddFeature("f" + std::to_string(f), raster);
  }
  return park;
}

// A tile's ids are a row-major DenseIdOf scan of its rectangle, and its
// rows are the per-request assembly's rows for those ids, byte for byte.
TEST_F(TiledPlaneTest, TileIdsAndRowsFollowAMaskWithHoles) {
  const Park park = HoledPark();
  std::vector<double> lag(park.num_cells());
  for (int id = 0; id < park.num_cells(); ++id) lag[id] = 0.125 * id;
  const std::vector<double> all_rows =
      BuildCellFeatureRows(park, OneStepHistory(lag), /*t=*/1);
  for (const int tile_size : {5, 8}) {
    TiledPlaneOptions options;
    options.tile_size = tile_size;
    const TiledFeaturePlane plane(park, lag, options);
    const int w = plane.row_width();
    std::vector<int> ids;
    int empty_tiles = 0;
    for (int t = 0; t < plane.num_tiles(); ++t) {
      int x0, y0, x1, y1;
      plane.geometry().TileRect(t, park.width(), park.height(), &x0, &y0,
                                &x1, &y1);
      std::vector<int> scan;
      std::vector<double> want;
      for (int y = y0; y < y1; ++y) {
        for (int x = x0; x < x1; ++x) {
          const int id = park.DenseIdOf(Cell{x, y});
          if (id < 0) continue;
          scan.push_back(id);
          want.insert(want.end(), all_rows.begin() + id * w,
                      all_rows.begin() + (id + 1) * w);
        }
      }
      empty_tiles += scan.empty();
      plane.TileCellIds(park, t, &ids);
      EXPECT_EQ(ids, scan) << "tile " << t << " at size " << tile_size;
      const auto tile = plane.GetTile(park, t);
      EXPECT_EQ(tile->cell_ids, scan);
      ASSERT_EQ(tile->rows.size(), want.size());
      EXPECT_TRUE(want.empty() ||
                  std::memcmp(tile->rows.data(), want.data(),
                              want.size() * sizeof(double)) == 0)
          << "tile " << t << " at size " << tile_size;
    }
    EXPECT_GT(empty_tiles, 0);
  }
}

// Every tile row equals the per-request assembly's row for the same cell.
void ExpectTileRowsMatch(const TiledFeaturePlane& plane, const Park& park,
                         const std::vector<double>& want) {
  const int w = plane.row_width();
  for (int tile_id = 0; tile_id < plane.num_tiles(); ++tile_id) {
    const auto tile = plane.GetTile(park, tile_id);
    ASSERT_NE(tile, nullptr);
    for (size_t i = 0; i < tile->cell_ids.size(); ++i) {
      const int id = tile->cell_ids[i];
      for (int f = 0; f < w; ++f) {
        // Bit-for-bit, not approximately: tiling must not change rows.
        EXPECT_EQ(tile->rows[i * w + f], want[id * w + f])
            << "tile " << tile_id << " cell " << id << " col " << f;
      }
    }
  }
}

TEST_F(TiledPlaneTest,
       TileRowsBitIdenticalToBuildCellFeatureRowsIncludingRaggedTiles) {
  const int t = LastStep();
  const TiledFeaturePlane plane(data_->park, LaggedAt(t), SmallTiles());
  ASSERT_EQ(plane.row_width(), data_->park.num_features() + 1);
  ExpectTileRowsMatch(plane, data_->park,
                      BuildCellFeatureRows(data_->park, data_->history, t));
}

TEST_F(TiledPlaneTest, BuildAllRowsMatchesHistoryAssembly) {
  const int t = LastStep();
  const TiledFeaturePlane plane(data_->park, LaggedAt(t), SmallTiles());
  EXPECT_EQ(plane.BuildAllRows(data_->park),
            BuildCellFeatureRows(data_->park, data_->history, t));
}

TEST_F(TiledPlaneTest, EmptyLaggedVectorMeansZeroCoverage) {
  const TiledFeaturePlane plane(data_->park, {}, SmallTiles());
  const int w = plane.row_width();
  const auto tile = plane.GetTile(data_->park, 0);
  for (size_t i = 0; i < tile->cell_ids.size(); ++i) {
    EXPECT_EQ(tile->rows[i * w + w - 1], 0.0);
  }
}

TEST_F(TiledPlaneTest, UpdateInvalidatesOnlyTheTouchedTile) {
  const int t = LastStep();
  TiledFeaturePlane plane(data_->park, LaggedAt(t), SmallTiles());
  // Materialize everything so residency changes are observable.
  for (int tile_id = 0; tile_id < plane.num_tiles(); ++tile_id) {
    plane.GetTile(data_->park, tile_id);
  }
  EXPECT_EQ(plane.pool_stats().resident_tiles,
            static_cast<uint64_t>(plane.num_tiles()));
  EXPECT_EQ(plane.coverage_version(), 0u);

  // Change one cell's coverage; find its tile.
  std::vector<double> lag = LaggedAt(t);
  const int changed_cell = data_->park.num_cells() / 2;
  lag[changed_cell] += 1.0;
  const int grid_index = data_->park.cell_indices()[changed_cell];
  const int dirty_tile = plane.geometry().TileOf(
      grid_index % data_->park.width(), grid_index / data_->park.width());

  plane.UpdateLaggedEffort(data_->park, lag);
  EXPECT_EQ(plane.coverage_version(), 1u);
  for (int tile_id = 0; tile_id < plane.num_tiles(); ++tile_id) {
    EXPECT_EQ(plane.tile_coverage_version(tile_id),
              tile_id == dirty_tile ? 1u : 0u);
  }
  // Only the dirty tile lost residency...
  EXPECT_EQ(plane.pool_stats().resident_tiles,
            static_cast<uint64_t>(plane.num_tiles() - 1));
  // ...and re-materializing picks up the new coverage, bit-identical to
  // the per-request assembly over the new layer.
  ExpectTileRowsMatch(
      plane, data_->park,
      BuildCellFeatureRows(data_->park, OneStepHistory(lag), /*t=*/1));
}

// The diff compares runs of cells (a grid row inside one tile column), so
// pin it cell by cell: changing any one cell, a run's first and last
// included, dirties exactly the tile that holds it.
TEST_F(TiledPlaneTest, EveryCellDirtiesExactlyItsOwnTile) {
  TiledFeaturePlane plane(data_->park, {}, SmallTiles());
  std::vector<double> lag(data_->park.num_cells(), 0.0);
  for (int cell = 0; cell < data_->park.num_cells(); ++cell) {
    lag[cell] = 1.0 + cell;
    const uint64_t before = plane.coverage_version();
    ASSERT_TRUE(plane.UpdateLaggedEffort(data_->park, lag).ok());
    const int grid_index = data_->park.cell_indices()[cell];
    const int tile = plane.geometry().TileOf(
        grid_index % data_->park.width(), grid_index / data_->park.width());
    for (int t = 0; t < plane.num_tiles(); ++t) {
      ASSERT_EQ(plane.tile_coverage_version(t) > before, t == tile)
          << "cell " << cell << ", tile " << t;
    }
  }
  // A NaN in any run is refused, and the layer stays as it was.
  const std::vector<double> kept = plane.lagged_effort();
  lag.back() = std::nan("");
  EXPECT_EQ(plane.UpdateLaggedEffort(data_->park, lag).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(plane.lagged_effort(), kept);
}

TEST_F(TiledPlaneTest, UpdateSpanningManyTilesInvalidatesAllOfThem) {
  TiledFeaturePlane plane(data_->park, {}, SmallTiles());
  for (int tile_id = 0; tile_id < plane.num_tiles(); ++tile_id) {
    plane.GetTile(data_->park, tile_id);
  }
  // Every cell changes -> every tile with at least one in-park cell is
  // dirty; fully masked-out tiles have nothing to change and stay clean.
  std::vector<double> lag(data_->park.num_cells(), 0.25);
  plane.UpdateLaggedEffort(data_->park, lag);
  std::vector<int> ids;
  uint64_t empty_tiles = 0;
  for (int tile_id = 0; tile_id < plane.num_tiles(); ++tile_id) {
    plane.TileCellIds(data_->park, tile_id, &ids);
    if (ids.empty()) {
      ++empty_tiles;
      EXPECT_EQ(plane.tile_coverage_version(tile_id), 0u);
    } else {
      EXPECT_EQ(plane.tile_coverage_version(tile_id), 1u);
    }
  }
  // Only (cheap, zero-row) empty tiles may remain resident.
  EXPECT_EQ(plane.pool_stats().resident_tiles, empty_tiles);
}

TEST_F(TiledPlaneTest, IdenticalUpdateIsANoOpForTileVersions) {
  const int t = LastStep();
  TiledFeaturePlane plane(data_->park, LaggedAt(t), SmallTiles());
  plane.GetTile(data_->park, 0);
  plane.UpdateLaggedEffort(data_->park, LaggedAt(t));
  // The global version moves (an update happened) but no tile changed, so
  // per-tile keys — and residency — survive.
  EXPECT_EQ(plane.coverage_version(), 1u);
  for (int tile_id = 0; tile_id < plane.num_tiles(); ++tile_id) {
    EXPECT_EQ(plane.tile_coverage_version(tile_id), 0u);
  }
  EXPECT_EQ(plane.pool_stats().resident_tiles, 1u);
}

TEST_F(TiledPlaneTest, PoolRespectsByteBudgetAndCountsTraffic) {
  TiledPlaneOptions options = SmallTiles();
  const TiledFeaturePlane unbounded(data_->park, {}, options);
  const size_t one_tile_bytes = unbounded.GetTile(data_->park, 0)->bytes();
  // Budget for about two tiles.
  options.pool_budget_bytes = 2 * one_tile_bytes + one_tile_bytes / 2;
  const TiledFeaturePlane plane(data_->park, {}, options);
  for (int round = 0; round < 2; ++round) {
    for (int tile_id = 0; tile_id < plane.num_tiles(); ++tile_id) {
      plane.GetTile(data_->park, tile_id);
    }
  }
  const TilePoolStats stats = plane.pool_stats();
  EXPECT_GE(stats.resident_tiles, 1u);
  EXPECT_LE(stats.resident_bytes, options.pool_budget_bytes);
  EXPECT_GT(stats.evictions, 0u);
  // Both sweeps missed everywhere: the working set exceeds the budget and
  // the sweep order is exactly the LRU eviction order.
  EXPECT_EQ(stats.misses, static_cast<uint64_t>(2 * plane.num_tiles()));
  EXPECT_EQ(stats.hits, 0u);
}

TEST_F(TiledPlaneTest, BudgetSmallerThanOneTileStillServes) {
  TiledPlaneOptions options = SmallTiles();
  options.pool_budget_bytes = 1;  // degrade to materialize-per-request
  const TiledFeaturePlane plane(data_->park, {}, options);
  EXPECT_EQ(plane.BuildAllRows(data_->park),
            BuildCellFeatureRows(data_->park, data_->history, /*t=*/0));
  EXPECT_EQ(plane.pool_stats().resident_tiles, 1u);
}

TEST_F(TiledPlaneTest, RepeatedGetsHitThePool) {
  const TiledFeaturePlane plane(data_->park, {}, SmallTiles());
  const auto first = plane.GetTile(data_->park, 3);
  const auto second = plane.GetTile(data_->park, 3);
  EXPECT_EQ(first.get(), second.get());  // same resident object
  const TilePoolStats stats = plane.pool_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

// The feature-row contracts every serving path relies on, on the plane at
// its default (64-cell, unbounded) options and on a small-tile plane: rows
// equal the per-request assembly, and predictions scored from them equal
// the history-based paths bit for bit.
class FeaturePlaneTest : public TiledPlaneTest {
 protected:
  static void SetUpTestSuite() {
    TiledPlaneTest::SetUpTestSuite();
    IWareConfig cfg;
    cfg.num_thresholds = 3;
    cfg.cv_folds = 2;
    cfg.weak_learner = WeakLearnerKind::kDecisionTreeBagging;
    cfg.bagging.num_estimators = 4;
    model_ = new IWareEnsemble(cfg);
    Rng rng(7);
    const Dataset train = BuildDataset(data_->park, data_->history);
    CheckOrDie(model_->Fit(train, &rng).ok(), "fixture fit failed");
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    TiledPlaneTest::TearDownTestSuite();
  }
  static IWareEnsemble* model_;
};

IWareEnsemble* FeaturePlaneTest::model_ = nullptr;

TEST_F(FeaturePlaneTest, RowsMatchBuildCellFeatureRows) {
  const int t = LastStep();
  const TiledFeaturePlane plane(data_->park, LaggedAt(t));
  EXPECT_EQ(plane.num_cells(), data_->park.num_cells());
  EXPECT_EQ(plane.row_width(), data_->park.num_features() + 1);
  // Byte-identical to the per-request assembly (shared loop).
  EXPECT_EQ(plane.BuildAllRows(data_->park),
            BuildCellFeatureRows(data_->park, data_->history, t));
}

TEST_F(FeaturePlaneTest, EmptyLaggedVectorMeansZeroCoverage) {
  const TiledFeaturePlane plane(data_->park, {});
  EXPECT_EQ(plane.BuildAllRows(data_->park),
            BuildCellFeatureRows(data_->park, data_->history, /*t=*/0));
  for (double e : plane.lagged_effort()) EXPECT_EQ(e, 0.0);
}

TEST_F(FeaturePlaneTest, GatherCellsMatchesSubsetAssembly) {
  const int t = LastStep();
  const TiledFeaturePlane plane(data_->park, LaggedAt(t), SmallTiles());
  const std::vector<int> cells = {0, 7, 3, data_->park.num_cells() - 1};
  std::vector<double> buf;
  const FeatureMatrixView view = plane.GatherCells(data_->park, cells, &buf);
  EXPECT_EQ(view.rows(), static_cast<int>(cells.size()));
  EXPECT_EQ(buf, BuildCellFeatureRows(data_->park, data_->history, t, cells));
}

TEST_F(FeaturePlaneTest, UpdateLaggedEffortRewritesOnlyTrailingColumn) {
  const int t = LastStep();
  TiledFeaturePlane plane(data_->park, LaggedAt(t));
  const std::vector<double> before = plane.BuildAllRows(data_->park);
  EXPECT_EQ(plane.coverage_version(), 0u);

  std::vector<double> fresh(data_->park.num_cells());
  for (int id = 0; id < data_->park.num_cells(); ++id) {
    fresh[id] = 0.25 * id;
  }
  plane.UpdateLaggedEffort(data_->park, fresh);
  EXPECT_EQ(plane.coverage_version(), 1u);
  EXPECT_EQ(plane.lagged_effort(), fresh);
  const std::vector<double> after = plane.BuildAllRows(data_->park);
  const int k = plane.row_width();
  for (int id = 0; id < plane.num_cells(); ++id) {
    for (int f = 0; f < k - 1; ++f) {
      // Static feature columns are untouched by a coverage update.
      EXPECT_EQ(after[id * k + f], before[id * k + f]);
    }
    EXPECT_EQ(after[id * k + (k - 1)], fresh[id]);
  }
}

TEST_F(FeaturePlaneTest, PlaneBackedRiskMapBitIdenticalToHistoryPath) {
  const int t = LastStep();
  const TiledFeaturePlane plane(data_->park, LaggedAt(t), SmallTiles());
  const RiskMaps from_history =
      PredictRiskMap(*model_, data_->park, data_->history, t, 2.0);
  const RiskMaps from_plane =
      PredictRiskMapTiled(*model_, data_->park, plane, 2.0);
  EXPECT_EQ(from_plane.risk, from_history.risk);
  EXPECT_EQ(from_plane.variance, from_history.variance);
}

TEST_F(FeaturePlaneTest, PlaneBackedCurvesBitIdenticalToHistoryPath) {
  const int t = LastStep();
  const TiledFeaturePlane plane(data_->park, LaggedAt(t));
  const std::vector<int> cells = {1, 4, 9, 16};
  const std::vector<double> grid = UniformEffortGrid(0.0, 4.0, 10);
  const EffortCurveTable from_history = PredictCellEffortCurves(
      *model_, data_->park, data_->history, t, cells, grid);
  std::vector<double> buf;
  const EffortCurveTable from_plane = model_->PredictEffortCurves(
      plane.GatherCells(data_->park, cells, &buf), grid);
  EXPECT_EQ(from_plane.prob, from_history.prob);
  EXPECT_EQ(from_plane.variance, from_history.variance);
  EXPECT_EQ(from_plane.qualified_count, from_history.qualified_count);
}

TEST_F(FeaturePlaneTest, SnapshotServesThroughItsPlane) {
  const int t = LastStep();
  // ModelSnapshot owns its (move-only) model, so build one from the
  // trained fixture via the parts-based archive round trip.
  ArchiveWriter writer;
  SaveModelSnapshotParts(*model_, data_->park, LaggedAt(t), &writer);
  auto reader = ArchiveReader::FromBytes(writer.Bytes());
  ASSERT_TRUE(reader.ok());
  auto loaded = ModelSnapshot::Load(&*reader);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->tiled_plane().BuildAllRows(loaded->park()),
            BuildCellFeatureRows(data_->park, data_->history, t));
  const RiskMaps want =
      PredictRiskMap(*model_, data_->park, data_->history, t, 2.0);
  const RiskMaps got = loaded->PredictRisk(2.0);
  EXPECT_EQ(got.risk, want.risk);
  EXPECT_EQ(got.variance, want.variance);

  // A coverage update invalidates and re-derives: version bumps, and the
  // served map now matches a history whose previous step carries the new
  // layer.
  EXPECT_EQ(loaded->coverage_version(), 0u);
  std::vector<double> fresh(data_->park.num_cells(), 0.5);
  loaded->UpdateLaggedEffort(fresh);
  EXPECT_EQ(loaded->coverage_version(), 1u);
  const RiskMaps want2 = PredictRiskMap(*model_, data_->park,
                                        OneStepHistory(fresh), /*t=*/1, 2.0);
  const RiskMaps got2 = loaded->PredictRisk(2.0);
  EXPECT_EQ(got2.risk, want2.risk);
  EXPECT_EQ(got2.variance, want2.variance);
}

}  // namespace
}  // namespace paws

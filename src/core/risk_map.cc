#include "core/risk_map.h"

#include <algorithm>

#include "sim/dataset_builder.h"
#include "util/thread_pool.h"

namespace paws {

namespace {

// Assembly loops (prediction scatter, grid gather) are cheap per cell, so
// only large parks are worth splitting.
constexpr int kAssemblyGrain = 4096;

}  // namespace

Status ArchiveLoaded(RiskMaps& maps) {
  if (maps.risk.size() != maps.variance.size()) {
    return Status::InvalidArgument("RiskMaps: layer size mismatch");
  }
  return Status::OK();
}

RiskMaps PredictRiskMap(const IWareEnsemble& model, const Park& park,
                        const PatrolHistory& history, int t,
                        double assumed_effort) {
  CheckOrDie(assumed_effort >= 0.0, "assumed_effort must be >= 0");
  // Dense cell ids in order, so prediction i maps straight to cell id i —
  // one flat feature buffer, no Dataset construction on the hot path.
  const std::vector<double> rows = BuildCellFeatureRows(park, history, t);
  std::vector<Prediction> preds;
  model.PredictBatch(FeatureMatrixView::FromFlat(rows, park.num_features() + 1),
                     assumed_effort, &preds);
  const int n = park.num_cells();
  RiskMaps maps;
  maps.assumed_effort = assumed_effort;
  maps.risk.resize(n);
  maps.variance.resize(n);
  ParallelFor(model.config().parallelism, 0, n, kAssemblyGrain,
              [&](std::int64_t lo, std::int64_t hi) {
                for (std::int64_t id = lo; id < hi; ++id) {
                  maps.risk[id] = preds[id].prob;
                  maps.variance[id] = preds[id].variance;
                }
              });
  return maps;
}

Status ArchiveLoaded(RiskTile& tile) {
  if (tile.risk.size() != tile.cell_ids.size() ||
      tile.variance.size() != tile.cell_ids.size()) {
    return Status::InvalidArgument("RiskTile: layer size mismatch");
  }
  return Status::OK();
}

RiskTile ScoreRiskTile(const IWareEnsemble& model,
                       const TiledFeaturePlane::Tile& tile, int row_width,
                       double assumed_effort) {
  CheckOrDie(assumed_effort >= 0.0, "assumed_effort must be >= 0");
  // thread_local scratch: steady-state tile scoring performs no
  // prediction-buffer churn (the allocation regression test pins this).
  thread_local std::vector<Prediction> preds;
  preds.clear();
  model.PredictBatch(tile.View(row_width), assumed_effort, &preds);
  const size_t n = tile.cell_ids.size();
  RiskTile out;
  out.tile_id = tile.tile_id;
  out.assumed_effort = assumed_effort;
  out.cell_ids = tile.cell_ids;
  out.risk.resize(n);
  out.variance.resize(n);
  for (size_t i = 0; i < n; ++i) {
    out.risk[i] = preds[i].prob;
    out.variance[i] = preds[i].variance;
  }
  return out;
}

RiskMaps PredictRiskMapTiled(const IWareEnsemble& model, const Park& park,
                             const TiledFeaturePlane& plane,
                             double assumed_effort,
                             const ParallelismConfig& fanout) {
  CheckOrDie(assumed_effort >= 0.0, "assumed_effort must be >= 0");
  RiskMaps maps;
  maps.assumed_effort = assumed_effort;
  maps.risk.resize(park.num_cells());
  maps.variance.resize(park.num_cells());
  // Tiles partition the dense id space and each tile writes only its own
  // cells, so assembly order — and the fan-out width — never changes the
  // result (the same argument that makes ParallelFor bit-identical).
  // Dedicated threads, not the shared pool: GetTile locks the plane's
  // tile-pool ServedCache, and shared-pool tasks must stay lock-free (the
  // tile's own PredictBatch below may run pool chunks while this thread
  // holds nothing — but a pool chunk blocking on the tile pool's mutex
  // while its holder waits for the pool would close the
  // reader->pool->writer cycle).
  ForEachOnDedicatedThreads(fanout, plane.num_tiles(), [&](int t) {
    const std::shared_ptr<const TiledFeaturePlane::Tile> tile =
        plane.GetTile(park, t);
    thread_local std::vector<Prediction> preds;
    preds.clear();
    model.PredictBatch(tile->View(plane.row_width()), assumed_effort,
                       &preds);
    for (size_t i = 0; i < tile->cell_ids.size(); ++i) {
      maps.risk[tile->cell_ids[i]] = preds[i].prob;
      maps.variance[tile->cell_ids[i]] = preds[i].variance;
    }
  });
  return maps;
}

GridD ToGrid(const Park& park, const std::vector<double>& values) {
  CheckOrDie(static_cast<int>(values.size()) == park.num_cells(),
             "ToGrid: size mismatch");
  GridD grid(park.width(), park.height(), 0.0);
  for (int id = 0; id < park.num_cells(); ++id) {
    grid.At(park.CellOf(id)) = values[id];
  }
  return grid;
}

EffortCurveTable PredictCellEffortCurves(const IWareEnsemble& model,
                                         const Park& park,
                                         const PatrolHistory& history, int t,
                                         const std::vector<int>& cell_ids,
                                         std::vector<double> effort_grid) {
  const std::vector<double> rows =
      BuildCellFeatureRows(park, history, t, cell_ids);
  return model.PredictEffortCurves(
      FeatureMatrixView::FromFlat(rows, park.num_features() + 1),
      std::move(effort_grid));
}

std::vector<double> ConvolveRisk(const Park& park,
                                 const std::vector<double>& risk,
                                 int block_radius,
                                 const ParallelismConfig& parallelism) {
  const GridD grid = ToGrid(park, risk);
  const GridD blurred = BoxBlur(grid, park.mask(), block_radius);
  std::vector<double> out(park.num_cells());
  ParallelFor(parallelism, 0, park.num_cells(), kAssemblyGrain,
              [&](std::int64_t lo, std::int64_t hi) {
                for (std::int64_t id = lo; id < hi; ++id) {
                  out[id] = blurred.At(park.CellOf(static_cast<int>(id)));
                }
              });
  return out;
}

}  // namespace paws

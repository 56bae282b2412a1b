#include "geo/tiled_feature_plane.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

namespace paws {

TileGeometry TileGeometry::For(int grid_width, int grid_height,
                               int tile_size) {
  CheckOrDie(tile_size > 0, "TileGeometry: tile_size must be positive");
  CheckOrDie(grid_width > 0 && grid_height > 0,
             "TileGeometry: empty grid");
  TileGeometry g;
  g.tile_size = tile_size;
  g.tiles_x = (grid_width + tile_size - 1) / tile_size;
  g.tiles_y = (grid_height + tile_size - 1) / tile_size;
  return g;
}

void TileGeometry::TileRect(int tile_id, int grid_width, int grid_height,
                            int* x0, int* y0, int* x1, int* y1) const {
  CheckOrDie(tile_id >= 0 && tile_id < num_tiles(),
             "TileGeometry: tile id out of range");
  const int tx = tile_id % tiles_x;
  const int ty = tile_id / tiles_x;
  *x0 = tx * tile_size;
  *y0 = ty * tile_size;
  *x1 = std::min(*x0 + tile_size, grid_width);
  *y1 = std::min(*y0 + tile_size, grid_height);
}

TiledFeaturePlane::TiledFeaturePlane(const Park& park,
                                     std::vector<double> lagged_effort,
                                     TiledPlaneOptions options)
    : num_cells_(park.num_cells()),
      row_width_(park.num_features() + 1),
      grid_width_(park.width()),
      grid_height_(park.height()),
      geometry_(TileGeometry::For(park.width(), park.height(),
                                  options.tile_size)),
      options_(options),
      pool_(options.pool_budget_bytes == 0 ? SIZE_MAX
                                           : options.pool_budget_bytes) {
  if (lagged_effort.empty()) {
    lagged_effort.assign(num_cells_, 0.0);
  }
  CheckOrDie(static_cast<int>(lagged_effort.size()) == num_cells_,
             "TiledFeaturePlane: lagged-effort layer does not match the park");
  CheckOrDie(std::all_of(lagged_effort.begin(), lagged_effort.end(),
                         IsValidCoverage),
             "TiledFeaturePlane: lagged-effort layer must be finite and "
             "non-negative");
  lagged_effort_ = std::move(lagged_effort);
  tile_versions_.assign(geometry_.num_tiles(), 0);
  // Count each run's cells, then prefix-sum the counts into run starts.
  run_starts_.assign(static_cast<size_t>(grid_height_) * geometry_.tiles_x + 1,
                     0);
  for (const int grid_index : park.cell_indices()) {
    const int run = (grid_index / grid_width_) * geometry_.tiles_x +
                    (grid_index % grid_width_) / geometry_.tile_size;
    ++run_starts_[run + 1];
  }
  std::partial_sum(run_starts_.begin(), run_starts_.end(),
                   run_starts_.begin());
}

void TiledFeaturePlane::CheckPark(const Park& park) const {
  CheckOrDie(park.num_cells() == num_cells_ &&
                 park.width() == grid_width_ &&
                 park.height() == grid_height_,
             "TiledFeaturePlane: park does not match this plane");
}

uint64_t TiledFeaturePlane::tile_coverage_version(int tile_id) const {
  CheckOrDie(tile_id >= 0 && tile_id < geometry_.num_tiles(),
             "TiledFeaturePlane: tile id out of range");
  return tile_versions_[tile_id];
}

void TiledFeaturePlane::TileCellIds(const Park& park, int tile_id,
                                    std::vector<int>* out) const {
  CheckPark(park);
  int x0, y0, x1, y1;
  geometry_.TileRect(tile_id, grid_width_, grid_height_, &x0, &y0, &x1, &y1);
  // The tile's cells are its runs for grid rows y0..y1-1, concatenated.
  const int tiles_x = geometry_.tiles_x;
  const int tx = tile_id % tiles_x;
  const int first_run = y0 * tiles_x + tx;
  const int end_run = y1 * tiles_x + tx;
  size_t count = 0;
  for (int run = first_run; run < end_run; run += tiles_x) {
    count += run_starts_[run + 1] - run_starts_[run];
  }
  out->resize(count);
  int* next = out->data();
  for (int run = first_run; run < end_run; run += tiles_x) {
    const int begin = run_starts_[run];
    const int end = run_starts_[run + 1];
    std::iota(next, next + (end - begin), begin);
    next += end - begin;
  }
}

std::shared_ptr<const TiledFeaturePlane::Tile> TiledFeaturePlane::Materialize(
    const Park& park, int tile_id) const {
  auto tile = std::make_shared<Tile>();
  tile->tile_id = tile_id;
  tile->coverage_version = tile_versions_[tile_id];
  TileCellIds(park, tile_id, &tile->cell_ids);
  AppendCellFeatureRows(park, &lagged_effort_, tile->cell_ids, &tile->rows);
  return tile;
}

std::shared_ptr<const TiledFeaturePlane::Tile> TiledFeaturePlane::GetTile(
    const Park& park, int tile_id) const {
  CheckOrDie(tile_id >= 0 && tile_id < geometry_.num_tiles(),
             "TiledFeaturePlane: tile id out of range");
  return pool_.GetOrCompute(tile_id,
                            [&] { return Materialize(park, tile_id); });
}

Status TiledFeaturePlane::UpdateLaggedEffort(
    const Park& park, std::vector<double> lagged_effort) {
  if (lagged_effort.empty()) {
    lagged_effort.assign(num_cells_, 0.0);
  }
  if (static_cast<int>(lagged_effort.size()) != num_cells_) {
    return Status::InvalidArgument(
        "lagged-effort layer does not match the park");
  }
  CheckPark(park);
  // Diff the layers run by run (by bit pattern: a -0.0 -> 0.0 flip is a
  // row change even though == would miss it) and mark the containing
  // tiles dirty. Only dirty tiles pay: version bump + pool eviction.
  std::vector<bool> dirty(geometry_.num_tiles(), false);
  bool valid = true;
  const int tiles_x = geometry_.tiles_x;
  for (int y = 0; y < grid_height_; ++y) {
    for (int tx = 0; tx < tiles_x; ++tx) {
      const int run = y * tiles_x + tx;
      const int begin = run_starts_[run];
      const size_t n = run_starts_[run + 1] - begin;
      const double* after = lagged_effort.data() + begin;
      if (n == 0 ||
          std::memcmp(lagged_effort_.data() + begin, after,
                      n * sizeof(double)) == 0) {
        continue;
      }
      // The run's unchanged cells were checked when installed.
      valid = valid && std::all_of(after, after + n, IsValidCoverage);
      dirty[(y / geometry_.tile_size) * tiles_x + tx] = true;
    }
  }
  if (!valid) {
    return Status::InvalidArgument(
        "lagged-effort layer must be finite and non-negative");
  }
  ++coverage_version_;
  lagged_effort_ = std::move(lagged_effort);
  for (int t = 0; t < geometry_.num_tiles(); ++t) {
    if (!dirty[t]) continue;
    tile_versions_[t] = coverage_version_;
    // Evict instead of patching in place: in-flight readers may still
    // hold the old tile (shared_ptr), and they must keep seeing the
    // coverage layer they started under.
    pool_.Erase(t);
  }
  return Status::OK();
}

std::vector<double> TiledFeaturePlane::BuildAllRows(const Park& park) const {
  std::vector<double> rows;
  rows.resize(static_cast<size_t>(num_cells_) * row_width_);
  // Tiles partition the grid, and within a tile cells stream in grid
  // row-major order — so scattering each tile's rows by dense id fills
  // the buffer exactly once per cell.
  for (int t = 0; t < geometry_.num_tiles(); ++t) {
    const std::shared_ptr<const Tile> tile = GetTile(park, t);
    for (size_t i = 0; i < tile->cell_ids.size(); ++i) {
      std::copy(tile->rows.begin() + i * row_width_,
                tile->rows.begin() + (i + 1) * row_width_,
                rows.begin() +
                    static_cast<size_t>(tile->cell_ids[i]) * row_width_);
    }
  }
  return rows;
}

FeatureMatrixView TiledFeaturePlane::GatherCells(
    const Park& park, const std::vector<int>& cell_ids,
    std::vector<double>* buf) const {
  CheckPark(park);
  for (int id : cell_ids) {
    CheckOrDie(id >= 0 && id < num_cells_,
               "TiledFeaturePlane::GatherCells: cell id out of range");
  }
  buf->clear();
  AppendCellFeatureRows(park, &lagged_effort_, cell_ids, buf);
  return FeatureMatrixView::FromFlat(*buf, row_width_);
}

TilePoolStats TiledFeaturePlane::pool_stats() const {
  const ServedCacheStats served = pool_.stats();
  TilePoolStats stats;
  stats.resident_tiles = served.resident;
  stats.resident_bytes = served.resident_cost;
  stats.hits = served.hits;
  stats.misses = served.misses;
  stats.evictions = served.evictions;
  return stats;
}

}  // namespace paws

#ifndef PAWS_GEO_TILED_FEATURE_PLANE_H_
#define PAWS_GEO_TILED_FEATURE_PLANE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "geo/park.h"
#include "util/aligned.h"
#include "util/feature_matrix.h"
#include "util/lru_cache.h"
#include "util/status.h"

namespace paws {

/// Fixed-size spatial tiling of a park grid: square blocks of
/// `tile_size` x `tile_size` grid cells, indexed row-major over the block
/// grid. A tile's member cells are the in-park (dense) cells inside its
/// rectangle, enumerated in grid row-major order — the same order the
/// whole-park dense id assignment uses, so tile-by-tile traversal visits
/// every dense cell exactly once and a per-tile result scatters back onto
/// dense ids without reordering.
struct TileGeometry {
  int tile_size = 0;
  int tiles_x = 0;
  int tiles_y = 0;

  static TileGeometry For(int grid_width, int grid_height, int tile_size);

  int num_tiles() const { return tiles_x * tiles_y; }
  /// Grid-cell rectangle [x0, x1) x [y0, y1) of tile `tile_id`. Edge tiles
  /// are ragged: their rectangle is clipped to the grid.
  void TileRect(int tile_id, int grid_width, int grid_height, int* x0,
                int* y0, int* x1, int* y1) const;
  /// Tile id containing grid cell (x, y).
  int TileOf(int x, int y) const {
    return (y / tile_size) * tiles_x + (x / tile_size);
  }
};

struct TiledPlaneOptions {
  /// Grid cells per tile side. 64 x 64 cells x ~13 row doubles is ~400 KiB
  /// per resident tile — big enough to amortize scoring dispatch, small
  /// enough that a few dozen tiles fit any budget.
  int tile_size = 64;
  /// Byte budget for materialized tile rows; least-recently-used tiles are
  /// evicted past it. 0 = unbounded (every touched tile stays resident —
  /// the small-park default: after one sweep every row is resident).
  size_t pool_budget_bytes = 0;
};

/// Whether `km` may serve as a cell's lagged patrol coverage: finite and
/// non-negative (NaN fails both comparisons).
inline bool IsValidCoverage(double km) {
  return km >= 0.0 && km <= std::numeric_limits<double>::max();
}

/// The one per-cell feature-row assembly loop: for each cell, the park's
/// static raster features in park order (Park::CopyFeatures), then the
/// lagged-coverage value (zero when `lagged` is null). Appends to `*rows`,
/// which grows once; each row is written in place. Tile materialization,
/// subset gathers and the training-side BuildCellFeatureRows all run this
/// loop, so their rows are byte-identical by construction.
template <typename Rows>
void AppendCellFeatureRows(const Park& park, const std::vector<double>* lagged,
                           const std::vector<int>& cell_ids, Rows* rows) {
  const size_t width = park.num_features() + 1;
  const size_t begin = rows->size();
  rows->resize(begin + cell_ids.size() * width);
  double* row = rows->data() + begin;
  for (int id : cell_ids) {
    park.CopyFeatures(id, row);
    row[width - 1] = lagged != nullptr ? (*lagged)[id] : 0.0;
    row += width;
  }
}

/// Cumulative tile-pool counters (monotone except resident_*, which report
/// the current pool contents).
struct TilePoolStats {
  uint64_t resident_tiles = 0;
  uint64_t resident_bytes = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

/// The serving-side feature-row store: every dense cell's static
/// geospatial features plus the one time-variant covariate (the lagged
/// patrol-coverage column), materialized per tile on demand into a
/// bounded, LRU-evicted pool, so the feature-row layer's memory is O(pool
/// budget), not O(park cells). An unbounded pool (the small-park default)
/// holds every touched tile. Each materialized row is byte-identical to
/// the row BuildCellFeatureRows assembles for the same cell and coverage
/// layer (AppendCellFeatureRows) — tiling changes residency, never bits.
///
/// Row storage is 64-byte-aligned (AlignedAllocator) for the SIMD scoring
/// backends' gathered walks.
///
/// Invalidation contract: UpdateLaggedEffort diffs the old and new
/// coverage layers and touches only the tiles whose cells changed — each
/// dirty tile's version is bumped (to the new global coverage_version())
/// and its resident rows are dropped from the pool; clean tiles keep their
/// version AND their residency, so a spatially local coverage update costs
/// O(dirty tiles), and cache layers above can key served tiles on
/// tile_coverage_version(t) to keep untouched tiles warm across updates.
/// Dirty tiles are evicted rather than patched in place because evicted
/// tiles may still be referenced by in-flight readers (shared_ptr) — a
/// reader always sees one internally consistent coverage layer.
///
/// Thread safety: any number of threads may call the const accessors and
/// GetTile concurrently (the pool is a ServedCache: internally locked,
/// with materialization outside the lock, so two racing misses both build
/// bit-identical rows and the second insert just refreshes the entry).
/// UpdateLaggedEffort requires external exclusion against readers — the
/// same writer contract ParkService enforces with its per-park
/// shared_mutex.
class TiledFeaturePlane {
 public:
  /// One materialized tile. `cell_ids` are the dense ids of the tile's
  /// in-park cells in grid row-major order; `rows` is the row-major
  /// [cell_ids.size() x row_width] feature block for them. Handed out as
  /// shared_ptr<const Tile> so pool eviction never invalidates a reader.
  struct Tile {
    int tile_id = 0;
    uint64_t coverage_version = 0;
    std::vector<int> cell_ids;
    std::vector<double, AlignedAllocator<double, 64>> rows;

    size_t bytes() const {
      return sizeof(Tile) + cell_ids.capacity() * sizeof(int) +
             rows.capacity() * sizeof(double);
    }
    FeatureMatrixView View(int row_width) const {
      return FeatureMatrixView(rows.data(),
                               static_cast<int>(cell_ids.size()), row_width);
    }
  };

  /// `lagged_effort` is the previous step's per-dense-cell patrol
  /// coverage; empty = zero coverage everywhere. Every value must be a
  /// valid coverage (dies otherwise; outside input is checked first, as
  /// ModelSnapshot::Load does).
  /// The park is NOT retained — every materializing call takes it again,
  /// and the caller must always pass the park this plane was built for
  /// (geometry and feature count are validated).
  TiledFeaturePlane(const Park& park, std::vector<double> lagged_effort,
                    TiledPlaneOptions options = {});

  int num_cells() const { return num_cells_; }
  /// park.num_features() + 1: the trailing column is the lagged coverage.
  int row_width() const { return row_width_; }
  const TileGeometry& geometry() const { return geometry_; }
  int num_tiles() const { return geometry_.num_tiles(); }
  const TiledPlaneOptions& options() const { return options_; }

  const std::vector<double>& lagged_effort() const { return lagged_effort_; }

  /// Monotone counter bumped by every UpdateLaggedEffort.
  uint64_t coverage_version() const { return coverage_version_; }
  /// The coverage version as of the last update that touched tile `t` —
  /// the cache-key component that keeps untouched tiles' served results
  /// valid across partial coverage updates.
  uint64_t tile_coverage_version(int tile_id) const;

  /// The tile's materialized rows, from the pool when resident, built
  /// from the park's rasters otherwise (and inserted, evicting LRU tiles
  /// past the byte budget). Never returns null.
  std::shared_ptr<const Tile> GetTile(const Park& park, int tile_id) const;

  /// Dense ids of the tile's in-park cells (grid row-major), without
  /// materializing rows: the tile's runs (see run_starts_), concatenated.
  /// Replaces the contents of `*out`.
  void TileCellIds(const Park& park, int tile_id,
                   std::vector<int>* out) const;

  /// Replaces the lagged-coverage layer; see the invalidation contract
  /// above. Size must match num_cells() (or be empty for all-zero), and
  /// every value must be a valid coverage (IsValidCoverage); otherwise
  /// returns InvalidArgument and changes nothing. Only changed runs of
  /// cells are checked, in the pass that diffs the layers: the current
  /// layer is always valid, so an invalid value always differs from the
  /// value it would replace.
  Status UpdateLaggedEffort(const Park& park,
                            std::vector<double> lagged_effort);

  /// Whole-park compatibility path: streams every tile through GetTile
  /// and concatenates the rows in dense-id order. Bit-identical to
  /// BuildCellFeatureRows over all cells (tests enforce it). Intended for
  /// parity checks and small-park callers — the output is O(cells) by
  /// definition.
  std::vector<double> BuildAllRows(const Park& park) const;

  /// Packs the given cells' rows into `*buf` and returns a view over it —
  /// the subset gather behind the curve/planning paths. Rows are
  /// assembled straight from the park's rasters (no tile
  /// materialization).
  FeatureMatrixView GatherCells(const Park& park,
                                const std::vector<int>& cell_ids,
                                std::vector<double>* buf) const;

  TilePoolStats pool_stats() const;

 private:
  /// Dies unless `park` is the park this plane was built for.
  void CheckPark(const Park& park) const;
  /// Builds the tile's rows from the park rasters (no locks held).
  std::shared_ptr<const Tile> Materialize(const Park& park,
                                          int tile_id) const;

  /// A tile's pool cost: its heap footprint.
  struct TileBytes {
    size_t operator()(const std::shared_ptr<const Tile>& tile) const {
      return tile->bytes();
    }
  };

  int num_cells_ = 0;
  int row_width_ = 0;
  int grid_width_ = 0;
  int grid_height_ = 0;
  TileGeometry geometry_;
  TiledPlaneOptions options_;
  std::vector<double> lagged_effort_;
  uint64_t coverage_version_ = 0;
  std::vector<uint64_t> tile_versions_;
  /// Run y * tiles_x + tx holds the in-park cells of grid row y inside
  /// tile column tx: dense ids [run_starts_[run], run_starts_[run + 1]),
  /// since dense ids follow the grid in row-major order. Coverage diffs
  /// compare whole runs, and TileCellIds concatenates them, so neither
  /// needs a per-cell mask or tile lookup.
  std::vector<int> run_starts_;

  /// LRU pool of materialized tiles keyed by tile id, its capacity the
  /// byte budget.
  mutable ServedCache<int, std::shared_ptr<const Tile>, std::hash<int>,
                      TileBytes>
      pool_;
};

}  // namespace paws

#endif  // PAWS_GEO_TILED_FEATURE_PLANE_H_

#ifndef PAWS_CORE_RISK_MAP_H_
#define PAWS_CORE_RISK_MAP_H_

#include <vector>

#include "core/iware.h"
#include "geo/park.h"
#include "geo/tiled_feature_plane.h"
#include "geo/raster_ops.h"
#include "ml/effort_curve.h"
#include "sim/patrol_sim.h"
#include "util/archive.h"
#include "util/thread_pool.h"

namespace paws {

/// Per-cell risk and uncertainty layers — the paper's Fig. 6 artifacts:
/// "predicted probability of detecting poaching activity" (red maps) and
/// "corresponding uncertainty of the predictions" (green maps) at a given
/// hypothetical patrol effort.
struct RiskMaps {
  std::vector<double> risk;      // per dense cell id
  std::vector<double> variance;  // per dense cell id
  double assumed_effort = 0.0;

  /// Archived bit-exact as a "RISK" section, so rendered maps can be
  /// archived and re-served without the model that produced them.
  static constexpr ArchiveSection kArchiveSection{FourCc("RISK"), 1};
};

template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, RiskMaps> m) {
  io(m.risk, m.variance, m.assumed_effort);
}
Status ArchiveLoaded(RiskMaps& maps);

/// Predicts risk/uncertainty for every park cell at time step `t` in one
/// batched ensemble call, assuming each cell receives `assumed_effort` km
/// of patrol during the step (lagged coverage read from `history`).
RiskMaps PredictRiskMap(const IWareEnsemble& model, const Park& park,
                        const PatrolHistory& history, int t,
                        double assumed_effort);

/// One spatial tile's worth of risk map — the sub-park serving unit. Row i
/// of risk/variance is the prediction for dense cell `cell_ids[i]`; the
/// cell list is the tile's in-park cells in grid row-major order (see
/// TileGeometry), so tiles reassemble into the whole-park RiskMaps by
/// scattering on cell_ids.
struct RiskTile {
  int tile_id = 0;
  std::vector<int> cell_ids;
  std::vector<double> risk;      // per tile cell
  std::vector<double> variance;  // per tile cell
  double assumed_effort = 0.0;

  /// Archived bit-exact as an "RTIL" section — the kRiskTile wire body.
  static constexpr ArchiveSection kArchiveSection{FourCc("RTIL"), 1};
};

template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, RiskTile> t) {
  io(t.tile_id, t.cell_ids, t.risk, t.variance, t.assumed_effort);
}
Status ArchiveLoaded(RiskTile& tile);

/// Scores one materialized tile through the model. Per-row scoring is
/// batch-composition independent (the thread-count and SIMD bit-identity
/// suites enforce it), so prediction i here equals prediction
/// tile.cell_ids[i] of a whole-park PredictRiskMap at the same coverage
/// layer — tiling never changes bits. Steady-state allocation: the
/// prediction scratch is thread_local, so repeated calls only allocate
/// the returned tile's own vectors.
RiskTile ScoreRiskTile(const IWareEnsemble& model,
                       const TiledFeaturePlane::Tile& tile, int row_width,
                       double assumed_effort);

/// Whole-park risk map assembled tile by tile from a TiledFeaturePlane:
/// every tile is fetched (materializing on demand through the plane's
/// bounded pool), scored, and scattered into dense-id order. Bit-identical
/// to the history-based PredictRiskMap at the same coverage layer (per-row
/// scoring is batch-composition independent). Tiles fan out
/// across dedicated threads, never the shared ThreadPool: fetching a tile
/// takes the plane's pool mutex, and pool tasks must stay lock-free. A
/// pool task blocked on a lock whose holder waits for the pool deadlocks,
/// and so does one blocked on a park lock that a pending writer keeps
/// from its readers while a reader waits for the pool. Each tile's model
/// scoring still uses the pool internally.
RiskMaps PredictRiskMapTiled(const IWareEnsemble& model, const Park& park,
                             const TiledFeaturePlane& plane,
                             double assumed_effort,
                             const ParallelismConfig& fanout = {});

/// Rasterizes a per-dense-cell vector onto the park grid (out-of-park = 0).
GridD ToGrid(const Park& park, const std::vector<double>& values);

/// Builds the planner's black-box inputs for a set of park cells: tabulated
/// g(c) = model probability and nu(c) = model variance over `effort_grid`,
/// with features/lagged coverage fixed at time `t`. Replaces the old
/// per-cell std::function closure pair (CellPredictors): every weak
/// learner is evaluated once per cell and the whole grid reuses those
/// evaluations.
EffortCurveTable PredictCellEffortCurves(const IWareEnsemble& model,
                                         const Park& park,
                                         const PatrolHistory& history, int t,
                                         const std::vector<int>& cell_ids,
                                         std::vector<double> effort_grid);

/// Averages risk over block_size x block_size neighborhoods ("convolving
/// the risk map", Sec. VII-B) — returns a per-dense-cell block score.
/// The gather back onto dense cell ids splits across `parallelism` threads
/// for large parks (default: serial-equivalent auto threading).
std::vector<double> ConvolveRisk(
    const Park& park, const std::vector<double>& risk, int block_radius,
    const ParallelismConfig& parallelism = ParallelismConfig());

}  // namespace paws

#endif  // PAWS_CORE_RISK_MAP_H_

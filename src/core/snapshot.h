#ifndef PAWS_CORE_SNAPSHOT_H_
#define PAWS_CORE_SNAPSHOT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/iware.h"
#include "core/risk_map.h"
#include "geo/park.h"
#include "geo/tiled_feature_plane.h"
#include "plan/planner.h"
#include "plan/robust.h"
#include "util/archive.h"

namespace paws {

/// The train-once / serve-many artifact: a trained iWare-E ensemble plus
/// the serving context it needs — the park geometry (mask, feature
/// rasters, patrol posts) and the lagged patrol-coverage layer at the
/// serving time step. A loaded snapshot serves risk maps, effort-curve
/// tables and robust patrol plans with no training data or simulator state
/// present, and its predictions are bit-identical to the model that was
/// saved.
///
/// Feature rows are derived (never serialized) state held in one
/// TiledFeaturePlane: rows materialized per 64x64-cell tile on demand into
/// an LRU pool. The default unbounded pool keeps every touched tile (small
/// parks); a `pool_budget_bytes` bound keeps a multi-million-cell park's
/// feature-row memory at the budget instead of O(cells). Whole-park calls
/// stream tiles through the pool; subset calls (curves, planning) gather
/// rows straight from the rasters.
///
/// UpdateLaggedEffort is the only invalidation point — it installs the new
/// coverage layer and bumps coverage_version(), which serving caches above
/// (ParkService) key on; per-tile caches key on tile_coverage_version(t),
/// which only moves for tiles whose cells actually changed.
///
/// Produced by PawsPipeline::SaveModel / LoadModel (or assembled directly
/// from parts for custom serving stacks).
class ModelSnapshot {
 public:
  /// `lagged_effort` is the previous step's per-dense-cell patrol coverage
  /// — the time-variant feature every serving-side row carries.
  /// `tiled_options` sets the tile size and the feature-tile pool budget.
  ModelSnapshot(IWareEnsemble model, Park park,
                std::vector<double> lagged_effort,
                TiledPlaneOptions tiled_options = {});

  const IWareEnsemble& model() const { return model_; }
  /// For re-pinning prediction parallelism (IWareEnsemble::set_parallelism).
  IWareEnsemble& mutable_model() { return model_; }
  const Park& park() const { return park_; }
  const TiledFeaturePlane& tiled_plane() const { return *tiled_; }
  const std::vector<double>& lagged_effort() const {
    return tiled_->lagged_effort();
  }
  /// Bumped by every UpdateLaggedEffort (see TiledFeaturePlane).
  uint64_t coverage_version() const { return tiled_->coverage_version(); }

  int num_tiles() const { return tiled_->num_tiles(); }
  /// The coverage version as of the last update that touched tile `t` —
  /// what per-tile serving caches key on.
  uint64_t tile_coverage_version(int tile_id) const {
    return tiled_->tile_coverage_version(tile_id);
  }
  TilePoolStats tile_pool_stats() const { return tiled_->pool_stats(); }

  /// Installs a new lagged patrol-coverage layer (a fresh step of SMART
  /// data arriving in the field): invalidates the pool tiles and anything
  /// keyed on coverage_version() / tile_coverage_version(t) for changed
  /// tiles. A layer that is not one finite, non-negative value per park
  /// cell is rejected with InvalidArgument and changes nothing.
  Status UpdateLaggedEffort(std::vector<double> lagged_effort);

  /// Risk/uncertainty maps over every park cell at `assumed_effort` km —
  /// the serving analogue of PawsPipeline::PredictRisk. Assembled tile by
  /// tile through the pool, fanning tiles out across `fanout` dedicated
  /// threads; bit-identical for every fan-out width.
  RiskMaps PredictRisk(double assumed_effort,
                       const ParallelismConfig& fanout = {}) const;

  /// One tile's risk/uncertainty at `assumed_effort` km — the sub-park
  /// serving unit. Prediction i equals the whole-park PredictRisk value
  /// at dense cell cell_ids[i], bit for bit.
  RiskTile PredictRiskTile(int tile_id, double assumed_effort) const;

  /// Tabulated g_v(c)/nu_v(c) planner inputs for the given cells.
  EffortCurveTable PredictCellCurves(const std::vector<int>& cell_ids,
                                     std::vector<double> effort_grid) const;

  /// Plans robust patrols around patrol post `post_index` — the serving
  /// analogue of PawsPipeline::PlanForPost.
  StatusOr<PatrolPlan> PlanForPost(int post_index, const PlannerConfig& config,
                                   const RobustParams& robust) const;

  void Save(ArchiveWriter* ar) const;
  static StatusOr<ModelSnapshot> Load(ArchiveReader* ar);

  /// Whole-file convenience wrappers around Save/Load.
  Status WriteFile(const std::string& path) const;
  static StatusOr<ModelSnapshot> ReadFile(const std::string& path);
  /// Load from an in-memory archive (the wire bytes WriteFile persists) —
  /// how a serving fleet hydrates snapshots received over the network.
  /// Same validation as ReadFile, including trailing-garbage rejection.
  static StatusOr<ModelSnapshot> FromBytes(const std::string& bytes);

 private:
  IWareEnsemble model_;
  Park park_;
  /// Derived serving state (rebuilt on construction/load, never
  /// serialized). Heap-held: the plane's pool mutex is immovable.
  std::unique_ptr<TiledFeaturePlane> tiled_;
};

/// Writes the ModelSnapshot wire format from unowned parts — how the
/// pipeline saves a snapshot without copying its (move-only) trained
/// model. ModelSnapshot::Save is this applied to its own members.
void SaveModelSnapshotParts(const IWareEnsemble& model, const Park& park,
                            const std::vector<double>& lagged_effort,
                            ArchiveWriter* ar);

/// Shared serving path behind PawsPipeline::PlanForPost and
/// ModelSnapshot::PlanForPost: validate, build the post's planning graph,
/// tabulate effort curves at time `t`, and solve the robust MILP.
StatusOr<PatrolPlan> PlanForPostWithModel(const IWareEnsemble& model,
                                          const Park& park,
                                          const PatrolHistory& history, int t,
                                          int post_index,
                                          const PlannerConfig& config,
                                          const RobustParams& robust);

}  // namespace paws

#endif  // PAWS_CORE_SNAPSHOT_H_

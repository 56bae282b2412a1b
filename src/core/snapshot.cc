#include "core/snapshot.h"

#include <algorithm>
#include <utility>

#include "plan/graph.h"

namespace paws {

namespace {

// The snapshot's one field list, over unowned parts (Save) or the parts a
// Load fills in: an "SNAP" section holding the ensemble, the park and the
// lagged-effort layer.
template <typename Model, typename ParkT, typename Lagged>
struct SnapshotParts {
  static constexpr ArchiveSection kArchiveSection{FourCc("SNAP"), 1};
  Model& model;
  ParkT& park;
  Lagged& lagged_effort;
};

template <typename Io, typename... Parts>
void ArchiveFields(Io& io, const SnapshotParts<Parts...>& s) {
  io(s.model, s.park, s.lagged_effort);
}

using SavedParts =
    SnapshotParts<const IWareEnsemble, const Park, const std::vector<double>>;

// Validates the post/config, builds the post's planning graph and solves
// the robust MILP from curves supplied by `tabulate(cell_ids, grid)` — the
// shared skeleton of the history- and snapshot-backed planning paths.
template <typename TabulateFn>
StatusOr<PatrolPlan> PlanForPostImpl(const Park& park, int post_index,
                                     const PlannerConfig& config,
                                     const RobustParams& robust,
                                     const TabulateFn& tabulate) {
  const auto& posts = park.patrol_posts();
  if (post_index < 0 || post_index >= static_cast<int>(posts.size())) {
    return Status::InvalidArgument("PlanForPost: bad post index");
  }
  // Invalid planner configs must surface as Status (as PlanPatrols reports
  // them), not abort inside the grid construction below.
  PAWS_RETURN_IF_ERROR(ValidatePlannerConfig(config));
  const PlanningGraph graph = BuildPlanningGraph(
      park, posts[post_index], std::max(2, config.horizon / 2));
  // Batch-first hot path: one tabulation of the ensemble over the planner's
  // PWL breakpoints feeds the whole MILP — no per-cell closures.
  const EffortCurveTable curves = tabulate(
      graph.park_cell_ids,
      UniformEffortGrid(0.0, PlannerEffortCap(config), config.pwl_segments));
  const auto utilities = MakeRobustUtilityTables(curves, robust);
  return PlanPatrols(graph, utilities, config);
}

}  // namespace

ModelSnapshot::ModelSnapshot(IWareEnsemble model, Park park,
                             std::vector<double> lagged_effort,
                             TiledPlaneOptions tiled_options)
    : model_(std::move(model)), park_(std::move(park)) {
  // The plane treats an empty vector as all-zero coverage; a snapshot must
  // not — an accidentally defaulted coverage layer from a custom serving
  // stack should fail loudly, exactly as a wrong-sized one does.
  CheckOrDie(static_cast<int>(lagged_effort.size()) == park_.num_cells(),
             "ModelSnapshot: lagged-effort layer does not match the park");
  tiled_ = std::make_unique<TiledFeaturePlane>(park_, std::move(lagged_effort),
                                               tiled_options);
}

Status ModelSnapshot::UpdateLaggedEffort(std::vector<double> lagged_effort) {
  // Checked here too: the plane would take an empty layer as zeros.
  if (static_cast<int>(lagged_effort.size()) != park_.num_cells()) {
    return Status::InvalidArgument(
        "ModelSnapshot: lagged-effort layer does not match the park");
  }
  return tiled_->UpdateLaggedEffort(park_, std::move(lagged_effort));
}

RiskMaps ModelSnapshot::PredictRisk(double assumed_effort,
                                    const ParallelismConfig& fanout) const {
  return PredictRiskMapTiled(model_, park_, *tiled_, assumed_effort, fanout);
}

RiskTile ModelSnapshot::PredictRiskTile(int tile_id,
                                        double assumed_effort) const {
  const std::shared_ptr<const TiledFeaturePlane::Tile> tile =
      tiled_->GetTile(park_, tile_id);
  return ScoreRiskTile(model_, *tile, tiled_->row_width(), assumed_effort);
}

EffortCurveTable ModelSnapshot::PredictCellCurves(
    const std::vector<int>& cell_ids, std::vector<double> effort_grid) const {
  // Gathered straight from the rasters: a subset never materializes tiles.
  std::vector<double> buf;
  const FeatureMatrixView rows = tiled_->GatherCells(park_, cell_ids, &buf);
  return model_.PredictEffortCurves(rows, std::move(effort_grid));
}

StatusOr<PatrolPlan> ModelSnapshot::PlanForPost(
    int post_index, const PlannerConfig& config,
    const RobustParams& robust) const {
  return PlanForPostImpl(
      park_, post_index, config, robust,
      [&](const std::vector<int>& cell_ids, std::vector<double> grid) {
        return PredictCellCurves(cell_ids, std::move(grid));
      });
}

void SaveModelSnapshotParts(const IWareEnsemble& model, const Park& park,
                            const std::vector<double>& lagged_effort,
                            ArchiveWriter* ar) {
  CheckOrDie(static_cast<int>(lagged_effort.size()) == park.num_cells(),
             "SaveModelSnapshotParts: lagged-effort layer/park mismatch");
  SaveRecord(SavedParts{model, park, lagged_effort}, ar);
}

void ModelSnapshot::Save(ArchiveWriter* ar) const {
  SaveModelSnapshotParts(model_, park_, lagged_effort(), ar);
}

StatusOr<ModelSnapshot> ModelSnapshot::Load(ArchiveReader* ar) {
  IWareEnsemble model{IWareConfig{}};
  Park park;
  std::vector<double> lagged;
  SnapshotParts<IWareEnsemble, Park, std::vector<double>> parts{model, park,
                                                                lagged};
  PAWS_RETURN_IF_ERROR(LoadRecord(ar, &parts));
  if (model.num_learners() == 0) {
    return Status::InvalidArgument(
        "ModelSnapshot: archive holds an untrained model");
  }
  if (static_cast<int>(lagged.size()) != park.num_cells() ||
      !std::all_of(lagged.begin(), lagged.end(), IsValidCoverage)) {
    return Status::InvalidArgument(
        "ModelSnapshot: lagged-effort layer must hold one finite, "
        "non-negative value per park cell");
  }
  // Serving scores rows of the park's features plus the lagged-effort
  // column; a model fitted to other rows would abort the first read.
  const int width = park.num_features() + 1;
  const Status fits = model.CheckRowWidth(width);
  if (!fits.ok()) {
    return Status::InvalidArgument(
        "ModelSnapshot: the model cannot score the park's rows of " +
        std::to_string(width) + " columns (" +
        std::to_string(park.num_features()) +
        " features + lagged effort): " + fits.message());
  }
  return ModelSnapshot(std::move(model), std::move(park), std::move(lagged));
}

Status ModelSnapshot::WriteFile(const std::string& path) const {
  return WriteArchiveFile(SavedParts{model_, park_, lagged_effort()}, path);
}

StatusOr<ModelSnapshot> ModelSnapshot::ReadFile(const std::string& path) {
  PAWS_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return FromBytes(bytes);
}

StatusOr<ModelSnapshot> ModelSnapshot::FromBytes(const std::string& bytes) {
  PAWS_ASSIGN_OR_RETURN(ArchiveReader reader, ArchiveReader::FromBytes(bytes));
  PAWS_ASSIGN_OR_RETURN(ModelSnapshot snapshot, Load(&reader));
  PAWS_RETURN_IF_ERROR(reader.ExpectEnd());
  return snapshot;
}

StatusOr<PatrolPlan> PlanForPostWithModel(const IWareEnsemble& model,
                                          const Park& park,
                                          const PatrolHistory& history, int t,
                                          int post_index,
                                          const PlannerConfig& config,
                                          const RobustParams& robust) {
  return PlanForPostImpl(
      park, post_index, config, robust,
      [&](const std::vector<int>& cell_ids, std::vector<double> grid) {
        return PredictCellEffortCurves(model, park, history, t, cell_ids,
                                       std::move(grid));
      });
}

}  // namespace paws

// Workload set-up: the parks each workload serves and the server in front
// of them, plus the independent reference snapshots replies are checked
// against.
#include "core/pipeline.h"
#include "geo/synth.h"
#include "sim/dataset_builder.h"
#include "world.h"

namespace perfbench {

using namespace paws;

namespace {

// The example_paws_serve --smoke recipe: presets cycled, seeds varied per
// slot, so every slot is a different small park.
Scenario SmokeScenario(int slot) {
  const ParkPreset presets[] = {ParkPreset::kMfnp, ParkPreset::kQenp,
                                ParkPreset::kSws};
  Scenario scenario = MakeScenario(presets[slot % 3], /*seed=*/17 + slot);
  scenario.park.width = 24;
  scenario.park.height = 20;
  scenario.num_years = 3;
  return scenario;
}

std::string TrainSmokeSnapshot(int slot) {
  ScenarioData data = SimulateScenario(SmokeScenario(slot), 100 + slot);
  IWareConfig cfg;
  cfg.weak_learner = WeakLearnerKind::kDecisionTreeBagging;
  cfg.num_thresholds = 4;
  cfg.cv_folds = 2;
  cfg.bagging.num_estimators = 5;
  cfg.bagging.balanced = slot % 3 == 2;  // SWS
  PawsPipeline pipeline(std::move(data), cfg);
  Rng rng(7 + slot);
  CheckOrDie(pipeline.Train(&rng).ok(), "perfbench: smoke training failed");
  ArchiveWriter writer;
  pipeline.SaveModel(&writer);
  return writer.Bytes();
}

constexpr int64_t kMegaCells = 1000000;
constexpr size_t kMegaPoolBytes = 64ull << 20;

// fig9_runtime's mega-park recipe: a small DTB ensemble trained on a
// default scenario (the same 11-feature stack) serving a ~1M-cell
// GenerateMegaPark park from a tiled-only snapshot whose feature-tile pool
// holds 64 MiB (~225 of its 361 tiles).
ModelSnapshot BuildMegaSnapshot(double* gen_ms) {
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
  CheckOrDie(model.Fit(BuildDataset(data.park, data.history), &rng).ok(),
             "perfbench: mega-park training failed");
  MegaParkConfig mega_cfg;
  mega_cfg.target_cells = kMegaCells;
  const auto t0 = Clock::now();
  Park mega = GenerateMegaPark(mega_cfg);
  *gen_ms = UsBetween(t0, Clock::now()) / 1000.0;
  TiledPlaneOptions tiled;
  tiled.pool_budget_bytes = kMegaPoolBytes;
  const int cells = mega.num_cells();
  return ModelSnapshot(std::move(model), std::move(mega),
                       std::vector<double>(cells, 0.0), tiled);
}

}  // namespace

double CoverageLayerB(int cell) {
  return 0.25 * static_cast<double>(1 + (static_cast<int64_t>(cell) * 7919) % 16);
}

std::unique_ptr<World> SetupWorld(Kind kind, double* setup_s) {
  const auto start = Clock::now();
  // The writer's coverage units are the benchmark's bookkeeping, not part
  // of the set-up being timed.
  double bookkeeping_us = 0.0;
  auto world = std::make_unique<World>();
  world->service = std::make_unique<ParkService>();
  auto add_park = [&](const std::string& id, ModelSnapshot snapshot,
                      bool tile_units) {
    const auto t0 = Clock::now();
    const int park = static_cast<int>(world->park_ids.size());
    world->coverage_a.push_back(snapshot.lagged_effort());
    if (tile_units) {
      world->num_tiles = snapshot.num_tiles();
      for (int t = 0; t < snapshot.num_tiles(); ++t) {
        World::CoverageUnit unit;
        unit.park = park;
        snapshot.tiled_plane().TileCellIds(snapshot.park(), t, &unit.cells);
        world->units.push_back(std::move(unit));
      }
    } else {
      World::CoverageUnit unit;
      unit.park = park;
      for (int c = 0; c < snapshot.park().num_cells(); ++c) {
        unit.cells.push_back(c);
      }
      world->units.push_back(std::move(unit));
    }
    world->park_ids.push_back(id);
    bookkeeping_us += UsBetween(t0, Clock::now());
    CheckOrDie(world->service->Register(id, std::move(snapshot)).ok(),
               "perfbench: register failed");
  };
  if (kind == Kind::kTilesCold) {
    add_park("mega", BuildMegaSnapshot(&world->park_gen_ms),
             /*tile_units=*/true);
  } else {
    for (int p = 0; p < kServeParks; ++p) {
      world->snapshot_bytes.push_back(TrainSmokeSnapshot(p));
      auto snapshot = ModelSnapshot::FromBytes(world->snapshot_bytes.back());
      CheckOrDie(snapshot.ok(), "perfbench: snapshot load failed");
      add_park("park-" + std::to_string(p), std::move(snapshot).value(),
               /*tile_units=*/false);
    }
  }

  world->server = std::make_unique<ParkServer>(world->service.get());
  CheckOrDie(world->server->Start(FrameServerOptions{}).ok(),
             "perfbench: server start failed");
  for (int c = 0; c < kConnections; ++c) {
    world->clients.push_back(std::make_unique<ParkClient>());
    CheckOrDie(
        world->clients.back()->Connect("127.0.0.1", world->server->port()).ok(),
        "perfbench: connect failed");
  }

  // Warm-up: serve_cached fills its risk-map and curve LRUs, so the timed
  // window starts from the steady state its traffic keeps.
  if (kind == Kind::kServeCached) {
    ParkClient& warm = *world->clients.front();
    for (const std::string& id : world->park_ids) {
      for (double effort : kServeEfforts) {
        CheckOrDie(warm.RiskMap(id, effort).ok(), "perfbench: warm-up failed");
      }
      CheckOrDie(warm.CellCurves(id, kCurveCells, kCurveGrid).ok(),
                 "perfbench: warm-up failed");
    }
  }
  *setup_s = (UsBetween(start, Clock::now()) - bookkeeping_us) / 1e6;
  return world;
}

std::unique_ptr<ModelSnapshot> BuildReferenceSnapshot(Kind kind,
                                                      const World& world,
                                                      int park) {
  if (kind == Kind::kTilesCold) {
    double gen_ms = 0.0;
    return std::make_unique<ModelSnapshot>(BuildMegaSnapshot(&gen_ms));
  }
  auto snapshot = ModelSnapshot::FromBytes(world.snapshot_bytes[park]);
  CheckOrDie(snapshot.ok(), "perfbench: reference snapshot load failed");
  return std::make_unique<ModelSnapshot>(std::move(snapshot).value());
}

double TimeSmokeParkGeneration() {
  const auto t0 = Clock::now();
  for (int p = 0; p < kServeParks; ++p) {
    const Park park = GenerateSyntheticPark(SmokeScenario(p).park);
    CheckOrDie(park.num_cells() > 0, "perfbench: empty park");
  }
  return UsBetween(t0, Clock::now()) / 1000.0;
}

}  // namespace perfbench

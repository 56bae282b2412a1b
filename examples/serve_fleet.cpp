// Multi-park serving walkthrough: one ParkService process answering
// risk-map, effort-curve and patrol-plan queries for a fleet of protected
// areas at once — the deployment shape of PAWS in the field.
//
//   example_serve_fleet [--smoke] [--parks N]
//
// The example trains one model per park preset (small synthetic parks),
// registers every park in a ParkService, then:
//   1. verifies each served risk map is bit-identical to the per-request
//      path (raster re-assembly + scoring) over the park's coverage layer,
//   2. measures repeated-risk-map latency — uncached per-request vs the
//      snapshot's tile pool (warm tile rows, fresh scoring) vs ParkService
//      LRU hits,
//   3. drives a mixed concurrent workload (readers + a coverage writer)
//      and reports throughput.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "serve/park_service.h"

namespace {

using namespace paws;

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Trains one small DTB model per fleet slot (presets cycled, seeds varied
// so every park is a genuinely different area) and serializes it to a
// snapshot byte string — the artifact a serving process would load.
std::string TrainParkSnapshot(int slot, bool smoke) {
  const ParkPreset presets[] = {ParkPreset::kMfnp, ParkPreset::kQenp,
                                ParkPreset::kSws};
  Scenario scenario =
      MakeScenario(presets[slot % 3], /*seed=*/17 + slot);
  if (smoke) {
    scenario.park.width = 24;
    scenario.park.height = 20;
    scenario.num_years = 3;
  }
  ScenarioData data = SimulateScenario(scenario, 100 + slot);
  IWareConfig cfg;
  cfg.weak_learner = WeakLearnerKind::kDecisionTreeBagging;
  cfg.num_thresholds = 4;
  cfg.cv_folds = 2;
  cfg.bagging.num_estimators = 5;
  cfg.bagging.balanced = presets[slot % 3] == ParkPreset::kSws;
  PawsPipeline pipeline(std::move(data), cfg);
  Rng rng(7 + slot);
  CheckOrDie(pipeline.Train(&rng).ok(), "serve_fleet: training failed");
  ArchiveWriter writer;
  pipeline.SaveModel(&writer);
  return writer.Bytes();
}

ModelSnapshot LoadSnapshot(const std::string& bytes) {
  auto snapshot = ModelSnapshot::FromBytes(bytes);
  CheckOrDie(snapshot.ok(), "serve_fleet: snapshot load failed");
  return std::move(snapshot).value();
}

// A history whose only step is the snapshot's coverage layer: at t = 1 the
// per-request path assembles exactly the rows the snapshot serves from.
PatrolHistory OneStep(const ModelSnapshot& snapshot) {
  PatrolHistory history;
  history.steps.emplace_back();
  history.steps.back().effort = snapshot.lagged_effort();
  return history;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int num_parks = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--parks") == 0 && i + 1 < argc) {
      num_parks = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--parks N]\n", argv[0]);
      return 2;
    }
  }
  CheckOrDie(num_parks >= 1, "serve_fleet: need at least one park");

  // --- Offline: train the fleet, once per park. -------------------------
  std::printf("training %d parks...\n", num_parks);
  const auto train_start = Clock::now();
  std::vector<std::string> snapshots;
  for (int p = 0; p < num_parks; ++p) {
    snapshots.push_back(TrainParkSnapshot(p, smoke));
  }
  std::printf("trained and snapshotted %d parks in %.0f ms\n\n", num_parks,
              MsSince(train_start));

  // --- Serving: one registry for the whole fleet. -----------------------
  ParkService service;
  for (int p = 0; p < num_parks; ++p) {
    const std::string id = "park-" + std::to_string(p);
    CheckOrDie(service.Register(id, LoadSnapshot(snapshots[p])).ok(),
               "serve_fleet: register failed");
  }
  std::printf("registered %d parks\n", service.num_parks());

  // 1. Bit-identity: the service must serve exactly what the per-request
  //    path computes from the park's snapshot.
  int total_cells = 0;
  for (int p = 0; p < num_parks; ++p) {
    const std::string id = "park-" + std::to_string(p);
    const ModelSnapshot direct = LoadSnapshot(snapshots[p]);
    total_cells += direct.park().num_cells();
    const auto served = service.RiskMap(id, 2.0);
    CheckOrDie(served.ok(), "serve_fleet: risk map failed");
    const RiskMaps want = PredictRiskMap(direct.model(), direct.park(),
                                         OneStep(direct), /*t=*/1, 2.0);
    CheckOrDie((*served)->risk == want.risk &&
                   (*served)->variance == want.variance,
               "serve_fleet: served map differs from the per-request path");
  }
  std::printf(
      "served risk maps for every park: bit-identical to per-request "
      "ModelSnapshot predictions (%d cells total)\n\n",
      total_cells);

  // 2. Repeated-risk-map latency, three serving depths on park-0.
  {
    const ModelSnapshot direct = LoadSnapshot(snapshots[0]);
    const Park& park = direct.park();
    const PatrolHistory one_step = OneStep(direct);
    const int reps = smoke ? 20 : 50;
    const auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      // The per-request path: re-assemble every cell's feature row from
      // the rasters, then score.
      const RiskMaps maps =
          PredictRiskMap(direct.model(), park, one_step, /*t=*/1, 2.0);
      (void)maps;
    }
    const double uncached_ms = MsSince(t0) / reps;
    const auto t1 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      const RiskMaps maps = direct.PredictRisk(2.0);  // warm tile rows
      (void)maps;
    }
    const double pool_ms = MsSince(t1) / reps;
    const auto t2 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      CheckOrDie(service.RiskMap("park-0", 2.0).ok(), "risk map failed");
    }
    const double cached_ms = MsSince(t2) / reps;
    std::printf("repeated risk map, park-0 (%d cells, %d reps):\n",
                park.num_cells(), reps);
    std::printf("  per-request re-assembly  %8.3f ms\n", uncached_ms);
    std::printf("  tile pool (no cache)     %8.3f ms  (%.1fx)\n", pool_ms,
                pool_ms > 0 ? uncached_ms / pool_ms : 0.0);
    std::printf("  ParkService LRU hit      %8.3f ms  (%.0fx)\n\n", cached_ms,
                cached_ms > 0 ? uncached_ms / cached_ms : 0.0);
  }

  // 3. Concurrent mixed workload: risk-map readers across the whole
  //    fleet, one curve reader, one coverage writer.
  {
    std::atomic<int> requests{0};
    std::atomic<bool> failed{false};
    const int per_thread = smoke ? 40 : 200;
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int worker = 0; worker < 3; ++worker) {
      threads.emplace_back([&, worker] {
        for (int i = 0; i < per_thread && !failed; ++i) {
          const std::string id =
              "park-" + std::to_string((worker + i) % num_parks);
          const double effort = 1.0 + (i % 3);
          if (!service.RiskMap(id, effort).ok()) failed = true;
          ++requests;
        }
      });
    }
    threads.emplace_back([&] {
      const std::vector<double> grid = UniformEffortGrid(0.0, 4.0, 10);
      for (int i = 0; i < per_thread / 4 && !failed; ++i) {
        if (!service.CellCurves("park-" + std::to_string(i % num_parks),
                                {0, 1, 2, 3}, grid)
                 .ok()) {
          failed = true;
        }
        ++requests;
      }
    });
    threads.emplace_back([&] {
      const ModelSnapshot direct = LoadSnapshot(snapshots[0]);
      std::vector<double> coverage = direct.lagged_effort();
      for (int i = 0; i < per_thread / 8 && !failed; ++i) {
        for (double& c : coverage) c = 0.1 * (i % 4);
        if (!service.UpdateCoverage("park-0", coverage).ok()) failed = true;
      }
    });
    for (auto& t : threads) t.join();
    const double wall_ms = MsSince(t0);
    CheckOrDie(!failed.load(), "serve_fleet: concurrent request failed");
    std::printf(
        "mixed concurrent workload: %d requests over %d parks in %.0f ms "
        "(%.0f req/s) with a live coverage writer\n",
        requests.load(), num_parks, wall_ms,
        1000.0 * requests.load() / wall_ms);
  }

  // Cache economics across the fleet.
  uint64_t hits = 0, misses = 0;
  for (const std::string& id : service.park_ids()) {
    const auto stats = service.RiskCacheStats(id);
    CheckOrDie(stats.ok(), "stats failed");
    hits += stats->hits;
    misses += stats->misses;
  }
  std::printf("risk-map cache: %llu hits / %llu misses (%.0f%% hit rate)\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses),
              hits + misses > 0 ? 100.0 * hits / (hits + misses) : 0.0);
  return 0;
}

// Elastic fleet: the kMapVersion handshake, FleetRouter's hot map reload
// (in-flight requests keep their routing state), FleetAdmin::MigrateParks
// (pull → push → verify → publish, with verify-before-advance), and read
// repair of a recovered-but-empty replica. The FleetElasticParallelTest
// suite resizes the fleet 3→4 under a multi-threaded hammer (CI runs it
// under TSan via the Parallel filter).
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "core/pipeline.h"
#include "fleet/fleet_admin.h"
#include "fleet/fleet_map.h"
#include "fleet/fleet_router.h"
#include "net/client.h"
#include "serve/park_server.h"

namespace paws {
namespace {

// Train-once fixture, same recipe as the FleetRouter suite.
class FleetElasticTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Scenario scenario = MakeScenario(ParkPreset::kMfnp, 3);
    scenario.park.width = 26;
    scenario.park.height = 22;
    scenario.num_years = 3;
    ScenarioData data = SimulateScenario(scenario, 5);
    IWareConfig cfg;
    cfg.num_thresholds = 3;
    cfg.cv_folds = 2;
    cfg.weak_learner = WeakLearnerKind::kDecisionTreeBagging;
    cfg.bagging.num_estimators = 4;
    IWareEnsemble model(cfg);
    Rng rng(7);
    const Dataset train = BuildDataset(data.park, data.history);
    CheckOrDie(model.Fit(train, &rng).ok(), "fixture fit failed");
    const int t = data.num_steps() - 1;
    ArchiveWriter writer;
    SaveModelSnapshotParts(model, data.park, data.history.steps[t - 1].effort,
                           &writer);
    bytes_ = new std::string(writer.Bytes());
  }
  static void TearDownTestSuite() { delete bytes_; }

  static ModelSnapshot MakeSnapshot() {
    auto snapshot = ModelSnapshot::FromBytes(*bytes_);
    CheckOrDie(snapshot.ok(), "fixture snapshot load failed");
    return std::move(snapshot).value();
  }

  struct Shard {
    std::unique_ptr<ParkService> service = std::make_unique<ParkService>();
    std::unique_ptr<ParkServer> server;

    int Start(int port = 0) {
      server = std::make_unique<ParkServer>(service.get());
      FrameServerOptions options;
      options.port = port;
      CheckOrDie(server->Start(std::move(options)).ok(),
                 "shard start failed");
      return server->port();
    }
  };

  // Brings up `n` empty shards and builds the version-1 FleetMap.
  FleetMap StartFleet(int n, int replication) {
    std::vector<FleetEndpoint> endpoints;
    for (int s = 0; s < n; ++s) {
      shards_.push_back(std::make_unique<Shard>());
      const int port = shards_.back()->Start();
      endpoints.push_back(FleetEndpoint{"127.0.0.1", port});
    }
    auto map = FleetMap::Create(endpoints, replication);
    CheckOrDie(map.ok(), "fixture map build failed");
    return std::move(map).value();
  }

  // Registers `park_id` on the first `count` shards (-1 = all started).
  void RegisterOn(const std::string& park_id, int count = -1) {
    if (count < 0) count = static_cast<int>(shards_.size());
    for (int s = 0; s < count; ++s) {
      CheckOrDie(shards_[s]->service->Register(park_id, MakeSnapshot()).ok(),
                 "fixture register failed");
    }
  }

  // Grows the map by one fresh shard, bumping the version.
  FleetMap GrownMap(const FleetMap& map) {
    shards_.push_back(std::make_unique<Shard>());
    const int port = shards_.back()->Start();
    std::vector<FleetEndpoint> endpoints = map.endpoints();
    endpoints.push_back(FleetEndpoint{"127.0.0.1", port});
    auto grown = FleetMap::Create(endpoints, map.replication(),
                                  map.version() + 1,
                                  map.vnodes_per_endpoint());
    CheckOrDie(grown.ok(), "fixture grown map build failed");
    return std::move(grown).value();
  }

  static FleetRouterOptions ManualProbes() {
    FleetRouterOptions options;
    options.enable_probe_thread = false;
    options.client.backoff_initial_ms = 5;
    return options;
  }

  // Park ids whose replica address set differs between the two maps.
  static std::vector<std::string> MovedParks(const FleetMap& before,
                                             const FleetMap& after, int want) {
    std::vector<std::string> ids;
    for (int p = 0; p < 10000 && static_cast<int>(ids.size()) < want; ++p) {
      const std::string id = "pk-" + std::to_string(p);
      if (ReplicaEndpoints(before, id) != ReplicaEndpoints(after, id)) {
        ids.push_back(id);
      }
    }
    CheckOrDie(static_cast<int>(ids.size()) == want,
               "no park ids move between the maps");
    return ids;
  }

  // A park id whose replica address set is identical in both maps.
  static std::string StationaryPark(const FleetMap& before,
                                    const FleetMap& after) {
    for (int p = 0; p < 10000; ++p) {
      const std::string id = "pk-" + std::to_string(p);
      if (ReplicaEndpoints(before, id) == ReplicaEndpoints(after, id)) {
        return id;
      }
    }
    CheckOrDie(false, "every park id moves between the maps");
    return "";
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  static std::string* bytes_;
};

std::string* FleetElasticTest::bytes_ = nullptr;

TEST_F(FleetElasticTest, MapVersionHandshakeAndPublishOrdering) {
  const FleetMap map = StartFleet(1, /*replication=*/1);
  ParkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", shards_[0]->server->port()).ok());

  // A fresh daemon has no map: version 0, no bytes shipped.
  auto handshake = client.MapVersion(0);
  ASSERT_TRUE(handshake.ok()) << handshake.status();
  EXPECT_EQ(handshake->version, 0u);
  EXPECT_FALSE(handshake->has_map);

  // Publish v3; a caller at v0 gets the bytes, a caller already at v3
  // gets only the version number (the handshake is cheap when current).
  auto v3 = FleetMap::Create(map.endpoints(), 1, /*version=*/3);
  ASSERT_TRUE(v3.ok());
  ASSERT_TRUE(client.SwapFleetMap(v3->ToBytes()).ok());
  EXPECT_EQ(shards_[0]->server->fleet_map_version(), 3u);
  handshake = client.MapVersion(0);
  ASSERT_TRUE(handshake.ok());
  EXPECT_EQ(handshake->version, 3u);
  ASSERT_TRUE(handshake->has_map);
  const auto shipped = FleetMap::FromBytes(handshake->map_bytes);
  ASSERT_TRUE(shipped.ok());
  EXPECT_EQ(shipped->version(), 3u);
  handshake = client.MapVersion(3);
  ASSERT_TRUE(handshake.ok());
  EXPECT_EQ(handshake->version, 3u);
  EXPECT_FALSE(handshake->has_map);

  // Version regressions are rejected: rollouts have a total order.
  auto v2 = FleetMap::Create(map.endpoints(), 1, /*version=*/2);
  ASSERT_TRUE(v2.ok());
  const Status regressed = client.SwapFleetMap(v2->ToBytes());
  ASSERT_FALSE(regressed.ok());
  EXPECT_EQ(regressed.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(client.SwapFleetMap("not a fleet map").ok());
  EXPECT_EQ(shards_[0]->server->fleet_map_version(), 3u);
}

TEST_F(FleetElasticTest, MigrateParksMovesVerifiesPublishesAndRoutersConverge) {
  const FleetMap map = StartFleet(3, /*replication=*/2);
  const FleetMap grown = GrownMap(map);
  const std::vector<std::string> moving = MovedParks(map, grown, 3);
  const std::string stationary = StationaryPark(map, grown);

  // Register on the three ORIGINAL shards only: the new shard starts
  // EMPTY, so the migration itself must move the artifacts (growing the
  // ring only ever *adds* the new endpoint to a changed park's replica
  // set, so every move targets it).
  std::vector<std::string> park_ids = moving;
  park_ids.push_back(stationary);
  for (const std::string& id : park_ids) RegisterOn(id, 3);
  ASSERT_EQ(shards_.back()->service->num_parks(), 0);

  // Ground truth before anything moves.
  const auto want = shards_[0]->service->RiskMap(moving[0], 1.0);
  ASSERT_TRUE(want.ok());

  // A router on the old map, mid-flight across the resize.
  FleetRouter router(map, ManualProbes());
  ASSERT_TRUE(router.RiskMap(moving[0], 1.0).ok());
  EXPECT_EQ(router.map_version(), map.version());

  FleetAdmin admin(&map);
  const MigrationReport report = admin.MigrateParks(grown, park_ids);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.parks_unchanged, 1u);
  ASSERT_EQ(report.moves.size(), moving.size());
  for (const auto& move : report.moves) {
    EXPECT_TRUE(move.ok) << move.park_id;
    EXPECT_TRUE(move.pull.ok()) << move.pull;
    ASSERT_GE(move.targets.size(), 1u);
    for (const auto& target : move.targets) {
      EXPECT_TRUE(target.push.ok()) << target.push;
      EXPECT_TRUE(target.verify.ok()) << target.verify;
    }
  }
  // Every daemon of the old∪new union stored the new generation.
  ASSERT_EQ(report.map_pushes.size(), shards_.size());
  for (const auto& push : report.map_pushes) {
    EXPECT_TRUE(push.push.ok()) << push.address;
  }
  for (const auto& shard : shards_) {
    EXPECT_EQ(shard->server->fleet_map_version(), grown.version());
  }
  // The moved artifacts landed on the new shard.
  EXPECT_EQ(shards_.back()->service->num_parks(),
            static_cast<int>(moving.size()));

  // The router converges via the kMapVersion handshake — no restart —
  // and serves the moved park bit-identically on the new map.
  EXPECT_EQ(router.CheckMapOnce(), 1);
  EXPECT_EQ(router.map_version(), grown.version());
  EXPECT_EQ(router.CheckMapOnce(), 0);  // already current
  const auto got = router.RiskMap(moving[0], 1.0);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->risk, (*want)->risk);
  EXPECT_EQ(got->variance, (*want)->variance);

  const FleetRouter::Stats stats = router.stats();
  EXPECT_EQ(stats.map_reloads, 1u);
  EXPECT_GE(stats.map_checks, 2u);
  EXPECT_EQ(stats.map_version, grown.version());

  // Reloading a non-advancing map is refused.
  const Status stale = router.ReloadMap(router.map_snapshot());
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.code(), StatusCode::kFailedPrecondition);
}

TEST_F(FleetElasticTest, FailedMigrationLeavesTheOldGenerationInForce) {
  const FleetMap map = StartFleet(2, /*replication=*/1);
  // The grown map's new endpoint is DEAD: every push to it must fail.
  const FleetMap grown = GrownMap(map);
  shards_.back()->server->Shutdown();

  const std::vector<std::string> moving = MovedParks(map, grown, 2);
  for (const std::string& id : moving) RegisterOn(id, 2);

  FleetAdmin admin(&map);
  const MigrationReport report = admin.MigrateParks(grown, moving);
  EXPECT_FALSE(report.ok);
  // Verify-before-advance: the new map was never published, so the fleet
  // stays on the old generation end to end.
  EXPECT_TRUE(report.map_pushes.empty());
  for (const auto& shard : shards_) {
    if (shard->server == nullptr || shard->server->port() < 0) continue;
    EXPECT_EQ(shard->server->fleet_map_version(), 0u);
  }

  // Routers on the old map neither reload nor lose the parks.
  FleetRouter router(map, ManualProbes());
  EXPECT_EQ(router.CheckMapOnce(), 0);
  EXPECT_EQ(router.map_version(), map.version());
  EXPECT_TRUE(router.RiskMap(moving[0], 1.0).ok());
}

TEST_F(FleetElasticTest, ReadRepairRestoresALostArtifactOnRecovery) {
  const FleetMap map = StartFleet(2, /*replication=*/2);
  // A park whose primary is shard 0 under this map.
  std::string park;
  for (int p = 0; p < 10000; ++p) {
    const std::string id = "pk-" + std::to_string(p);
    if (map.PreferredFor(id) == 0) {
      park = id;
      break;
    }
  }
  ASSERT_FALSE(park.empty());
  RegisterOn(park);
  const auto want = shards_[1]->service->RiskMap(park, 1.0);
  ASSERT_TRUE(want.ok());

  FleetRouter router(map, ManualProbes());
  ASSERT_TRUE(router.RiskMap(park, 1.0).ok());  // warm: primary serves

  // Kill the primary; the failover queues the park for read repair.
  const int port = shards_[0]->server->port();
  shards_[0]->server->Shutdown();
  ASSERT_TRUE(router.RiskMap(park, 1.0).ok());
  EXPECT_FALSE(router.endpoint_healthy(0));

  // The primary returns on its old port — but EMPTY, as if its disk was
  // replaced. The recovery probe must nudge it to re-pull the artifact
  // from the surviving replica before traffic returns to it.
  shards_[0] = std::make_unique<Shard>();
  ASSERT_EQ(shards_[0]->Start(port), port);
  ASSERT_EQ(shards_[0]->service->num_parks(), 0);

  EXPECT_EQ(router.ProbeOnce(/*force=*/true), 1);
  EXPECT_TRUE(router.endpoint_healthy(0));
  EXPECT_GE(router.stats().repair_nudges, 1u);
  EXPECT_EQ(shards_[0]->service->num_parks(), 1);

  // Traffic is back on the primary and bit-identical to the replica's
  // in-process result (the repaired artifact is the exact same bytes).
  const auto got = router.RiskMap(park, 1.0);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->risk, (*want)->risk);
  EXPECT_EQ(got->variance, (*want)->variance);
  const auto direct = shards_[0]->service->RiskMap(park, 1.0);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ((*direct)->risk, (*want)->risk);
}

// Concurrency suite: the name contains "Parallel" so CI's TSan job
// (-R "Parallel|ThreadPool") runs it under race detection.
using FleetElasticParallelTest = FleetElasticTest;

TEST_F(FleetElasticParallelTest, LiveResizeUnderMultiThreadedHammerIsInvisible) {
  const int kParks = 9;
  std::vector<std::string> park_ids;
  for (int p = 0; p < kParks; ++p) {
    park_ids.push_back("pk-" + std::to_string(p));
  }
  FleetMap map = StartFleet(3, /*replication=*/2);
  for (const std::string& id : park_ids) RegisterOn(id);

  const auto want = shards_[0]->service->RiskMap(park_ids[0], 1.0);
  ASSERT_TRUE(want.ok());

  // Probe thread ON with a fast map-refresh tick: the hot reload races
  // the request threads — exactly what TSan should see.
  FleetRouterOptions options;
  options.client.backoff_initial_ms = 5;
  options.map_refresh_ms = 25;
  FleetRouter router(map, options);

  constexpr int kThreads = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int c = 0; c < kThreads; ++c) {
    threads.emplace_back([&, c] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& park = park_ids[(c + i++) % kParks];
        const auto got = router.RiskMap(park, 1.0);
        if (!got.ok() || got->risk != (*want)->risk ||
            got->variance != (*want)->variance) {
          failures.fetch_add(1);
        } else {
          completed.fetch_add(1);
        }
      }
    });
  }

  // Mid-hammer: grow the fleet 3→4 and migrate. The new shard starts
  // empty; MigrateParks moves the artifacts and publishes v2, and the
  // router's background handshake hot-reloads without a restart.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const FleetMap grown = GrownMap(map);  // the new shard starts empty
  FleetAdmin admin(&map);
  const MigrationReport report = admin.MigrateParks(grown, park_ids);
  EXPECT_TRUE(report.ok);

  // Wait for the router to converge on the new generation under load.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (router.map_version() != grown.version() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  stop = true;
  for (auto& thread : threads) thread.join();

  // The resize was invisible: zero client-visible errors, bit-identical
  // responses throughout, and the router converged without restart.
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(completed.load(), 0u);
  EXPECT_EQ(router.map_version(), grown.version());
  const FleetRouter::Stats stats = router.stats();
  EXPECT_GE(stats.map_reloads, 1u);
  EXPECT_EQ(stats.exhausted, 0u);
}

}  // namespace
}  // namespace paws

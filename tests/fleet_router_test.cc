// FleetRouter + FleetAdmin: the fleet serving contract. Failover happens
// on transport errors only (application statuses are answers), a dead
// replica is invisible to clients (bit-identical responses keep coming
// from the survivors), probes bring recovered endpoints back, and a
// rollout that fails mid-fleet rolls the advanced replicas back. The
// FleetRouterParallelTest suite kills a shard under a multi-threaded
// hammer (CI runs it under TSan via the Parallel filter).
#include "fleet/fleet_router.h"

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
#include "net/client.h"
#include "net/fault_injector.h"
#include "serve/park_server.h"

namespace paws {
namespace {

TEST(JitteredBackoffTest, StaysInsideTheJitterBand) {
  // The anti-storm contract: every sleep lands in
  // [base * (1 - pct), base * (1 + pct)) — a ±20% band spreads a fleet's
  // synchronized reconnects across a 40% window.
  const int base = 1000;
  const double pct = 0.2;
  for (int i = 0; i < 1000; ++i) {
    const double u = i / 1000.0;
    const int ms = JitteredBackoffMs(base, pct, u);
    EXPECT_GE(ms, 800) << "u=" << u;
    EXPECT_LT(ms, 1200) << "u=" << u;
  }
  // The band edges and the degenerate cases.
  EXPECT_EQ(JitteredBackoffMs(base, pct, 0.0), 800);
  EXPECT_EQ(JitteredBackoffMs(base, /*jitter_pct=*/0.0, 0.73), base);
  EXPECT_EQ(JitteredBackoffMs(0, pct, 0.5), 0);
  EXPECT_EQ(JitteredBackoffMs(-5, pct, 0.5), 0);
}

// Train-once fixture, same recipe as the ParkServer suite: one small DTB
// snapshot serialized to bytes, rebuilt per test.
class FleetRouterTest : public ::testing::Test {
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

  // A shard: in-process service + server on an ephemeral port.
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

  // Brings up `n` shards, each serving `park_ids` from the fixture
  // snapshot, and builds the matching FleetMap.
  FleetMap StartFleet(int n, int replication,
                      const std::vector<std::string>& park_ids) {
    std::vector<FleetEndpoint> endpoints;
    for (int s = 0; s < n; ++s) {
      shards_.push_back(std::make_unique<Shard>());
      const int port = shards_.back()->Start();
      for (const std::string& id : park_ids) {
        CheckOrDie(
            shards_.back()->service->Register(id, MakeSnapshot()).ok(),
            "fixture register failed");
      }
      endpoints.push_back(FleetEndpoint{"127.0.0.1", port});
    }
    auto map = FleetMap::Create(endpoints, replication);
    CheckOrDie(map.ok(), "fixture map build failed");
    return std::move(map).value();
  }

  // Probe-thread-free router options: tests drive ProbeOnce directly.
  static FleetRouterOptions ManualProbes() {
    FleetRouterOptions options;
    options.enable_probe_thread = false;
    options.client.backoff_initial_ms = 5;
    return options;
  }

  // A park id whose primary replica is `endpoint_index` under `map`.
  static std::string ParkWithPrimary(const FleetMap& map, int endpoint_index) {
    for (int p = 0; p < 10000; ++p) {
      const std::string id = "pk-" + std::to_string(p);
      if (map.PreferredFor(id) == endpoint_index) return id;
    }
    CheckOrDie(false, "no park id maps to the endpoint");
    return "";
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  static std::string* bytes_;
};

std::string* FleetRouterTest::bytes_ = nullptr;

TEST_F(FleetRouterTest, ApplicationStatusesAreAnswersNotFailovers) {
  const FleetMap map = StartFleet(2, /*replication=*/2, {"pk-0"});
  FleetRouter router(map, ManualProbes());

  // NotFound comes from a healthy primary; retrying it on the other
  // replica would yield the same NotFound and triple the latency. The
  // router must return it as-is and keep the endpoint healthy.
  const auto ghost = router.RiskMap("ghost", 1.0);
  ASSERT_FALSE(ghost.ok());
  EXPECT_EQ(ghost.status().code(), StatusCode::kNotFound);

  // InvalidArgument likewise.
  EXPECT_EQ(router.CellCurves("pk-0", {0}, {}).status().code(),
            StatusCode::kInvalidArgument);

  const FleetRouter::Stats stats = router.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.transport_errors, 0u);
  EXPECT_EQ(stats.exhausted, 0u);
  EXPECT_TRUE(router.endpoint_healthy(0));
  EXPECT_TRUE(router.endpoint_healthy(1));
}

TEST_F(FleetRouterTest, DeadPrimaryFailsOverBitIdenticallyAndProbeRecovers) {
  const FleetMap map = StartFleet(2, /*replication=*/2, {});
  const int primary = 0;
  const std::string park = ParkWithPrimary(map, primary);
  const int secondary = map.ReplicasFor(park)[1];
  for (auto& shard : shards_) {
    ASSERT_TRUE(shard->service->Register(park, MakeSnapshot()).ok());
  }
  // The in-process reference result the wire path must match bit for bit.
  const auto want = shards_[secondary]->service->RiskMap(park, 2.0);
  ASSERT_TRUE(want.ok());

  FleetRouter router(map, ManualProbes());
  ASSERT_TRUE(router.RiskMap(park, 2.0).ok());  // warm: served by primary

  const int primary_port = shards_[primary]->server->port();
  shards_[primary]->server->Shutdown();

  // The kill is invisible: the request fails over to the secondary and
  // the response is still bit-identical to the in-process result.
  const auto got = router.RiskMap(park, 2.0);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->risk, (*want)->risk);
  EXPECT_EQ(got->variance, (*want)->variance);

  FleetRouter::Stats stats = router.stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_GE(stats.transport_errors, 1u);
  EXPECT_EQ(stats.exhausted, 0u);
  EXPECT_FALSE(router.endpoint_healthy(primary));
  EXPECT_TRUE(router.endpoint_healthy(secondary));

  // While the shard stays down, probes fail and the endpoint stays out.
  EXPECT_EQ(router.ProbeOnce(/*force=*/true), 0);
  EXPECT_FALSE(router.endpoint_healthy(primary));

  // Subsequent requests skip the dead primary without new transport
  // errors (it left the preference order).
  const uint64_t errors_before = router.stats().transport_errors;
  ASSERT_TRUE(router.RiskMap(park, 2.0).ok());
  EXPECT_EQ(router.stats().transport_errors, errors_before);

  // The shard comes back on its old port; a forced probe readmits it and
  // traffic returns to the primary.
  shards_[primary]->server = nullptr;  // release the port first
  ASSERT_EQ(shards_[primary]->Start(primary_port), primary_port);
  EXPECT_EQ(router.ProbeOnce(/*force=*/true), 1);
  EXPECT_TRUE(router.endpoint_healthy(primary));
  EXPECT_EQ(router.stats().probe_recoveries, 1u);

  const uint64_t primary_served =
      router.stats().per_endpoint_requests[primary];
  ASSERT_TRUE(router.RiskMap(park, 2.0).ok());
  EXPECT_EQ(router.stats().per_endpoint_requests[primary],
            primary_served + 1);
}

TEST_F(FleetRouterTest, AllReplicasDownIsExhaustedNotHung) {
  const FleetMap map = StartFleet(2, /*replication=*/2, {"pk-0"});
  FleetRouter router(map, ManualProbes());
  ASSERT_TRUE(router.RiskMap("pk-0", 1.0).ok());

  shards_[0]->server->Shutdown();
  shards_[1]->server->Shutdown();

  const auto got = router.RiskMap("pk-0", 1.0);
  ASSERT_FALSE(got.ok());
  const FleetRouter::Stats stats = router.stats();
  EXPECT_EQ(stats.exhausted, 1u);
  EXPECT_GE(stats.transport_errors, 2u);  // both replicas were attempted
  EXPECT_FALSE(router.endpoint_healthy(0));
  EXPECT_FALSE(router.endpoint_healthy(1));
}

TEST_F(FleetRouterTest, AllReplicasDownErrorTaxonomyAndImmediateRecovery) {
  const FleetMap map = StartFleet(2, /*replication=*/2, {"pk-0"});
  FleetRouterOptions options = ManualProbes();
  // A wide-open breaker window: recovery must come from the probe
  // closing the breaker, never from waiting the window out.
  options.breaker_failure_threshold = 2;
  options.breaker_open_ms = 60000;
  FleetRouter router(map, options);
  ASSERT_TRUE(router.RiskMap("pk-0", 1.0).ok());

  const int port0 = shards_[0]->server->port();
  shards_[0]->server->Shutdown();
  shards_[1]->server->Shutdown();

  // Error taxonomy with the whole fleet dark: every failure is
  // TRANSPORT-grade (Internal / ResourceExhausted), names the park, and
  // is never dressed up as an application answer like NotFound.
  for (int i = 0; i < 3; ++i) {
    const auto got = router.RiskMap("pk-0", 1.0);
    ASSERT_FALSE(got.ok());
    EXPECT_TRUE(got.status().code() == StatusCode::kInternal ||
                got.status().code() == StatusCode::kResourceExhausted)
        << got.status();
    EXPECT_NE(got.status().message().find("pk-0"), std::string::npos)
        << got.status();
  }
  const FleetRouter::Stats down = router.stats();
  EXPECT_EQ(down.exhausted, 3u);
  EXPECT_EQ(down.transport_errors, 6u);  // 2 replicas × 3 requests
  // Two failures per endpoint tripped both breakers; the third request
  // shed them in pass 0 and reached them via the last-last-resort pass.
  EXPECT_EQ(down.breaker_opens, 2u);
  EXPECT_GE(down.breaker_shed, 2u);

  // One shard returns; a forced probe readmits it, closes its breaker,
  // and the VERY NEXT request succeeds — recovery is immediate, not
  // breaker_open_ms later.
  shards_[0]->server = nullptr;
  ASSERT_EQ(shards_[0]->Start(port0), port0);
  EXPECT_EQ(router.ProbeOnce(/*force=*/true), 1);
  EXPECT_TRUE(router.endpoint_healthy(0));
  EXPECT_GE(router.stats().probe_recoveries, 1u);
  ASSERT_TRUE(router.RiskMap("pk-0", 1.0).ok());

  // And the taxonomy's other half: an APPLICATION status from the
  // recovered shard comes back verbatim — not a failover, not transport.
  const auto ghost = router.RiskMap("ghost", 1.0);
  ASSERT_FALSE(ghost.ok());
  EXPECT_EQ(ghost.status().code(), StatusCode::kNotFound);
}

TEST_F(FleetRouterTest, RequestDeadlinePropagatesAcrossFailoverAttempts) {
  const FleetMap map = StartFleet(2, /*replication=*/2, {"pk-0"});
  // Stall every response: without a deadline each attempt would burn the
  // full 10 s per-request client timeout, twice.
  FaultSchedule schedule;
  FaultRule stall;
  stall.kind = FaultKind::kStallRecv;
  schedule.rules.push_back(stall);

  FleetRouterOptions options = ManualProbes();
  options.client.fault_injector = std::make_shared<FaultInjector>(schedule);
  options.request_deadline_ms = 250;
  FleetRouter router(map, options);

  const auto start = std::chrono::steady_clock::now();
  const auto got = router.RiskMap("pk-0", 1.0);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
  // The deadline bounded the WHOLE request including its failover
  // attempt, an order of magnitude under the per-attempt timeout.
  EXPECT_GE(elapsed, 200);
  EXPECT_LT(elapsed, 5000);
  EXPECT_EQ(router.stats().deadline_exceeded, 1u);
}

TEST_F(FleetRouterTest, RetryBudgetDegradesADeadFleetToSingleAttempts) {
  const FleetMap map = StartFleet(2, /*replication=*/2, {"pk-0"});
  FleetRouterOptions options = ManualProbes();
  options.retry_budget_initial = 2.0;
  options.retry_budget_ratio = 0.0;  // nothing refills: the bucket drains
  options.breaker_failure_threshold = 0;  // isolate the budget policy
  FleetRouter router(map, options);
  shards_[0]->server->Shutdown();
  shards_[1]->server->Shutdown();

  for (int i = 0; i < 5; ++i) {
    const auto got = router.RiskMap("pk-0", 1.0);
    ASSERT_FALSE(got.ok());
  }
  const FleetRouter::Stats stats = router.stats();
  // Requests 1-2 afford a failover retry each (2 tokens); from request 3
  // the router degrades to ONE attempt per request instead of
  // multiplying the dead fleet's connect latency by the replica count.
  EXPECT_EQ(stats.transport_errors, 7u);  // 2 + 2 + 1 + 1 + 1
  EXPECT_EQ(stats.exhausted, 2u);
  EXPECT_EQ(stats.retry_budget_exhausted, 3u);
}

TEST_F(FleetRouterTest, SuccessesRefillTheRetryBudget) {
  const FleetMap map = StartFleet(2, /*replication=*/2, {"pk-0"});
  FleetRouterOptions options = ManualProbes();
  options.retry_budget_initial = 1.0;
  options.retry_budget_ratio = 1.0;  // every success funds one retry
  options.breaker_failure_threshold = 0;
  FleetRouter router(map, options);

  // Drain the single token: with both shards down, request 1 uses it.
  shards_[0]->server->Shutdown();
  shards_[1]->server->Shutdown();
  ASSERT_FALSE(router.RiskMap("pk-0", 1.0).ok());
  ASSERT_FALSE(router.RiskMap("pk-0", 1.0).ok());
  ASSERT_EQ(router.stats().retry_budget_exhausted, 1u);

  // Both shards return; successful traffic refills the bucket...
  const int port0 = shards_[0]->server->port();
  const int port1 = shards_[1]->server->port();
  shards_[0]->server = nullptr;
  shards_[1]->server = nullptr;
  ASSERT_EQ(shards_[0]->Start(port0), port0);
  ASSERT_EQ(shards_[1]->Start(port1), port1);
  EXPECT_EQ(router.ProbeOnce(/*force=*/true), 2);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(router.RiskMap("pk-0", 1.0).ok());
  }

  // ...so the next dark spell affords failover retries again.
  shards_[0]->server->Shutdown();
  shards_[1]->server->Shutdown();
  const uint64_t errors_before = router.stats().transport_errors;
  ASSERT_FALSE(router.RiskMap("pk-0", 1.0).ok());
  EXPECT_EQ(router.stats().transport_errors, errors_before + 2);
}

TEST_F(FleetRouterTest, EndpointStatsAddressesOneEndpoint) {
  const FleetMap map = StartFleet(2, /*replication=*/1, {"pk-0"});
  FleetRouter router(map, ManualProbes());
  const auto stats = router.EndpointStats(1);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_FALSE(router.EndpointStats(-1).ok());
  EXPECT_FALSE(router.EndpointStats(2).ok());
}

// A rollout pushes and verifies each replica over one connection.
TEST_F(FleetRouterTest, AdminPushesAndVerifiesEachReplicaOverOneConnection) {
  const FleetMap map = StartFleet(2, /*replication=*/2, {});
  FleetAdmin admin(&map);
  const RolloutReport report = admin.RolloutSnapshot("pk-one", *bytes_);
  ASSERT_TRUE(report.ok);
  for (const auto& shard : shards_) {
    EXPECT_EQ(shard->server->net_stats().accepted_connections, 1u);
  }
}

TEST_F(FleetRouterTest, AdminRolloutUpsertsVerifiesAndRollsBack) {
  // Two empty shards: the rollout itself bootstraps them over the wire.
  const FleetMap map = StartFleet(2, /*replication=*/2, {});
  const std::string park = "pk-roll";
  FleetAdmin admin(&map);

  const RolloutReport ok_report = admin.RolloutSnapshot(park, *bytes_);
  ASSERT_TRUE(ok_report.ok);
  ASSERT_EQ(ok_report.replicas.size(), 2u);
  for (const auto& replica : ok_report.replicas) {
    EXPECT_TRUE(replica.push.ok());
    EXPECT_TRUE(replica.verify.ok());
    EXPECT_FALSE(replica.rolled_back);
  }
  EXPECT_EQ(shards_[0]->service->num_parks(), 1);
  EXPECT_EQ(shards_[1]->service->num_parks(), 1);

  // The exposed verify primitive: a park the replica does not serve
  // fails verification (the failure mode is a NotFound read-back).
  EXPECT_FALSE(admin.VerifyReplica(0, "pk-ghost", *bytes_).ok());

  // Kill the park's SECOND replica: the rollout advances the first,
  // fails on the second, and must roll the first back to the previous
  // artifact rather than leave the fleet split.
  const std::vector<int> replicas = map.ReplicasFor(park);
  shards_[replicas[1]]->server->Shutdown();
  const RolloutReport failed = admin.RolloutSnapshot(
      park, *bytes_, /*previous_snapshot_bytes=*/*bytes_);
  EXPECT_FALSE(failed.ok);
  ASSERT_EQ(failed.replicas.size(), 2u);
  EXPECT_TRUE(failed.replicas[0].push.ok());
  EXPECT_TRUE(failed.replicas[0].verify.ok());
  EXPECT_FALSE(failed.replicas[1].push.ok());
  EXPECT_TRUE(failed.rollback_attempted);
  EXPECT_TRUE(failed.rollback_ok);
  EXPECT_TRUE(failed.replicas[0].rolled_back);
  // The surviving replica still serves the (previous) artifact.
  EXPECT_TRUE(
      admin.VerifyReplica(replicas[0], park, *bytes_).ok());

  // Without a previous artifact there is nothing to roll back to.
  const RolloutReport no_prev = admin.RolloutSnapshot(park, *bytes_);
  EXPECT_FALSE(no_prev.ok);
  EXPECT_FALSE(no_prev.rollback_attempted);
}

// Concurrency suite: the name contains "Parallel" so CI's TSan job
// (-R "Parallel|ThreadPool") runs it under race detection.
using FleetRouterParallelTest = FleetRouterTest;

TEST_F(FleetRouterParallelTest, ShardKillUnderMultiThreadedHammerIsInvisible) {
  const int kParks = 9;
  std::vector<std::string> park_ids;
  for (int p = 0; p < kParks; ++p) {
    park_ids.push_back("pk-" + std::to_string(p));
  }
  const FleetMap map = StartFleet(3, /*replication=*/2, park_ids);
  // Background probes stay ON here: the probe thread racing request
  // threads is exactly what TSan should see.
  FleetRouter router(map);

  const auto want = shards_[0]->service->RiskMap(park_ids[0], 1.0);
  ASSERT_TRUE(want.ok());

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

  // Let the hammer settle on all three shards, then kill the primary of
  // a park the threads definitely query — guaranteeing the failover path
  // runs no matter how the ephemeral ports hashed onto the ring.
  const int victim = map.PreferredFor(park_ids[0]);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  shards_[victim]->server->Shutdown();
  std::this_thread::sleep_for(std::chrono::milliseconds(350));
  stop = true;
  for (auto& thread : threads) thread.join();

  const FleetRouter::Stats stats = router.stats();
  // The contract the CI fleet smoke asserts at scale: zero client-visible
  // errors, bit-identical results throughout, and the kill actually
  // exercised the failover path.
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(completed.load(), 0u);
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_GE(stats.transport_errors, 1u);
  EXPECT_EQ(stats.exhausted, 0u);
  EXPECT_FALSE(router.endpoint_healthy(victim));
}

}  // namespace
}  // namespace paws

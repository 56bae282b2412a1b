// Chaos suite: a seeded FaultSchedule shared by every connection of a
// FleetRouter fleet. The contract under fire: faults may cost *requests*
// (transport-grade errors) but never *answers* — every OK response is
// bit-identical to the in-process ground truth, and every failure carries
// a transport-grade status, never a fabricated application answer. A
// second suite replays the identical schedule against the same fleet and
// asserts the injector fingerprints match. A fleet's fault decisions
// depend on its {seed, schedule} pair and on its ring layout, which that
// test pins, so a chaos failure reproduces from the seed in any process.
// CI runs the whole file under a PAWS_CHAOS_SEED matrix.
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "core/pipeline.h"
#include "fleet/fleet_map.h"
#include "fleet/fleet_router.h"
#include "net/client.h"
#include "net/fault_injector.h"
#include "serve/park_server.h"

namespace paws {
namespace {

// The CI seed matrix knob; each seed is a different — but reproducible —
// chaos universe.
uint64_t ChaosSeed() {
  const char* env = std::getenv("PAWS_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return std::strtoull(env, nullptr, 10);
}

// Train-once fixture, same recipe as the FleetRouter suite.
class ChaosTest : public ::testing::Test {
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

  std::vector<std::unique_ptr<Shard>> shards_;
  static std::string* bytes_;
};

std::string* ChaosTest::bytes_ = nullptr;

// A rule helper: `kind` with probability `p`, any endpoint, any opcode.
FaultRule Coin(FaultKind kind, double p, uint64_t param = 0) {
  FaultRule rule;
  rule.kind = kind;
  rule.param = param;
  rule.probability = p;
  return rule;
}

TEST_F(ChaosTest, SeededChaosCostsRequestsButNeverCorruptsAnswers) {
  const std::vector<std::string> park_ids = {"pk-0", "pk-1", "pk-2",
                                             "pk-3", "pk-4", "pk-5"};
  const FleetMap map = StartFleet(3, /*replication=*/2, park_ids);

  // In-process ground truth per park (every shard serves the identical
  // artifact, so shard 0's local result is THE answer).
  std::vector<std::shared_ptr<const RiskMaps>> want;
  for (const std::string& id : park_ids) {
    auto truth = shards_[0]->service->RiskMap(id, 1.0);
    ASSERT_TRUE(truth.ok());
    want.push_back(*truth);
  }

  // The storm. Corrupt-send targets byte 5 — inside the frame HEADER —
  // so the server breaks framing and closes (a transport error the
  // router fails over); corrupting the payload instead would be answered
  // by the server's own CRC with an application status. Corrupt-recv
  // targets the response header for the mirror-image reason.
  FaultSchedule schedule;
  schedule.seed = ChaosSeed();
  schedule.rules.push_back(Coin(FaultKind::kConnectRefuse, 0.10));
  schedule.rules.push_back(Coin(FaultKind::kTruncateSend, 0.05, 20));
  schedule.rules.push_back(Coin(FaultKind::kCorruptSend, 0.05, 5));
  schedule.rules.push_back(Coin(FaultKind::kReset, 0.05));
  schedule.rules.push_back(Coin(FaultKind::kChunkSend, 0.20, 7));
  schedule.rules.push_back(Coin(FaultKind::kSendDelay, 0.10, 1));
  schedule.rules.push_back(Coin(FaultKind::kCorruptRecv, 0.05, 3));
  schedule.rules.push_back(Coin(FaultKind::kStallRecv, 0.02));
  auto injector = std::make_shared<FaultInjector>(schedule);

  FleetRouterOptions options;
  options.enable_probe_thread = false;
  options.client.fault_injector = injector;
  options.client.backoff_initial_ms = 5;
  options.client.request_timeout_ms = 300;  // keep injected stalls cheap
  options.request_deadline_ms = 2000;
  options.retry_budget_initial = 500;  // chaos at this rate is not the
  options.retry_budget_cap = 1000;     // degradation policy under test
  FleetRouter router(map, options);

  const int kRequests = 150;
  int successes = 0;
  int mismatches = 0;
  int wrong_taxonomy = 0;
  for (int i = 0; i < kRequests; ++i) {
    const std::string& park = park_ids[i % park_ids.size()];
    const auto got = router.RiskMap(park, 1.0);
    if (got.ok()) {
      ++successes;
      if (got->risk != want[i % park_ids.size()]->risk ||
          got->variance != want[i % park_ids.size()]->variance) {
        ++mismatches;
      }
    } else if (got.status().message().find("fleet:") == std::string::npos) {
      // Every routed failure is wrapped with a "fleet:" prefix; an
      // unwrapped status here would be an application answer (e.g. a
      // kNotFound fabricated by a corrupted request) leaking through.
      ++wrong_taxonomy;
    }
    if (i % 5 == 4) router.ProbeOnce(/*force=*/true);
  }

  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(wrong_taxonomy, 0);
  EXPECT_GT(injector->total_fired(), 0u);
  // Replication 2 + failover absorbs the storm: most requests still land.
  EXPECT_GT(successes, kRequests / 2);
}

TEST_F(ChaosTest, ChaosRunReproducesFromSeedAndScheduleBytesAlone) {
  // The shards bind ephemeral ports and the ring hashes "host:port#k", so
  // which shard is pk-0's primary changes from process to process, while
  // ProbeOnce walks endpoints in map order. Listing pk-0's primary first
  // gives every process the same layout; placement does not move, because
  // the reordered map hashes the same endpoint strings.
  const FleetMap fleet = StartFleet(2, /*replication=*/2, {"pk-0"});
  const int primary = fleet.ReplicasFor("pk-0")[0];
  std::vector<FleetEndpoint> endpoints = fleet.endpoints();
  std::swap(endpoints[0], endpoints[primary]);
  auto pinned = FleetMap::Create(endpoints, /*replication=*/2);
  ASSERT_TRUE(pinned.ok()) << pinned.status();
  const FleetMap& map = *pinned;
  ASSERT_EQ(map.ReplicasFor("pk-0")[0], 0);

  // Connect/send faults only: the client performs exactly one connect
  // and one send per attempt, so the operation sequence the injector
  // sees is a pure function of its own decisions. (Recv-side faults are
  // covered above and in fault_injector_test; their operation count
  // depends on kernel read fragmentation, which no schedule controls.)
  FaultSchedule schedule;
  schedule.seed = ChaosSeed();
  schedule.rules.push_back(Coin(FaultKind::kConnectRefuse, 0.15));
  schedule.rules.push_back(Coin(FaultKind::kTruncateSend, 0.10, 20));
  schedule.rules.push_back(Coin(FaultKind::kCorruptSend, 0.10, 2));
  schedule.rules.push_back(Coin(FaultKind::kReset, 0.10));
  schedule.rules.push_back(Coin(FaultKind::kChunkSend, 0.30, 5));
  const std::string schedule_bytes = schedule.ToBytes();

  // One run: a fresh injector (rebuilt from the serialized schedule) and
  // a fresh router against the SAME live fleet, driving the identical
  // request sequence. Returns the injector's audit trail.
  const auto run = [&](std::string* fingerprint,
                       std::vector<std::string>* events) {
    const auto rebuilt = FaultSchedule::FromBytes(schedule_bytes);
    ASSERT_TRUE(rebuilt.ok());
    auto injector = std::make_shared<FaultInjector>(*rebuilt);
    FleetRouterOptions options;
    options.enable_probe_thread = false;
    options.client.fault_injector = injector;
    options.client.backoff_initial_ms = 5;
    options.client.request_timeout_ms = 500;
    options.breaker_failure_threshold = 0;  // the breaker's open window
                                            // is wall-clock, not schedule
    options.retry_budget_initial = 500;
    options.retry_budget_cap = 1000;
    FleetRouter router(map, options);
    for (int i = 0; i < 40; ++i) {
      (void)router.RiskMap("pk-0", 1.0);
      if (i % 10 == 9) router.ProbeOnce(/*force=*/true);
    }
    *fingerprint = injector->Fingerprint();
    *events = injector->EventLog();
    EXPECT_GT(injector->total_fired(), 0u);
  };

  std::string fingerprint_a, fingerprint_b;
  std::vector<std::string> events_a, events_b;
  run(&fingerprint_a, &events_a);
  run(&fingerprint_b, &events_b);

  // The reproduction guarantee: identical {seed, schedule} → identical
  // fault decisions, event for event.
  EXPECT_EQ(fingerprint_a, fingerprint_b);
  EXPECT_EQ(events_a, events_b);
}

TEST_F(ChaosTest, ShortReadAndShortWriteWindowsAreInvisible) {
  // Satellite regression for the EINTR/partial-IO audit: cap the server
  // to 7-byte reads and 5-byte writes (forcing thousands of partial-IO
  // resumptions per frame) and chunk the client's sends to 3 bytes. The
  // response must still be bit-identical — reassembly is correctness
  // machinery, not best-effort.
  auto service = std::make_unique<ParkService>();
  ASSERT_TRUE(service->Register("pk-0", MakeSnapshot()).ok());
  ParkServer server(service.get());
  FrameServerOptions server_options;
  server_options.port = 0;
  server_options.max_read_bytes_for_test = 7;
  server_options.max_write_bytes_for_test = 5;
  ASSERT_TRUE(server.Start(std::move(server_options)).ok());

  const auto want = service->RiskMap("pk-0", 1.5);
  ASSERT_TRUE(want.ok());

  FaultSchedule schedule;
  schedule.rules.push_back(Coin(FaultKind::kChunkSend, 1.0, 3));
  ClientOptions client_options;
  client_options.fault_injector = std::make_shared<FaultInjector>(schedule);
  ParkClient client(client_options);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  const auto got = client.RiskMap("pk-0", 1.5);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->risk, (*want)->risk);
  EXPECT_EQ(got->variance, (*want)->variance);

  // A second round trip on the same connection: the byte-dribble windows
  // leave no residue in either peer's parser state.
  const auto stats = client.Stats("pk-0");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->frames_in, 2u);
}

}  // namespace
}  // namespace paws

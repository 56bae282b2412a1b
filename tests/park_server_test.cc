// ParkServer: the network front end. The serving contract is that every
// artifact fetched over a loopback socket is bit-identical to calling the
// in-process ParkService directly — framing, archive encoding and the
// client library must be fully transparent. Malformed input at every
// layer (broken framing, bad payloads, unknown opcodes) must produce a
// clean error or connection close, never UB; the ParkServerParallelTest
// suite hammers one server from many client threads (CI runs it under
// TSan via the Parallel filter).
#include "serve/park_server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "core/pipeline.h"
#include "net/client.h"
#include "wide_snapshot.h"

namespace paws {
namespace {

PlannerConfig TinyPlanner() {
  PlannerConfig config;
  config.horizon = 6;
  config.num_patrols = 2;
  config.pwl_segments = 5;
  config.milp.max_nodes = 10;
  return config;
}

ClientOptions FastClient() {
  ClientOptions options;
  options.connect_timeout_ms = 2000;
  options.request_timeout_ms = 30000;
  options.max_connect_attempts = 2;
  options.backoff_initial_ms = 10;
  return options;
}

// Same train-once fixture as the ParkService suite: one small DTB
// snapshot serialized to bytes, rebuilt per test.
class ParkServerTest : public ::testing::Test {
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

  void StartServer(ParkService* service, FrameServerOptions options = {}) {
    server_ = std::make_unique<ParkServer>(service);
    options.port = 0;
    const Status started = server_->Start(std::move(options));
    CheckOrDie(started.ok(), "server start failed");
  }

  std::unique_ptr<ParkServer> server_;
  static std::string* bytes_;
};

std::string* ParkServerTest::bytes_ = nullptr;

// A blocking loopback connection for sending raw (malformed) bytes.
class RawConn {
 public:
  explicit RawConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    CheckOrDie(fd_ >= 0, "raw socket failed");
    struct sockaddr_in addr;
    ::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    CheckOrDie(::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                         sizeof(addr)) == 0,
               "raw connect failed");
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, 0);
      CheckOrDie(n > 0, "raw send failed");
      sent += static_cast<size_t>(n);
    }
  }

  /// Reads until EOF; returns everything received.
  std::string RecvUntilClosed() {
    std::string got;
    char buf[4096];
    while (true) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      got.append(buf, static_cast<size_t>(n));
    }
    return got;
  }

  /// Reads until `n` whole frames have arrived or the peer closes.
  std::vector<Frame> RecvFrames(size_t n) {
    FrameParser parser;
    std::vector<Frame> frames;
    char buf[64 * 1024];
    while (frames.size() < n) {
      Frame frame;
      const StatusOr<bool> got = parser.Next(&frame);
      CheckOrDie(got.ok(), "raw response stream broken");
      if (*got) {
        frames.push_back(std::move(frame));
        continue;
      }
      const ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
      if (r <= 0) break;
      parser.Append(buf, static_cast<size_t>(r));
    }
    return frames;
  }

  /// Ends this side's sending; the server reads EOF but can still answer.
  void ShutdownWrite() {
    CheckOrDie(::shutdown(fd_, SHUT_WR) == 0, "raw shutdown failed");
  }

 private:
  int fd_ = -1;
};

Frame RequestFrame(uint64_t request_id, Opcode opcode, std::string payload) {
  Frame frame;
  frame.request_id = request_id;
  frame.opcode = static_cast<uint32_t>(opcode);
  frame.payload = std::move(payload);
  return frame;
}

TEST_F(ParkServerTest, LoopbackResultsAreBitIdenticalToDirectCalls) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  StartServer(&service);

  ParkClient client(FastClient());
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  // RiskMap: every double equals the in-process result bit for bit.
  const auto direct_risk = service.RiskMap("p", 2.0);
  ASSERT_TRUE(direct_risk.ok());
  const auto wire_risk = client.RiskMap("p", 2.0);
  ASSERT_TRUE(wire_risk.ok()) << wire_risk.status();
  EXPECT_EQ(wire_risk->risk, (*direct_risk)->risk);
  EXPECT_EQ(wire_risk->variance, (*direct_risk)->variance);
  EXPECT_EQ(wire_risk->assumed_effort, (*direct_risk)->assumed_effort);

  // CellCurves.
  const std::vector<int> cells = {0, 3, 11};
  const std::vector<double> grid = UniformEffortGrid(0.0, 4.0, 8);
  const auto direct_curves = service.CellCurves("p", cells, grid);
  ASSERT_TRUE(direct_curves.ok());
  const auto wire_curves = client.CellCurves("p", cells, grid);
  ASSERT_TRUE(wire_curves.ok()) << wire_curves.status();
  EXPECT_EQ(wire_curves->effort_grid, (*direct_curves)->effort_grid);
  EXPECT_EQ(wire_curves->qualified_count, (*direct_curves)->qualified_count);
  EXPECT_EQ(wire_curves->num_cells, (*direct_curves)->num_cells);
  EXPECT_EQ(wire_curves->prob, (*direct_curves)->prob);
  EXPECT_EQ(wire_curves->variance, (*direct_curves)->variance);

  // PlanForPost.
  const RobustParams robust;
  const auto direct_plan = service.PlanForPost("p", 0, TinyPlanner(), robust);
  ASSERT_TRUE(direct_plan.ok());
  const auto wire_plan = client.PlanForPost("p", 0, TinyPlanner(), robust);
  ASSERT_TRUE(wire_plan.ok()) << wire_plan.status();
  EXPECT_EQ(wire_plan->coverage, direct_plan->coverage);
  EXPECT_EQ(wire_plan->objective, direct_plan->objective);
  EXPECT_EQ(wire_plan->proven_optimal, direct_plan->proven_optimal);
  EXPECT_EQ(wire_plan->mip_gap, direct_plan->mip_gap);
  EXPECT_EQ(wire_plan->simplex_iterations, direct_plan->simplex_iterations);
  EXPECT_EQ(wire_plan->nodes_explored, direct_plan->nodes_explored);

  // Stats reflects the traffic this test produced: four requests.
  const auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GE(stats->frames_in, 4u);
  EXPECT_EQ(stats->protocol_errors, 0u);
  ASSERT_EQ(stats->parks.size(), 1u);
  EXPECT_EQ(stats->parks[0].park_id, "p");
  EXPECT_GE(stats->parks[0].risk_misses, 1u);
  // The wire report carries the park's live scoring-backend name — the
  // same string the service reports locally.
  const auto backend = service.ScoringBackendName("p");
  ASSERT_TRUE(backend.ok());
  EXPECT_EQ(stats->parks[0].scoring_backend, backend.value());
  EXPECT_FALSE(stats->parks[0].scoring_backend.empty());

  // Serving errors arrive as typed statuses, and the connection survives
  // them (the next request on the same connection succeeds).
  EXPECT_EQ(client.RiskMap("ghost", 1.0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client.CellCurves("p", cells, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.RiskMap("p", 2.0).ok());
}

TEST_F(ParkServerTest, WireRiskTilesAreBitIdenticalAndErrorsAreTyped) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  StartServer(&service);
  ParkClient client(FastClient());
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  // The decoded tile equals the in-process result bit for bit.
  const auto direct = service.RiskTile("p", 0, 2.0);
  ASSERT_TRUE(direct.ok());
  const auto wire = client.RiskTile("p", 0, 2.0);
  ASSERT_TRUE(wire.ok()) << wire.status();
  EXPECT_EQ(wire->tile_id, (*direct)->tile_id);
  EXPECT_EQ(wire->cell_ids, (*direct)->cell_ids);
  EXPECT_EQ(wire->risk, (*direct)->risk);
  EXPECT_EQ(wire->variance, (*direct)->variance);
  EXPECT_EQ(wire->assumed_effort, (*direct)->assumed_effort);

  // Serving errors arrive as typed application statuses (not transport
  // failures), and the connection survives each one.
  EXPECT_EQ(client.RiskTile("ghost", 0, 2.0).status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(client.last_error_was_transport());
  EXPECT_EQ(client.RiskTile("p", 999, 2.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.RiskTile("p", 0, -1.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.RiskTile("p", 0, 2.0).ok());

  // The wire stats report carries the park's tile counters: the direct
  // call above was the miss, the wire calls were hits on the same key.
  const auto stats = client.Stats("p");
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_EQ(stats->parks.size(), 1u);
  EXPECT_EQ(stats->parks[0].tile_misses, 1u);
  EXPECT_GE(stats->parks[0].tile_hits, 2u);
  EXPECT_GE(stats->parks[0].tile_pool_misses, 1u);
  EXPECT_GE(stats->parks[0].tile_pool_resident_bytes, 1u);
}

TEST_F(ParkServerTest, WireSwapSnapshotReplacesAndUpserts) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  StartServer(&service);
  ParkClient client(FastClient());
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  // Replace an existing park: the service serves the shipped snapshot.
  ASSERT_TRUE(client.SwapSnapshot("p", *bytes_).ok());
  EXPECT_TRUE(service.RiskMap("p", 1.0).ok());

  // Upsert: an unknown id registers instead of failing — how a fresh
  // daemon is bootstrapped over the wire.
  ASSERT_TRUE(client.SwapSnapshot("fresh", *bytes_).ok());
  EXPECT_EQ(service.num_parks(), 2);
  const auto direct = service.RiskMap("fresh", 1.5);
  ASSERT_TRUE(direct.ok());
  const auto wire = client.RiskMap("fresh", 1.5);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(wire->risk, (*direct)->risk);

  // A corrupt snapshot archive is refused without disturbing the park.
  EXPECT_EQ(client.SwapSnapshot("p", "not an archive").code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.RiskMap("p", 1.0).ok());
}

// A kSwapSnapshot of a model wider than its park's rows is answered with a
// typed refusal, not installed: installing it would abort the daemon, and
// every park it serves, on the next read.
TEST_F(ParkServerTest, WireSwapOfAModelWiderThanItsParkIsRefused) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  StartServer(&service);
  ParkClient client(FastClient());
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  const ModelSnapshot reference = MakeSnapshot();
  const Status swapped = client.SwapSnapshot(
      "p", WideModelSnapshot(reference.park(), 8,
                             WeakLearnerKind::kDecisionTreeBagging));
  EXPECT_EQ(swapped.code(), StatusCode::kInvalidArgument) << swapped;
  EXPECT_FALSE(client.last_error_was_transport());
  // The same connection goes on serving the park the swap targeted.
  const auto maps = client.RiskMap("p", 1.0);
  ASSERT_TRUE(maps.ok()) << maps.status();
  EXPECT_EQ(maps->risk, reference.PredictRisk(1.0).risk);
  EXPECT_EQ(server_->net_stats().accepted_connections, 1u);
}

// A client told its daemon at construction connects on its first call,
// the same way it reconnects after a close; one never told has nowhere to
// connect.
TEST_F(ParkServerTest, ClientNamedAtConstructionConnectsOnFirstCall) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  StartServer(&service);
  ParkClient client(FastClient(), "127.0.0.1", server_->port());
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(server_->net_stats().accepted_connections, 0u);
  const auto maps = client.RiskMap("p", 1.0);
  ASSERT_TRUE(maps.ok()) << maps.status();
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(maps->risk, MakeSnapshot().PredictRisk(1.0).risk);
  EXPECT_EQ(server_->net_stats().accepted_connections, 1u);

  ParkClient unnamed(FastClient());
  const auto refused = unnamed.RiskMap("p", 1.0);
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(unnamed.last_error_was_transport());
}

// kRepair sources are peer input. One whose port carries trailing junk
// names no daemon and is skipped, even when the digits before the junk are
// a live peer's port that would serve the park.
TEST_F(ParkServerTest, RepairSkipsASourceWithJunkAfterItsPort) {
  ParkService peer_service;
  ASSERT_TRUE(peer_service.Register("pk", MakeSnapshot()).ok());
  ParkServer peer(&peer_service);
  FrameServerOptions peer_options;
  peer_options.port = 0;
  ASSERT_TRUE(peer.Start(std::move(peer_options)).ok());
  const std::string peer_at = "127.0.0.1:" + std::to_string(peer.port());

  ParkService service;
  StartServer(&service);
  ParkClient client(FastClient(), "127.0.0.1", server_->port());
  const auto junk = client.Repair("pk", {peer_at + "junk"});
  ASSERT_FALSE(junk.ok()) << "repaired from '" << peer_at << "junk'";
  EXPECT_EQ(junk.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(client.last_error_was_transport());
  EXPECT_EQ(service.num_parks(), 0);

  // The bad source is skipped, not fatal: the next one repairs.
  const auto repaired = client.Repair("pk", {peer_at + "junk", peer_at});
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_EQ(repaired->action, "repaired");
  EXPECT_EQ(service.num_parks(), 1);
}

TEST_F(ParkServerTest, GarbageBytesCloseTheConnectionAndCountAsProtocolError) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  StartServer(&service);

  RawConn raw(server_->port());
  raw.Send("this is definitely not a PNET frame header................");
  // The server must close on us (EOF) rather than answer or crash.
  EXPECT_EQ(raw.RecvUntilClosed(), "");
  // Poll the counter: the close is asynchronous to our send.
  for (int i = 0; i < 100 && server_->net_stats().protocol_errors == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->net_stats().protocol_errors, 1u);

  // The server is still healthy for well-formed clients.
  ParkClient client(FastClient());
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  EXPECT_TRUE(client.RiskMap("p", 1.0).ok());
}

TEST_F(ParkServerTest, OversizedLengthPrefixClosesTheConnection) {
  ParkService service;
  FrameServerOptions options;
  options.max_frame_bytes = 4096;
  StartServer(&service, options);

  Frame huge;
  huge.request_id = 1;
  huge.opcode = static_cast<uint32_t>(Opcode::kRiskMap);
  std::string header = EncodeFrame(huge);
  header.resize(kWireHeaderBytes);
  header[27] = 0x01;  // length prefix claims 2^56 bytes
  RawConn raw(server_->port());
  raw.Send(header);
  EXPECT_EQ(raw.RecvUntilClosed(), "");
  for (int i = 0; i < 100 && server_->net_stats().protocol_errors == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->net_stats().protocol_errors, 1u);
}

TEST_F(ParkServerTest, OversizedResponseIsAnsweredNotFramed) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  const auto direct = service.RiskMap("p", 1.0);
  ASSERT_TRUE(direct.ok());
  const size_t map_bytes = EncodeRiskMapsPayload(**direct).size();
  // Both sides capped below the map response, far above every other
  // frame this test exchanges.
  const size_t cap = map_bytes / 2;
  FrameServerOptions options;
  options.max_frame_bytes = cap;
  StartServer(&service, options);
  ClientOptions client_options = FastClient();
  client_options.max_frame_bytes = cap;
  ParkClient client(client_options);
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());

  // The server answers with a status frame naming both sizes instead of
  // sending a frame the client must treat as a broken stream.
  const auto map = client.RiskMap("p", 1.0);
  ASSERT_FALSE(map.ok());
  EXPECT_EQ(map.status().code(), StatusCode::kResourceExhausted)
      << map.status();
  EXPECT_FALSE(client.last_error_was_transport());
  EXPECT_NE(map.status().message().find(std::to_string(map_bytes)),
            std::string::npos)
      << map.status();
  EXPECT_NE(map.status().message().find(std::to_string(cap)),
            std::string::npos)
      << map.status();

  // A curve request sizes its own answer: every cell at two grid points
  // needs a 16-byte pair per (cell, point), about four times the cap. It is
  // refused from those counts, naming both sizes, before the park computes
  // the table or keeps it in its curve cache.
  std::vector<int> cells((*direct)->risk.size());
  std::iota(cells.begin(), cells.end(), 0);
  const uint64_t table_bytes = 16 * cells.size() * 2;
  ASSERT_GT(table_bytes, cap);
  const auto curves = client.CellCurves("p", cells, {0.0, 1.0});
  ASSERT_FALSE(curves.ok());
  EXPECT_EQ(curves.status().code(), StatusCode::kResourceExhausted)
      << curves.status();
  EXPECT_FALSE(client.last_error_was_transport());
  EXPECT_NE(curves.status().message().find(std::to_string(table_bytes)),
            std::string::npos)
      << curves.status();
  EXPECT_NE(curves.status().message().find(std::to_string(cap)),
            std::string::npos)
      << curves.status();
  const auto curve_stats = service.CurveCacheStats("p");
  ASSERT_TRUE(curve_stats.ok());
  EXPECT_EQ(curve_stats->misses, 0u);
  EXPECT_EQ(curve_stats->resident, 0u);

  // The same connection then answers the next request.
  const auto stats = client.Stats("p");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(server_->net_stats().accepted_connections, 1u);
  EXPECT_EQ(server_->net_stats().protocol_errors, 0u);
}

TEST_F(ParkServerTest, UnknownOpcodeAndBadPayloadGetStatusFramesNotCloses) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  StartServer(&service);

  WireClient wire(FastClient());
  ASSERT_TRUE(wire.Connect("127.0.0.1", server_->port()).ok());

  // Unknown-but-well-framed opcodes, the retired value 2 among them:
  // InvalidArgument status frames.
  Status carried;
  for (const uint32_t opcode : {77u, 2u}) {
    const auto unknown = wire.Call(static_cast<Opcode>(opcode), "");
    ASSERT_TRUE(unknown.ok()) << unknown.status();
    EXPECT_EQ(unknown->opcode,
              static_cast<uint32_t>(Opcode::kStatusResponse));
    ASSERT_TRUE(DecodeStatusPayload(unknown->payload, &carried).ok());
    EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument) << opcode;
  }

  // Trailing garbage inside a request payload archive: same treatment.
  RiskMapRequest request;
  request.park_id = "p";
  request.assumed_effort = 1.0;
  const auto bad = wire.Call(Opcode::kRiskMap,
                             EncodeRiskMapRequest(request) + "trailing junk");
  ASSERT_TRUE(bad.ok()) << bad.status();
  EXPECT_EQ(bad->opcode, static_cast<uint32_t>(Opcode::kStatusResponse));
  ASSERT_TRUE(DecodeStatusPayload(bad->payload, &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument);

  // Neither malformation closed the connection.
  const auto good = wire.Call(Opcode::kRiskMap, EncodeRiskMapRequest(request));
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good->opcode, static_cast<uint32_t>(Opcode::kOkResponse));
  EXPECT_EQ(server_->net_stats().protocol_errors, 0u);
}

// A well-formed kPlanForPost may ask for more than a daemon can hold:
// horizon 1000 or INT_MAX segments is refused by ValidatePlannerConfig,
// and horizon 64 on this 26x22 park builds a 13,204-row LP whose dense
// tableau would take 7.6 GB, which SolveLp refuses. Each gets a typed
// answer, and the connection then serves a risk map.
TEST_F(ParkServerTest, OversizedPlansAreRefusedAndTheDaemonServesOn) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  StartServer(&service);
  ParkClient client(FastClient());
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  const RobustParams robust;

  PlannerConfig config = TinyPlanner();
  config.horizon = 1000;
  EXPECT_EQ(client.PlanForPost("p", 0, config, robust).status().code(),
            StatusCode::kInvalidArgument);
  config = TinyPlanner();
  config.pwl_segments = INT_MAX;
  EXPECT_EQ(client.PlanForPost("p", 0, config, robust).status().code(),
            StatusCode::kInvalidArgument);
  config = TinyPlanner();
  config.horizon = 64;
  const auto huge = client.PlanForPost("p", 0, config, robust);
  EXPECT_EQ(huge.status().code(), StatusCode::kResourceExhausted)
      << huge.status();

  const auto risk = client.RiskMap("p", 2.0);
  ASSERT_TRUE(risk.ok()) << risk.status();
  EXPECT_EQ(risk->risk, (*service.RiskMap("p", 2.0))->risk);
}

TEST_F(ParkServerTest, QueuedRequestsPastTheDeadlineAreShed) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  FrameServerOptions options;
  options.num_workers = 1;
  options.request_deadline_ms = 50;
  // The single worker stalls on the first request, deterministically
  // forcing the second to overstay its deadline in the queue.
  std::atomic<bool> first_dispatch{true};
  options.pre_dispatch_hook_for_test = [&first_dispatch] {
    if (first_dispatch.exchange(false)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
    }
  };
  StartServer(&service, options);

  ParkClient slow(FastClient());
  ASSERT_TRUE(slow.Connect("127.0.0.1", server_->port()).ok());
  std::thread slow_call([&slow] {
    // Dispatched first; stalled by the hook but served normally.
    EXPECT_TRUE(slow.RiskMap("p", 1.0).ok());
  });
  // Give the first request time to reach the worker, then queue a second.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ParkClient shed(FastClient());
  ASSERT_TRUE(shed.Connect("127.0.0.1", server_->port()).ok());
  const auto expired = shed.RiskMap("p", 2.0);
  slow_call.join();
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server_->net_stats().deadline_expired, 1u);
}

TEST_F(ParkServerTest, ClientTimesOutAgainstANeverRespondingServer) {
  // A listener that accepts but never answers: connect succeeds, the
  // request goes nowhere, and the client's deadline must fire.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr;
  ::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(fd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len),
            0);
  const int port = ntohs(addr.sin_port);

  ClientOptions options = FastClient();
  options.request_timeout_ms = 50;
  ParkClient client(options);
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  const auto started = std::chrono::steady_clock::now();
  const auto result = client.RiskMap("p", 1.0);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - started)
                           .count();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  // poll(2) may fire up to a tick early; the point is "about the deadline,
  // not the 2s connect timeout and not forever".
  EXPECT_GE(elapsed, 40);
  EXPECT_LT(elapsed, 5000);
  EXPECT_FALSE(client.connected());
  ::close(fd);
}

TEST_F(ParkServerTest, ClientReconnectsAfterCloseAndAfterServerSideClose) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  StartServer(&service);

  ParkClient client(FastClient());
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.RiskMap("p", 1.0).ok());

  // Explicit local close: the next call transparently reconnects.
  client.Close();
  EXPECT_FALSE(client.connected());
  EXPECT_TRUE(client.RiskMap("p", 1.0).ok());
  EXPECT_TRUE(client.connected());
}

TEST_F(ParkServerTest, ShutdownDrainsInFlightRequests) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  FrameServerOptions options;
  options.num_workers = 1;
  std::atomic<bool> in_handler{false};
  options.pre_dispatch_hook_for_test = [&in_handler] {
    in_handler = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  };
  StartServer(&service, options);

  ParkClient client(FastClient());
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  std::thread call([&client] {
    // In flight when Shutdown starts; graceful drain must still deliver it.
    const auto result = client.RiskMap("p", 1.0);
    EXPECT_TRUE(result.ok()) << result.status();
  });
  while (!in_handler) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  server_->Shutdown();
  call.join();
  EXPECT_EQ(server_->net_stats().frames_out, 1u);
}

TEST_F(ParkServerTest, ConnectionLimitRejectsTheExcessConnection) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  FrameServerOptions options;
  options.max_connections = 1;
  StartServer(&service, options);

  ParkClient first(FastClient());
  ASSERT_TRUE(first.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(first.RiskMap("p", 1.0).ok());

  // The second connection is accepted then immediately closed; its first
  // request fails (and the client reports the broken transport).
  ClientOptions one_shot = FastClient();
  one_shot.max_connect_attempts = 1;
  one_shot.request_timeout_ms = 2000;
  ParkClient second(one_shot);
  const Status connected = second.Connect("127.0.0.1", server_->port());
  if (connected.ok()) {
    EXPECT_FALSE(second.RiskMap("p", 1.0).ok());
  }
  for (int i = 0; i < 100 && server_->net_stats().rejected_connections == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->net_stats().rejected_connections, 1u);
  // The admitted connection is unaffected.
  EXPECT_TRUE(first.RiskMap("p", 1.0).ok());
}

// A request whose answer is already cached is answered on the event
// thread: the dispatch hook, which runs on a worker before every handler
// call, never runs for it, and its bytes equal Handle's. Everything else
// goes to a worker and gets Handle's status or answer, and each request
// counts exactly once in the cache counters.
TEST_F(ParkServerTest, CachedHitsAreAnsweredWithoutAWorker) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  std::atomic<int> dispatched{0};
  FrameServerOptions options;
  options.pre_dispatch_hook_for_test = [&dispatched] { ++dispatched; };
  StartServer(&service, options);
  WireClient wire(FastClient());
  ASSERT_TRUE(wire.Connect("127.0.0.1", server_->port()).ok());

  // Warm one key per cache in process, plus a curve table over every cell
  // of the park on a finer grid, whose answer is over the inline cap.
  const std::vector<int> cells = {0, 3, 11};
  const std::vector<double> grid = UniformEffortGrid(0.0, 4.0, 8);
  const std::vector<double> fine_grid = UniformEffortGrid(0.0, 4.0, 16);
  const auto map = service.RiskMap("p", 1.0);
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(service.RiskTile("p", 0, 2.0).ok());
  ASSERT_TRUE(service.CellCurves("p", cells, grid).ok());
  std::vector<int> all_cells((*map)->risk.size());
  for (size_t i = 0; i < all_cells.size(); ++i) {
    all_cells[i] = static_cast<int>(i);
  }
  const auto big = service.CellCurves("p", all_cells, fine_grid);
  ASSERT_TRUE(big.ok());
  ASSERT_GT(EncodeEffortCurveTablePayload(**big).size(),
            ParkServer::kInlineAnswerBytes);

  std::vector<std::pair<Frame, Frame>> answered;  // request, wire answer
  const auto call = [&](const Frame& request) {
    StatusOr<Frame> got =
        wire.Call(static_cast<Opcode>(request.opcode), request.payload);
    CheckOrDie(got.ok(), "wire call failed");
    answered.emplace_back(request, *got);
    return *got;
  };
  const Frame map_hit =
      RequestFrame(0, Opcode::kRiskMap, EncodeRiskMapRequest({"p", 1.0}));
  const Frame tile_hit = RequestFrame(
      0, Opcode::kRiskTile, EncodeRiskTileRequest({"p", 0, 2.0}));
  const Frame curves_hit = RequestFrame(
      0, Opcode::kCellCurves, EncodeCellCurvesRequest({"p", cells, grid}));
  for (int round = 0; round < 2; ++round) {
    for (const Frame& request : {map_hit, tile_hit, curves_hit}) {
      EXPECT_EQ(call(request).opcode,
                static_cast<uint32_t>(Opcode::kOkResponse));
    }
  }
  EXPECT_EQ(dispatched.load(), 0) << "a cache hit reached a worker";

  // Each of these reaches a worker: a miss, a Stats request, a negative
  // effort, an unknown park, tile ids out of range (which must not abort
  // the daemon) and a hit whose answer is over the inline cap.
  const std::vector<Frame> to_workers = {
      RequestFrame(0, Opcode::kRiskMap, EncodeRiskMapRequest({"p", 3.0})),
      RequestFrame(0, Opcode::kStats, EncodeStatsRequest({"p"})),
      RequestFrame(0, Opcode::kRiskMap, EncodeRiskMapRequest({"p", -1.0})),
      RequestFrame(0, Opcode::kRiskMap, EncodeRiskMapRequest({"ghost", 1.0})),
      RequestFrame(0, Opcode::kRiskTile,
                   EncodeRiskTileRequest({"p", 1 << 20, 2.0})),
      RequestFrame(0, Opcode::kRiskTile, EncodeRiskTileRequest({"p", -1, 2.0})),
      RequestFrame(0, Opcode::kCellCurves,
                   EncodeCellCurvesRequest({"p", all_cells, fine_grid})),
  };
  for (size_t i = 0; i < to_workers.size(); ++i) {
    call(to_workers[i]);
    EXPECT_EQ(dispatched.load(), static_cast<int>(i) + 1) << "request " << i;
  }

  // One count per request that reached each cache: the warm-up call, the
  // wire hits, and the miss or the over-cap hit the workers served.
  const auto risk = service.RiskCacheStats("p");
  ASSERT_TRUE(risk.ok());
  EXPECT_EQ(risk->hits + risk->misses, 1u + 2u + 1u);
  const auto curves = service.CurveCacheStats("p");
  ASSERT_TRUE(curves.ok());
  EXPECT_EQ(curves->hits + curves->misses, 2u + 2u + 1u);
  const auto tiles = service.RiskTileStats("p");
  ASSERT_TRUE(tiles.ok());
  EXPECT_EQ(tiles->hits + tiles->misses, 1u + 2u);

  for (const auto& [request, got] : answered) {
    const Frame want = server_->Handle(request);
    EXPECT_EQ(got.opcode, want.opcode) << OpcodeName(request.opcode);
    if (request.opcode == static_cast<uint32_t>(Opcode::kStats)) continue;
    EXPECT_EQ(got.payload, want.payload) << OpcodeName(request.opcode);
  }
  EXPECT_EQ(server_->net_stats().frames_in, answered.size());
  EXPECT_EQ(server_->net_stats().frames_out, answered.size());
}

// No in-repo client pipelines, so this pins the server side of the
// protocol rule: several requests in flight on one connection are each
// answered once, matched by id, whichever path answers them first.
TEST_F(ParkServerTest, PipelinedRequestsAreAnsweredById) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  ASSERT_TRUE(service.RiskMap("p", 1.0).ok());
  ASSERT_TRUE(service.RiskTile("p", 0, 2.0).ok());
  StartServer(&service);

  const std::vector<Frame> requests = {
      RequestFrame(11, Opcode::kRiskMap, EncodeRiskMapRequest({"p", 3.0})),
      RequestFrame(12, Opcode::kRiskMap, EncodeRiskMapRequest({"p", 1.0})),
      RequestFrame(13, Opcode::kStats, EncodeStatsRequest({"p"})),
      RequestFrame(14, Opcode::kRiskTile, EncodeRiskTileRequest({"p", 0, 2.0})),
  };
  std::string bytes;
  for (const Frame& request : requests) bytes += EncodeFrame(request);
  RawConn raw(server_->port());
  raw.Send(bytes);
  const std::vector<Frame> got = raw.RecvFrames(requests.size());
  ASSERT_EQ(got.size(), requests.size());

  std::map<uint64_t, Frame> by_id;
  for (const Frame& frame : got) {
    EXPECT_TRUE(by_id.emplace(frame.request_id, frame).second)
        << "id " << frame.request_id << " answered twice";
  }
  for (const Frame& request : requests) {
    const auto it = by_id.find(request.request_id);
    ASSERT_NE(it, by_id.end()) << "id " << request.request_id;
    const Frame want = server_->Handle(request);
    EXPECT_EQ(it->second.opcode, want.opcode);
    if (request.opcode == static_cast<uint32_t>(Opcode::kStats)) {
      // Live counters differ from call to call; the report is the same.
      const auto report = DecodeStatsReportPayload(it->second.payload);
      ASSERT_TRUE(report.ok()) << report.status();
      ASSERT_EQ(report->parks.size(), 1u);
      EXPECT_EQ(report->parks[0].park_id, "p");
      continue;
    }
    EXPECT_EQ(it->second.payload, want.payload) << "id " << request.request_id;
  }
}

// A peer that shuts down its write side after sending is still owed the
// answer: the server stops reading at EOF, answers, then closes.
TEST_F(ParkServerTest, HalfClosedPeerGetsTheAnswerItIsOwed) {
  ParkService service;
  ASSERT_TRUE(service.Register("p", MakeSnapshot()).ok());
  StartServer(&service);
  // A miss, so a worker answers it after the server has read the EOF.
  const Frame request =
      RequestFrame(7, Opcode::kRiskMap, EncodeRiskMapRequest({"p", 3.0}));
  RawConn raw(server_->port());
  raw.Send(EncodeFrame(request));
  raw.ShutdownWrite();
  const std::string got = raw.RecvUntilClosed();

  FrameParser parser;
  parser.Append(got.data(), got.size());
  Frame frame;
  const StatusOr<bool> parsed = parser.Next(&frame);
  ASSERT_TRUE(parsed.ok() && *parsed) << got.size() << " bytes received";
  EXPECT_EQ(parser.buffered_bytes(), 0u) << "more than one frame";
  EXPECT_EQ(frame.request_id, 7u);
  EXPECT_EQ(frame.payload, server_->Handle(request).payload);
}

// Number of open descriptors in this process.
long OpenFdCount() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                       std::filesystem::directory_iterator());
}

TEST(FrameServerTest, FailedStartClosesEverythingItOpened) {
  // Cap the descriptor table one past the lowest free fd: the listening
  // socket takes that fd, and the wake pipe then fails with EMFILE.
  const int next_fd = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(next_fd, 0);
  ::close(next_fd);
  const long fds_before = OpenFdCount();
  rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit capped = saved;
  capped.rlim_cur = static_cast<rlim_t>(next_fd) + 1;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &capped), 0);
  FrameServer server;
  const Status started =
      server.Start(FrameServerOptions(), [](const Frame& frame) {
        return frame;
      });
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_EQ(started.code(), StatusCode::kInternal) << started.ToString();
  EXPECT_EQ(OpenFdCount(), fds_before);
  EXPECT_EQ(server.port(), -1);
}

// A handler that throws answers that one request with an Internal status
// frame naming the exception; the worker serves the next request.
TEST(FrameServerTest, HandlerExceptionBecomesAnInternalStatusFrame) {
  FrameServer server;
  FrameServerOptions options;
  options.num_workers = 1;
  ASSERT_TRUE(server
                  .Start(options,
                         [](const Frame& request) {
                           if (request.payload == "throw") {
                             throw std::length_error("vector too long");
                           }
                           if (request.payload == "throw int") throw 7;
                           Frame response = request;
                           response.opcode =
                               static_cast<uint32_t>(Opcode::kOkResponse);
                           return response;
                         })
                  .ok());
  WireClient wire(FastClient());
  ASSERT_TRUE(wire.Connect("127.0.0.1", server.port()).ok());
  for (const std::string payload : {"throw", "throw int"}) {
    const auto thrown = wire.Call(Opcode::kRiskMap, payload);
    ASSERT_TRUE(thrown.ok()) << thrown.status();
    ASSERT_EQ(thrown->opcode, static_cast<uint32_t>(Opcode::kStatusResponse));
    Status carried;
    ASSERT_TRUE(DecodeStatusPayload(thrown->payload, &carried).ok());
    EXPECT_EQ(carried.code(), StatusCode::kInternal) << payload;
    if (payload == "throw") {
      EXPECT_NE(carried.message().find("vector too long"), std::string::npos)
          << carried;
    }
    const auto served = wire.Call(Opcode::kRiskMap, "next");
    ASSERT_TRUE(served.ok()) << served.status();
    EXPECT_EQ(served->opcode, static_cast<uint32_t>(Opcode::kOkResponse));
    EXPECT_EQ(served->payload, "next");
  }
}

// A peer that pipelines requests and never reads its answers stops being
// read: the server owes it at most the backpressure caps' worth, instead
// of buffering every answer. Once the peer reads, every answer arrives.
TEST(FrameServerTest, PeerThatNeverReadsIsNotReadEither) {
  FrameServer server;
  ASSERT_TRUE(server
                  .Start(FrameServerOptions(),
                         [](const Frame& request) {
                           Frame response = request;
                           response.opcode =
                               static_cast<uint32_t>(Opcode::kOkResponse);
                           return response;
                         })
                  .ok());
  constexpr int kFrames = 20000;
  const std::string payload(8 << 10, 'x');
  RawConn raw(server.port());
  std::thread sender([&] {
    for (int i = 1; i <= kFrames; ++i) {
      raw.Send(EncodeFrame(RequestFrame(i, Opcode::kRiskMap, payload)));
    }
  });

  // Wait until the server has stopped taking frames: its count holds still
  // for 200 ms.
  uint64_t frames_in = 0;
  for (int still = 0; still < 10;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const uint64_t now = server.stats().frames_in;
    still = (now == frames_in && now > 0) ? still + 1 : 0;
    frames_in = now;
  }
  EXPECT_LT(frames_in, static_cast<uint64_t>(kFrames / 4));

  const std::vector<Frame> answers = raw.RecvFrames(kFrames);
  sender.join();
  ASSERT_EQ(answers.size(), static_cast<size_t>(kFrames));
  std::vector<bool> seen(kFrames + 1, false);
  for (const Frame& answer : answers) {
    ASSERT_GE(answer.request_id, 1u);
    ASSERT_LE(answer.request_id, static_cast<uint64_t>(kFrames));
    ASSERT_FALSE(seen[answer.request_id]) << "id " << answer.request_id;
    seen[answer.request_id] = true;
    ASSERT_EQ(answer.payload, payload);
  }
  EXPECT_EQ(server.stats().frames_out, static_cast<uint64_t>(kFrames));
}

// Concurrency suite: the name contains "Parallel" so CI's TSan job
// (-R "Parallel|ThreadPool") runs it under race detection.
using ParkServerParallelTest = ParkServerTest;

TEST_F(ParkServerParallelTest, ManyClientsHammerOneServerWithMixedOpcodes) {
  ParkService service;
  ASSERT_TRUE(service.Register("a", MakeSnapshot()).ok());
  ASSERT_TRUE(service.Register("b", MakeSnapshot()).ok());
  FrameServerOptions options;
  options.num_workers = 4;
  StartServer(&service, options);
  const int port = server_->port();

  // Reference results computed once, in-process, before the hammer.
  const auto want_a = service.RiskMap("a", 1.0);
  const auto want_b = service.RiskMap("b", 2.0);
  ASSERT_TRUE(want_a.ok());
  ASSERT_TRUE(want_b.ok());
  const std::vector<int> cells = {0, 5};
  const std::vector<double> grid = UniformEffortGrid(0.0, 3.0, 5);
  const auto want_curves = service.CellCurves("a", cells, grid);
  ASSERT_TRUE(want_curves.ok());

  constexpr int kClients = 6;
  constexpr int kIterations = 8;  // small: TSan multiplies the cost
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients + 1);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ParkClient client(FastClient());
      if (!client.Connect("127.0.0.1", port).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kIterations; ++i) {
        switch ((c + i) % 3) {
          case 0: {
            const auto got = client.RiskMap("a", 1.0);
            if (!got.ok() || got->risk != (*want_a)->risk) {
              failures.fetch_add(1);
            }
            break;
          }
          case 1: {
            const auto got = client.RiskMap("b", 2.0);
            if (!got.ok() || got->risk != (*want_b)->risk) {
              failures.fetch_add(1);
            }
            break;
          }
          case 2: {
            const auto got = client.CellCurves("a", cells, grid);
            if (!got.ok() || got->prob != (*want_curves)->prob) {
              failures.fetch_add(1);
            }
            break;
          }
        }
      }
    });
  }
  // One writer swaps park "b" snapshots over the wire while readers run;
  // "a" (whose results we compare exactly) is never written.
  threads.emplace_back([&] {
    ParkClient writer(FastClient());
    if (!writer.Connect("127.0.0.1", port).ok()) {
      failures.fetch_add(1);
      return;
    }
    for (int i = 0; i < 3; ++i) {
      if (!writer.SwapSnapshot("b", *bytes_).ok()) failures.fetch_add(1);
    }
  });
  for (auto& thread : threads) thread.join();

  // Park "b" was swapped mid-flight: readers may have raced a swap, but
  // the serving contract says every response is bit-identical to SOME
  // valid state — and both states here serve identical bytes, so zero
  // failures are tolerated.
  EXPECT_EQ(failures.load(), 0);
  const auto stats = server_->net_stats();
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.frames_in, stats.frames_out);
  EXPECT_GE(stats.frames_in,
            static_cast<uint64_t>(kClients * kIterations + 3));
}

// Inline hits race the writers: while clients read cached keys over the
// wire, an in-process writer flips the park's coverage between two layers
// and swaps in a fresh snapshot (which carries the first layer). Every
// answer must equal the in-process answer under one of the two coverage
// states, bit for bit.
TEST_F(ParkServerParallelTest, InlineHitsRaceCoverageUpdatesAndSwaps) {
  ParkService service;
  ASSERT_TRUE(service.Register("a", MakeSnapshot()).ok());
  const std::vector<double> layer_a = MakeSnapshot().lagged_effort();
  std::vector<double> layer_b = layer_a;
  for (double& effort : layer_b) effort += 1.0;
  const std::vector<int> cells = {0, 5, 9};
  const std::vector<double> grid = UniformEffortGrid(0.0, 3.0, 5);

  struct Answers {
    std::vector<double> map_risk, map_variance;
    std::vector<double> tile_risk, tile_variance;
    std::vector<double> curve_prob, curve_variance;
  };
  const auto answers_now = [&] {
    const auto map = service.RiskMap("a", 1.0);
    const auto tile = service.RiskTile("a", 0, 2.0);
    const auto curves = service.CellCurves("a", cells, grid);
    CheckOrDie(map.ok() && tile.ok() && curves.ok(), "reference failed");
    Answers answers;
    answers.map_risk = (*map)->risk;
    answers.map_variance = (*map)->variance;
    answers.tile_risk = (*tile)->risk;
    answers.tile_variance = (*tile)->variance;
    answers.curve_prob = (*curves)->prob;
    answers.curve_variance = (*curves)->variance;
    return answers;
  };
  ASSERT_TRUE(service.UpdateCoverage("a", layer_b).ok());
  const Answers under_b = answers_now();
  ASSERT_TRUE(service.UpdateCoverage("a", layer_a).ok());
  const Answers under_a = answers_now();  // also warms the caches
  ASSERT_NE(under_a.map_risk, under_b.map_risk) << "layers serve alike";

  FrameServerOptions options;
  options.num_workers = 4;
  StartServer(&service, options);
  const int port = server_->port();

  constexpr int kClients = 4;
  constexpr int kIterations = 12;  // small: TSan multiplies the cost
  std::atomic<int> failures{0};
  std::atomic<int> readers_left{kClients};
  std::vector<std::thread> threads;
  threads.reserve(kClients + 1);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ParkClient client(FastClient());
      if (!client.Connect("127.0.0.1", port).ok()) failures.fetch_add(1);
      for (int i = 0; i < kIterations; ++i) {
        bool matched = false;
        switch ((c + i) % 3) {
          case 0: {
            const auto got = client.RiskMap("a", 1.0);
            for (const Answers* want : {&under_a, &under_b}) {
              matched |= got.ok() && got->risk == want->map_risk &&
                         got->variance == want->map_variance;
            }
            break;
          }
          case 1: {
            const auto got = client.RiskTile("a", 0, 2.0);
            for (const Answers* want : {&under_a, &under_b}) {
              matched |= got.ok() && got->risk == want->tile_risk &&
                         got->variance == want->tile_variance;
            }
            break;
          }
          case 2: {
            const auto got = client.CellCurves("a", cells, grid);
            for (const Answers* want : {&under_a, &under_b}) {
              matched |= got.ok() && got->prob == want->curve_prob &&
                         got->variance == want->curve_variance;
            }
            break;
          }
        }
        if (!matched) failures.fetch_add(1);
      }
      readers_left.fetch_sub(1);
    });
  }
  // The writer keeps going until every reader is done, at least twice.
  std::atomic<int> rounds{0};
  threads.emplace_back([&] {
    while (rounds.load() < 2 || readers_left.load() > 0) {
      if (!service.UpdateCoverage("a", layer_b).ok() ||
          !service.UpdateCoverage("a", layer_a).ok() ||
          !service.SwapSnapshot("a", MakeSnapshot()).ok()) {
        failures.fetch_add(1);
      }
      rounds.fetch_add(1);
    }
  });
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(rounds.load(), 2);
  const auto stats = server_->net_stats();
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.frames_in, stats.frames_out);
  EXPECT_EQ(stats.frames_in, static_cast<uint64_t>(kClients * kIterations));
}

}  // namespace
}  // namespace paws

// FaultInjector: the deterministic chaos engine. A schedule is a
// serializable {seed, rules} artifact; matching is first-match-wins with
// skip/limit windows and a seeded probability coin, so the decision
// sequence — and therefore any failure it provokes — is a pure function
// of (schedule, operation order). The transport-level tests drive every
// fault kind through a real socket pair and assert the exact client
// symptom each kind must produce.
#include "net/fault_injector.h"

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"

namespace paws {
namespace {

TEST(FaultScheduleTest, ToBytesFromBytesRoundTripsEveryField) {
  FaultSchedule schedule;
  schedule.seed = 0xdeadbeefcafe1234ull;
  FaultRule rule;
  rule.endpoint = "127.0.0.1:9999";
  rule.opcode = static_cast<uint32_t>(Opcode::kRiskMap);
  rule.kind = FaultKind::kTruncateSend;
  rule.param = 17;
  rule.skip = 3;
  rule.limit = 5;
  rule.probability = 0.25;
  schedule.rules.push_back(rule);
  FaultRule wildcard;  // defaults: every endpoint, every opcode, always
  wildcard.kind = FaultKind::kStallRecv;
  schedule.rules.push_back(wildcard);

  const auto decoded = FaultSchedule::FromBytes(schedule.ToBytes());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->seed, schedule.seed);
  ASSERT_EQ(decoded->rules.size(), 2u);
  EXPECT_EQ(decoded->rules[0].endpoint, rule.endpoint);
  EXPECT_EQ(decoded->rules[0].opcode, rule.opcode);
  EXPECT_EQ(decoded->rules[0].kind, rule.kind);
  EXPECT_EQ(decoded->rules[0].param, rule.param);
  EXPECT_EQ(decoded->rules[0].skip, rule.skip);
  EXPECT_EQ(decoded->rules[0].limit, rule.limit);
  EXPECT_EQ(decoded->rules[0].probability, rule.probability);
  EXPECT_EQ(decoded->rules[1].kind, FaultKind::kStallRecv);
  EXPECT_EQ(decoded->rules[1].limit, FaultRule::kNoLimit);
}

TEST(FaultScheduleTest, FromBytesRejectsCorruptionAndTrailingGarbage) {
  FaultSchedule schedule;
  schedule.rules.push_back(FaultRule{});
  const std::string bytes = schedule.ToBytes();

  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x01;
  EXPECT_FALSE(FaultSchedule::FromBytes(flipped).ok());

  EXPECT_FALSE(
      FaultSchedule::FromBytes(bytes.substr(0, bytes.size() - 3)).ok());
  EXPECT_FALSE(FaultSchedule::FromBytes(bytes + "tail").ok());
}

TEST(FaultScheduleTest, FromBytesRejectsAnUnknownFaultKind) {
  // Writing does not check the kind; the read refuses any value outside
  // kConnectRefuse..kChunkSend.
  for (uint32_t kind : {0u, 11u}) {
    FaultSchedule schedule;
    schedule.rules.push_back(FaultRule{});
    schedule.rules.back().kind = static_cast<FaultKind>(kind);
    const auto decoded = FaultSchedule::FromBytes(schedule.ToBytes());
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << kind;
  }
}

TEST(FaultInjectorTest, FirstMatchingRuleWinsInScheduleOrder) {
  FaultSchedule schedule;
  FaultRule first;
  first.kind = FaultKind::kSendDelay;
  first.param = 1;
  FaultRule second;
  second.kind = FaultKind::kSendDelay;
  second.param = 2;
  schedule.rules = {first, second};

  FaultInjector injector(schedule);
  const auto decision = injector.OnSend("a:1", 0);
  ASSERT_TRUE(decision.fired);
  EXPECT_EQ(decision.rule_index, 0);
  EXPECT_EQ(decision.param, 1u);
}

TEST(FaultInjectorTest, SkipWindowThenFiringLimit) {
  FaultSchedule schedule;
  FaultRule rule;
  rule.kind = FaultKind::kReset;
  rule.skip = 2;
  rule.limit = 2;
  schedule.rules.push_back(rule);

  FaultInjector injector(schedule);
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) {
    fired.push_back(injector.OnSend("a:1", 0).fired);
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, false, false}));
  EXPECT_EQ(injector.total_fired(), 2u);
  EXPECT_EQ(injector.EventLog().size(), 2u);
}

TEST(FaultInjectorTest, EndpointOpcodeAndOperationFiltersSelect) {
  FaultSchedule schedule;
  FaultRule rule;
  rule.endpoint = "a:1";
  rule.opcode = static_cast<uint32_t>(Opcode::kCellCurves);
  rule.kind = FaultKind::kCorruptSend;  // a send-only kind
  schedule.rules.push_back(rule);

  FaultInjector injector(schedule);
  const uint32_t opcode = rule.opcode;
  EXPECT_FALSE(injector.OnSend("b:2", opcode).fired);  // wrong endpoint
  EXPECT_FALSE(injector.OnSend("a:1", opcode + 1).fired);  // wrong opcode
  EXPECT_FALSE(injector.OnRecv("a:1", opcode).fired);  // send kind, recv op
  EXPECT_FALSE(injector.OnConnect("a:1").fired);
  EXPECT_TRUE(injector.OnSend("a:1", opcode).fired);
}

TEST(FaultInjectorTest, SeededCoinReproducesFromScheduleBytesAlone) {
  FaultSchedule schedule;
  schedule.seed = 42;
  FaultRule send_coin;
  send_coin.kind = FaultKind::kCorruptSend;
  send_coin.probability = 0.5;
  FaultRule recv_coin;
  recv_coin.kind = FaultKind::kCorruptRecv;
  recv_coin.probability = 0.3;
  schedule.rules = {send_coin, recv_coin};

  const auto drive = [](FaultInjector* injector) {
    for (uint32_t i = 0; i < 64; ++i) {
      injector->OnConnect("a:1");
      injector->OnSend("a:1", 1 + (i % 6));
      injector->OnRecv("a:1", 1 + (i % 6));
    }
  };

  // The reproduction contract: rebuilding the injector from the
  // schedule's serialized bytes and replaying the same operation order
  // yields the identical decision sequence, event log and fingerprint.
  FaultInjector original(schedule);
  const auto rebuilt_schedule = FaultSchedule::FromBytes(schedule.ToBytes());
  ASSERT_TRUE(rebuilt_schedule.ok());
  FaultInjector rebuilt(*rebuilt_schedule);
  drive(&original);
  drive(&rebuilt);
  EXPECT_EQ(original.Fingerprint(), rebuilt.Fingerprint());
  EXPECT_EQ(original.EventLog(), rebuilt.EventLog());
  // The coins actually flip both ways.
  EXPECT_GT(original.total_fired(), 0u);
  EXPECT_LT(original.total_fired(), 128u);

  // A different seed is a different universe.
  FaultSchedule reseeded = schedule;
  reseeded.seed = 43;
  FaultInjector other(reseeded);
  drive(&other);
  EXPECT_NE(original.Fingerprint(), other.Fingerprint());
}

// ---------------------------------------------------------------------------
// Transport-level: every fault kind through a real socket, asserting the
// exact client-visible symptom.

class FaultTransportTest : public ::testing::Test {
 protected:
  void StartEcho() {
    FrameServerOptions options;
    options.port = 0;
    ASSERT_TRUE(server_
                    .Start(std::move(options),
                           [](const Frame& request) {
                             Frame response;
                             response.request_id = request.request_id;
                             response.opcode =
                                 static_cast<uint32_t>(Opcode::kOkResponse);
                             response.payload = request.payload;
                             return response;
                           })
                    .ok());
  }

  static ClientOptions FastClient(std::shared_ptr<FaultInjector> injector) {
    ClientOptions options;
    options.fault_injector = std::move(injector);
    options.connect_timeout_ms = 2000;
    options.request_timeout_ms = 2000;
    options.max_connect_attempts = 1;
    options.backoff_initial_ms = 5;
    return options;
  }

  static std::shared_ptr<FaultInjector> Injector(FaultKind kind,
                                                 uint64_t param,
                                                 uint64_t limit) {
    FaultSchedule schedule;
    FaultRule rule;
    rule.kind = kind;
    rule.param = param;
    rule.limit = limit;
    schedule.rules.push_back(rule);
    return std::make_shared<FaultInjector>(schedule);
  }

  FrameServer server_;
};

TEST_F(FaultTransportTest, ConnectRefuseFailsThatAttemptOnly) {
  StartEcho();
  auto injector = Injector(FaultKind::kConnectRefuse, 0, /*limit=*/1);
  WireClient client(FastClient(injector));
  EXPECT_FALSE(client.Connect("127.0.0.1", server_.port()).ok());
  // The limit is spent: the retry connects and the connection serves.
  ASSERT_TRUE(client.Connect("127.0.0.1", server_.port()).ok());
  const auto got = client.Call(Opcode::kRiskMap, "ping");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->payload, "ping");
  EXPECT_EQ(injector->total_fired(), 1u);
}

TEST_F(FaultTransportTest, ChunkedSendStillDeliversTheWholeFrame) {
  StartEcho();
  auto injector =
      Injector(FaultKind::kChunkSend, /*param=*/3, FaultRule::kNoLimit);
  WireClient client(FastClient(injector));
  ASSERT_TRUE(client.Connect("127.0.0.1", server_.port()).ok());
  const std::string payload(301, 'x');
  const auto got = client.Call(Opcode::kRiskMap, payload);
  ASSERT_TRUE(got.ok()) << got.status();  // not a failure, a reassembly test
  EXPECT_EQ(got->payload, payload);
  EXPECT_GE(injector->total_fired(), 1u);
}

TEST_F(FaultTransportTest, TruncatedSendBreaksTheCallThenRecovers) {
  StartEcho();
  auto injector = Injector(FaultKind::kTruncateSend, /*param=*/10, /*limit=*/1);
  WireClient client(FastClient(injector));
  ASSERT_TRUE(client.Connect("127.0.0.1", server_.port()).ok());
  EXPECT_FALSE(client.Call(Opcode::kRiskMap, "doomed").ok());
  // The next call reconnects and completes — mid-frame truncation costs
  // one request, never the client.
  const auto got = client.Call(Opcode::kRiskMap, "after");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->payload, "after");
}

TEST_F(FaultTransportTest, ResetBreaksTheCallThenRecovers) {
  StartEcho();
  auto injector = Injector(FaultKind::kReset, 0, /*limit=*/1);
  WireClient client(FastClient(injector));
  ASSERT_TRUE(client.Connect("127.0.0.1", server_.port()).ok());
  EXPECT_FALSE(client.Call(Opcode::kRiskMap, "doomed").ok());
  EXPECT_TRUE(client.Call(Opcode::kRiskMap, "after").ok());
}

TEST_F(FaultTransportTest, CorruptedResponseHeaderBreaksTheStream) {
  StartEcho();
  // param 0 flips the first byte the client reads — the response frame's
  // magic — so the parser reports a broken stream, not a bad payload.
  auto injector = Injector(FaultKind::kCorruptRecv, /*param=*/0, /*limit=*/1);
  WireClient client(FastClient(injector));
  ASSERT_TRUE(client.Connect("127.0.0.1", server_.port()).ok());
  EXPECT_FALSE(client.Call(Opcode::kRiskMap, "doomed").ok());
  EXPECT_TRUE(client.Call(Opcode::kRiskMap, "after").ok());
}

TEST_F(FaultTransportTest, OneWayStallTimesOutAtTheRequestDeadline) {
  StartEcho();
  auto injector = Injector(FaultKind::kStallRecv, 0, /*limit=*/1);
  ClientOptions options = FastClient(injector);
  options.request_timeout_ms = 200;  // keep the stall cheap
  WireClient client(options);
  ASSERT_TRUE(client.Connect("127.0.0.1", server_.port()).ok());
  const auto start = std::chrono::steady_clock::now();
  const auto got = client.Call(Opcode::kRiskMap, "doomed");
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_GE(elapsed, 150);  // the stall consumed the wait, not a busy loop
  EXPECT_TRUE(client.Call(Opcode::kRiskMap, "after").ok());
}

TEST_F(FaultTransportTest, DelaysSlowTheCallWithoutBreakingIt) {
  StartEcho();
  FaultSchedule schedule;
  for (const FaultKind kind :
       {FaultKind::kConnectDelay, FaultKind::kSendDelay,
        FaultKind::kRecvDelay}) {
    FaultRule rule;
    rule.kind = kind;
    rule.param = 30;
    rule.limit = 1;
    schedule.rules.push_back(rule);
  }
  auto injector = std::make_shared<FaultInjector>(schedule);
  WireClient client(FastClient(injector));
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.Connect("127.0.0.1", server_.port()).ok());
  const auto got = client.Call(Opcode::kRiskMap, "slow");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->payload, "slow");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_GE(elapsed, 90);  // 3 × 30ms of injected latency, all absorbed
  EXPECT_EQ(injector->total_fired(), 3u);
}

}  // namespace
}  // namespace paws

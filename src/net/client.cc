#include "net/client.h"

#include <chrono>
#include <thread>
#include <utility>

#include "core/risk_map.h"
#include "ml/effort_curve.h"
#include "net/fault_injector.h"
#include "plan/planner.h"
#include "util/archive.h"
#include "util/rng.h"

namespace paws {
namespace {

using Clock = std::chrono::steady_clock;

int MsLeft(Clock::time_point deadline) {
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline - Clock::now())
                  .count();
  if (left < 0) return 0;
  if (left > 1000000000) return 1000000000;
  return static_cast<int>(left);
}

// kSwapSnapshot and kSwapFleetMap answer success with an empty payload.
Status IgnorePayload(const std::string&) { return Status::OK(); }

}  // namespace

int JitteredBackoffMs(int base_ms, double jitter_pct, double unit_uniform) {
  if (base_ms <= 0 || jitter_pct <= 0.0) return base_ms < 0 ? 0 : base_ms;
  const double factor = 1.0 - jitter_pct + 2.0 * jitter_pct * unit_uniform;
  const double jittered = static_cast<double>(base_ms) * factor;
  return jittered < 0.0 ? 0 : static_cast<int>(jittered);
}

WireClient::WireClient(ClientOptions options)
    : options_(std::move(options)), parser_(options_.max_frame_bytes) {
  // Distinct per client even when many are constructed the same
  // nanosecond — the whole point is that a fleet of routers must not
  // share one retry schedule.
  jitter_state_ =
      static_cast<uint64_t>(Clock::now().time_since_epoch().count()) ^
      (static_cast<uint64_t>(reinterpret_cast<uintptr_t>(this)) << 1);
}

WireClient::WireClient(ClientOptions options, const std::string& host,
                       int port)
    : WireClient(std::move(options)) {
  SetEndpoint(host, port);
}

WireClient::~WireClient() { Close(); }

void WireClient::Close() {
  if (transport_ != nullptr) transport_->Close();
  // A half-received response must not leak into the next exchange.
  parser_ = FrameParser(options_.max_frame_bytes);
}

int WireClient::DeadlineBudgetMs(int cap) const {
  if (!has_call_deadline_) return cap;
  const int left = MsLeft(call_deadline_);
  if (cap <= 0) return left;
  return left < cap ? left : cap;
}

void WireClient::SetEndpoint(const std::string& host, int port) {
  host_ = host;
  port_ = port;
  Close();
  // The transport is (re)built per endpoint so the fault injector's
  // per-endpoint rules key on the right "host:port" label.
  transport_ = MakeTcpTransport();
  if (options_.fault_injector != nullptr) {
    transport_ = MakeFaultInjectedTransport(
        std::move(transport_), options_.fault_injector,
        host_ + ":" + std::to_string(port_));
  }
}

Status WireClient::Connect(const std::string& host, int port) {
  SetEndpoint(host, port);
  return EnsureConnected();
}

Status WireClient::EnsureConnected() {
  if (connected()) return Status::OK();
  if (transport_ == nullptr) {
    return Status::FailedPrecondition("WireClient: no daemon named");
  }
  if (port_ <= 0 || port_ > 65535) {
    return Status::InvalidArgument("port out of range: " +
                                   std::to_string(port_));
  }
  Status last = Status::Internal("connect never attempted");
  int backoff_ms = options_.backoff_initial_ms;
  int attempts = options_.max_connect_attempts < 1
                     ? 1
                     : options_.max_connect_attempts;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // ±20% per sleep: without jitter every client of a restarted shard
      // computes the identical retry schedule and reconnects in lockstep —
      // a synchronized reconnect storm.
      constexpr double kBackoffJitterPct = 0.2;
      int sleep_ms = JitteredBackoffMs(backoff_ms, kBackoffJitterPct,
                                       SplitMix64Uniform(&jitter_state_));
      if (has_call_deadline_) {
        const int left = MsLeft(call_deadline_);
        if (sleep_ms > left) sleep_ms = left;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      backoff_ms *= 2;
    }
    if (has_call_deadline_ && MsLeft(call_deadline_) <= 0) {
      return Status::ResourceExhausted(
          "call deadline expired before connecting");
    }
    last = ConnectOnce();
    if (last.ok()) return Status::OK();
  }
  return last;
}

Status WireClient::ConnectOnce() {
  const Status connected = transport_->Connect(
      host_, port_, DeadlineBudgetMs(options_.connect_timeout_ms));
  if (connected.ok()) parser_ = FrameParser(options_.max_frame_bytes);
  return connected;
}

StatusOr<Frame> WireClient::Call(Opcode opcode, std::string payload) {
  if (has_call_deadline_ && MsLeft(call_deadline_) <= 0) {
    return StatusOr<Frame>(Status::ResourceExhausted(
        "call deadline expired before the request was sent"));
  }
  PAWS_RETURN_IF_ERROR(EnsureConnected());

  Frame request;
  request.request_id = next_request_id_++;
  request.opcode = static_cast<uint32_t>(opcode);
  request.payload = std::move(payload);
  const std::string bytes = EncodeFrame(request);

  auto deadline =
      Clock::now() +
      std::chrono::milliseconds(options_.request_timeout_ms > 0
                                    ? options_.request_timeout_ms
                                    : 1000000000);
  if (has_call_deadline_ && call_deadline_ < deadline) {
    deadline = call_deadline_;
  }

  Status sent = transport_->Send(bytes.data(), bytes.size(), MsLeft(deadline));
  if (!sent.ok()) {
    Close();
    return sent;
  }

  char buf[65536];
  while (true) {
    // Drain any already-buffered frame first.
    Frame response;
    StatusOr<bool> got = parser_.Next(&response);
    if (!got.ok()) {
      Close();
      return got.status();
    }
    if (*got) {
      if (response.request_id != request.request_id) {
        // A response to an abandoned (timed-out) earlier request can only
        // appear if Close() was skipped — treat it as a protocol error.
        Close();
        return StatusOr<Frame>(
            Status::Internal("response id does not match request id"));
      }
      return response;
    }

    const int left = MsLeft(deadline);
    if (left <= 0) {
      Close();
      return StatusOr<Frame>(
          Status::ResourceExhausted("request timed out waiting for response"));
    }
    StatusOr<size_t> received = transport_->Recv(buf, sizeof(buf), left);
    if (!received.ok()) {
      Close();
      return received.status();
    }
    if (*received > 0) parser_.Append(buf, *received);
  }
}

ParkClient::ParkClient(ClientOptions options) : client_(std::move(options)) {}

template <typename Decode>
auto ParkClient::Call(Opcode opcode, std::string request, Decode decode) {
  using Result = decltype(decode(std::string()));
  // Until a well-formed status frame arrives, every failure mode here is
  // the transport's fault: broken connection, timeout, protocol garbage.
  last_error_transport_ = true;
  StatusOr<Frame> called = client_.Call(opcode, std::move(request));
  if (!called.ok()) return Result(called.status());
  const Frame& response = *called;
  if (response.opcode == static_cast<uint32_t>(Opcode::kStatusResponse)) {
    Status carried;
    const Status decoded = DecodeStatusPayload(response.payload, &carried);
    if (!decoded.ok()) return Result(decoded);
    if (carried.ok()) {
      return Result(Status::Internal("server sent a status frame carrying OK"));
    }
    // A decoded status frame is the server *answering* — the one
    // non-transport failure shape (FleetRouter must not fail over on it).
    last_error_transport_ = false;
    return Result(carried);
  }
  if (response.opcode != static_cast<uint32_t>(Opcode::kOkResponse)) {
    return Result(Status::Internal("unexpected response opcode " +
                                   OpcodeName(response.opcode)));
  }
  // A kOkResponse whose payload does not decode means the endpoint is
  // serving corrupt bytes, not answering the request: still transport.
  Result result = decode(response.payload);
  last_error_transport_ = !result.ok();
  return result;
}

StatusOr<RiskMaps> ParkClient::RiskMap(const std::string& park_id,
                                       double assumed_effort) {
  return Call(Opcode::kRiskMap, EncodeRiskMapRequest({park_id, assumed_effort}),
              DecodeRiskMapsPayload);
}

StatusOr<RiskTile> ParkClient::RiskTile(const std::string& park_id,
                                        int tile_id, double assumed_effort) {
  return Call(Opcode::kRiskTile,
              EncodeRiskTileRequest({park_id, tile_id, assumed_effort}),
              DecodeRiskTilePayload);
}

StatusOr<EffortCurveTable> ParkClient::CellCurves(
    const std::string& park_id, const std::vector<int>& cell_ids,
    std::vector<double> effort_grid) {
  return Call(Opcode::kCellCurves,
              EncodeCellCurvesRequest(
                  {park_id, cell_ids, std::move(effort_grid)}),
              DecodeEffortCurveTablePayload);
}

StatusOr<PatrolPlan> ParkClient::PlanForPost(const std::string& park_id,
                                             int post_index,
                                             const PlannerConfig& config,
                                             const RobustParams& robust) {
  return Call(Opcode::kPlanForPost,
              EncodePlanForPostRequest({park_id, post_index, config, robust}),
              DecodePatrolPlanPayload);
}

Status ParkClient::SwapSnapshot(const std::string& park_id,
                                const std::string& snapshot_bytes) {
  return Call(Opcode::kSwapSnapshot,
              EncodeSwapSnapshotRequest({park_id, snapshot_bytes}),
              IgnorePayload);
}

StatusOr<ServerStatsReport> ParkClient::Stats(const std::string& park_id) {
  return Call(Opcode::kStats, EncodeStatsRequest({park_id}),
              DecodeStatsReportPayload);
}

StatusOr<MapVersionResponse> ParkClient::MapVersion(uint64_t known_version) {
  return Call(Opcode::kMapVersion, EncodeMapVersionRequest({known_version}),
              DecodeMapVersionResponse);
}

Status ParkClient::SwapFleetMap(const std::string& map_bytes) {
  return Call(Opcode::kSwapFleetMap, EncodeSwapFleetMapRequest({map_bytes}),
              IgnorePayload);
}

StatusOr<std::string> ParkClient::GetSnapshot(const std::string& park_id) {
  PAWS_ASSIGN_OR_RETURN(GetSnapshotResponse response,
                        Call(Opcode::kGetSnapshot,
                             EncodeGetSnapshotRequest({park_id}),
                             DecodeGetSnapshotResponse));
  return std::move(response.snapshot_bytes);
}

StatusOr<RepairResponse> ParkClient::Repair(
    const std::string& park_id, const std::vector<std::string>& sources) {
  return Call(Opcode::kRepair, EncodeRepairRequest({park_id, sources}),
              DecodeRepairResponse);
}

}  // namespace paws

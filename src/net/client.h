#ifndef PAWS_NET_CLIENT_H_
#define PAWS_NET_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/transport.h"
#include "net/wire.h"
#include "util/status.h"

namespace paws {

class FaultInjector;

struct ClientOptions {
  /// Per-connect-attempt timeout.
  int connect_timeout_ms = 5000;
  /// End-to-end deadline for one Call (send + wait for the response);
  /// 0 = wait forever. A timed-out call closes the connection — the
  /// response may still be in flight and must not be matched to a later
  /// request.
  int request_timeout_ms = 30000;
  /// Connect attempts before giving up (first try + retries).
  int max_connect_attempts = 3;
  /// Backoff before the second attempt; doubles per retry. Each sleep is
  /// scaled by a uniform factor in [0.8, 1.2] (see JitteredBackoffMs),
  /// drawn from a per-client stream seeded by the clock and the client's
  /// address, so concurrently constructed clients jitter independently.
  int backoff_initial_ms = 50;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Chaos seam: when set, every connection's transport is wrapped in a
  /// FaultInjectedTransport consulting this injector. One injector is
  /// shared across all the clients of a router or fleet under test, so a
  /// single `{seed, schedule}` artifact drives — and reproduces — the
  /// whole run (see net/fault_injector.h).
  std::shared_ptr<FaultInjector> fault_injector;
};

/// The jittered backoff sleep: `base_ms` scaled by
/// (1 - jitter_pct) + 2 * jitter_pct * unit_uniform, clamped to >= 0, where
/// `unit_uniform` is in [0, 1). Pure so the ±jitter bound is directly
/// unit-testable (tests/fleet_router_test.cc).
int JitteredBackoffMs(int base_ms, double jitter_pct, double unit_uniform);

/// Blocking single-connection wire client: connect, send a request frame,
/// wait for the matching response. Reconnects with exponential backoff
/// when the connection is gone (server restart, idle-timeout close), so a
/// long-lived field client survives serving-side churn.
///
/// All socket work goes through the Transport seam (net/transport.h): a
/// real TCP transport in production, optionally wrapped by the fault
/// injector when options.fault_injector is set.
class WireClient {
 public:
  explicit WireClient(ClientOptions options = {});
  /// Names the daemon without connecting: the first Call connects, the
  /// same way every reconnect does.
  WireClient(ClientOptions options, const std::string& host, int port);
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Names the daemon (closing any connection to the previous one), then
  /// connects now with backoff. Later reconnects go to the same daemon.
  Status Connect(const std::string& host, int port);

  bool connected() const { return transport_ != nullptr && transport_->connected(); }
  void Close();

  /// One blocking request/response exchange. Reconnects first if the
  /// connection is down. Transport failures and timeouts surface as
  /// Status (ResourceExhausted for a deadline, Internal for a broken
  /// connection); a served response comes back whole.
  StatusOr<Frame> Call(Opcode opcode, std::string payload);

  /// Per-call deadline override: until cleared, every Call (including its
  /// reconnect) must finish by `deadline` — whichever of it and
  /// options.request_timeout_ms is sooner wins. FleetRouter propagates
  /// one request's end-to-end deadline across failover attempts with
  /// this; an expired deadline fails with ResourceExhausted before
  /// touching the network.
  void set_call_deadline(std::chrono::steady_clock::time_point deadline) {
    call_deadline_ = deadline;
    has_call_deadline_ = true;
  }
  void clear_call_deadline() { has_call_deadline_ = false; }

 private:
  /// Remembers the daemon and builds its transport; connects nothing.
  void SetEndpoint(const std::string& host, int port);
  Status EnsureConnected();
  Status ConnectOnce();
  /// Remaining ms until the per-call deadline, clamped into [0, cap];
  /// `cap` when no deadline is set.
  int DeadlineBudgetMs(int cap) const;
  ClientOptions options_;
  std::string host_;
  int port_ = -1;
  std::unique_ptr<Transport> transport_;
  uint64_t next_request_id_ = 1;
  uint64_t jitter_state_ = 0;  // splitmix64 backoff-jitter stream
  FrameParser parser_;
  std::chrono::steady_clock::time_point call_deadline_{};
  bool has_call_deadline_ = false;
};

/// Typed ParkService client: the serving API of ParkService, spoken over
/// a socket. Every method is bit-transparent — the decoded artifact
/// equals the server's in-process result exactly (doubles travel as
/// IEEE-754 bit patterns), enforced by tests/park_server_test.cc.
///
/// Error provenance: after a failed call, `last_error_was_transport()`
/// reports whether the failure was the *transport* (broken connection,
/// timeout, malformed response) or an *application status frame* the
/// server deliberately sent (NotFound, InvalidArgument, ...). Replica
/// failover keys on this — a transport error means the endpoint is
/// suspect and the request is safely retryable elsewhere; an application
/// status is an answer, and retrying it against another replica would
/// only duplicate the same error (FleetRouter's contract).
class ParkClient {
 public:
  explicit ParkClient(ClientOptions options = {});
  /// Names the daemon without connecting (see WireClient).
  ParkClient(ClientOptions options, const std::string& host, int port)
      : client_(std::move(options), host, port) {}

  Status Connect(const std::string& host, int port) {
    return client_.Connect(host, port);
  }
  bool connected() const { return client_.connected(); }
  void Close() { client_.Close(); }

  StatusOr<RiskMaps> RiskMap(const std::string& park_id,
                             double assumed_effort);
  /// One 64x64-cell tile of the park's risk map (tile ids row-major over
  /// the tile grid) — the sub-park request a pan/zoom frontend issues.
  StatusOr<paws::RiskTile> RiskTile(const std::string& park_id, int tile_id,
                                    double assumed_effort);
  StatusOr<EffortCurveTable> CellCurves(const std::string& park_id,
                                        const std::vector<int>& cell_ids,
                                        std::vector<double> effort_grid);
  StatusOr<PatrolPlan> PlanForPost(const std::string& park_id,
                                   int post_index,
                                   const PlannerConfig& config,
                                   const RobustParams& robust);
  /// Ships a whole snapshot archive (ModelSnapshot wire bytes) to replace
  /// — or, for an unknown park id, register — the served model.
  Status SwapSnapshot(const std::string& park_id,
                      const std::string& snapshot_bytes);
  /// Server transport counters + per-park cache stats (empty park_id =
  /// every registered park).
  StatusOr<ServerStatsReport> Stats(const std::string& park_id = "");

  /// Map-version handshake: reports `known_version`, gets the server's
  /// stored FleetMap version back — plus the map bytes when the server's
  /// is strictly newer (FleetRouter's hot-reload trigger).
  StatusOr<MapVersionResponse> MapVersion(uint64_t known_version);
  /// Publishes a FleetMap artifact to the daemon (admin/rollout path);
  /// the server rejects version regressions with FailedPrecondition.
  Status SwapFleetMap(const std::string& map_bytes);
  /// Pulls the exact snapshot archive the daemon serves for `park_id`.
  StatusOr<std::string> GetSnapshot(const std::string& park_id);
  /// Read-repair nudge: the daemon re-verifies its artifact for
  /// `park_id`, re-pulling from `sources` ("host:port") if needed.
  StatusOr<RepairResponse> Repair(const std::string& park_id,
                                  const std::vector<std::string>& sources);

  /// See WireClient::set_call_deadline.
  void set_call_deadline(std::chrono::steady_clock::time_point deadline) {
    client_.set_call_deadline(deadline);
  }
  void clear_call_deadline() { client_.clear_call_deadline(); }

  /// True iff the most recent failed method call failed at the transport
  /// layer (see class comment). Meaningful only immediately after a
  /// non-OK return; reset by every call.
  bool last_error_was_transport() const { return last_error_transport_; }

 private:
  /// Sends one request and unwraps the protocol envelope: a
  /// kStatusResponse becomes its carried Status, a kOkResponse payload
  /// goes through `decode` (a Decode* function). Sets
  /// last_error_transport_; a result that fails to decode counts as a
  /// transport error.
  template <typename Decode>
  auto Call(Opcode opcode, std::string request, Decode decode);

  WireClient client_;
  bool last_error_transport_ = false;
};

}  // namespace paws

#endif  // PAWS_NET_CLIENT_H_

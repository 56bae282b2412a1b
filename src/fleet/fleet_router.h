#ifndef PAWS_FLEET_FLEET_ROUTER_H_
#define PAWS_FLEET_FLEET_ROUTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet_map.h"
#include "net/client.h"
#include "util/status.h"

namespace paws {

struct FleetRouterOptions {
  /// Per-endpoint client options. The defaults differ from a bare
  /// ParkClient's: one connect attempt with a short timeout, because the
  /// router's own health machinery (probes + failover) owns retrying —
  /// stacking the client's reconnect loop under it would multiply
  /// worst-case latency on a dead replica.
  ClientOptions client;
  /// Disable the background probe thread (tests drive ProbeOnce()).
  bool enable_probe_thread = true;

  /// End-to-end deadline for one routed request including every failover
  /// attempt; 0 = none. Propagated into each attempt via the client's
  /// call deadline, so a request never spends its whole budget inside one
  /// dead replica's connect timeout and then retries anyway.
  int request_deadline_ms = 0;

  /// Retry budget (degradation policy): failover retries draw from a
  /// token bucket that only successful requests refill, so when *every*
  /// replica is down the router degrades to ~one attempt per request
  /// instead of multiplying a dead fleet's connect timeouts by the
  /// replica count. First attempts are never throttled.
  double retry_budget_initial = 10.0;
  /// Tokens deposited per successfully handled request (ratio of one
  /// retry), capped at retry_budget_cap.
  double retry_budget_ratio = 0.1;
  double retry_budget_cap = 100.0;

  /// Per-endpoint circuit breaker: after this many *consecutive*
  /// transport failures the endpoint is shed from routing (requests go
  /// straight to its replicas) for breaker_open_ms. 0 disables the
  /// breaker. A successful probe or request closes it immediately.
  int breaker_failure_threshold = 3;
  int breaker_open_ms = 1000;

  /// When > 0, the probe thread additionally runs CheckMapOnce() — the
  /// map-version handshake against a healthy endpoint — at this period,
  /// hot-reloading the routing table when the fleet has a newer FleetMap.
  /// 0 leaves map refresh to explicit CheckMapOnce()/ReloadMap() calls.
  int map_refresh_ms = 0;

  FleetRouterOptions() {
    client.connect_timeout_ms = 1000;
    client.max_connect_attempts = 1;
    client.request_timeout_ms = 10000;
  }
};

/// The fleet-routing client: one logical ParkService spread over many
/// `paws_serve` daemons. Wraps a per-endpoint ParkClient, routes every
/// request to its park's replica set (FleetMap preference order), and
/// fails over to the next replica on *transport* errors — never on
/// application status frames, which are answers (a NotFound from a
/// healthy primary would be a NotFound everywhere; retrying it would
/// just triple the error latency).
///
/// Health: an endpoint that produces a transport error is marked
/// unhealthy and leaves the routing preference order; a background
/// thread re-probes it with the cheap Stats opcode under exponential
/// backoff (+jitter) and marks it recovered on the first success. If
/// every replica of a park is unhealthy, the request tries them anyway
/// (last resort) rather than failing without touching the network.
///
/// Degradation policies (PR 9): a per-request deadline propagates through
/// every failover attempt; retries draw from a success-refilled token
/// budget; endpoints failing repeatedly trip a circuit breaker and shed
/// their traffic to replicas until a probe closes it.
///
/// Elasticity (PR 9): the routing table is an immutable RoutingState
/// snapshot swapped atomically by ReloadMap — in-flight requests finish
/// on the state they started with while new requests route on the new
/// map, so a resize never drops traffic. Endpoints surviving a reload
/// keep their connections and health/breaker history (matched by
/// "host:port" address). CheckMapOnce runs the kMapVersion handshake so
/// routers converge on a published map without restart. Read repair: the
/// parks a failed-over request was routed around are re-verified on the
/// endpoint's recovery via kRepair nudges.
///
/// All routed reads are idempotent (RiskMap / CellCurves / PlanForPost /
/// Stats), so transport-level retry against another replica can never
/// duplicate a side effect. Writes (snapshot rollout) deliberately do
/// not route — FleetAdmin addresses replicas explicitly.
///
/// Thread safety: a FleetRouter may be shared across threads; each
/// endpoint's client is serialized by a per-endpoint mutex (one in-flight
/// request per endpoint per router). Load generators wanting N truly
/// concurrent sockets per endpoint create N routers.
class FleetRouter {
 public:
  explicit FleetRouter(FleetMap map, FleetRouterOptions options = {});
  ~FleetRouter();

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  /// The version of the FleetMap currently routing requests.
  uint64_t map_version() const;
  /// A copy of the current map (the routing table may be hot-swapped at
  /// any moment; references into it would dangle).
  FleetMap map_snapshot() const;

  /// Routed serving calls — the ParkClient API minus explicit endpoints.
  StatusOr<RiskMaps> RiskMap(const std::string& park_id,
                             double assumed_effort);
  /// Routed exactly like RiskMap: tiles are sub-park, so the park id is
  /// still the (only) routing key and the shard layout is unchanged.
  StatusOr<paws::RiskTile> RiskTile(const std::string& park_id, int tile_id,
                                    double assumed_effort);
  StatusOr<EffortCurveTable> CellCurves(const std::string& park_id,
                                        const std::vector<int>& cell_ids,
                                        std::vector<double> effort_grid);
  StatusOr<PatrolPlan> PlanForPost(const std::string& park_id, int post_index,
                                   const PlannerConfig& config,
                                   const RobustParams& robust);

  /// Unrouted: stats of one specific endpoint (operator tooling).
  StatusOr<ServerStatsReport> EndpointStats(int endpoint_index);

  bool endpoint_healthy(int endpoint_index) const;

  /// One synchronous probe pass over the currently-unhealthy endpoints
  /// whose backoff has elapsed (`force` ignores the backoff clock).
  /// The background thread calls this on its tick; tests call it
  /// directly for determinism. Returns the number of recoveries. A
  /// recovered endpoint's circuit breaker closes and its queued
  /// read-repair nudges are sent.
  int ProbeOnce(bool force = false);

  /// Installs a newer FleetMap without dropping in-flight requests.
  /// Endpoints present in both maps (same "host:port") keep their
  /// connections, health and breaker state. Rejects maps whose version
  /// does not advance the current one (FailedPrecondition).
  Status ReloadMap(FleetMap new_map);

  /// The kMapVersion handshake: asks a healthy endpoint for the fleet's
  /// published map version and hot-reloads when it is newer. Returns 1
  /// if a reload happened, else 0.
  int CheckMapOnce();

  struct Stats {
    /// Routed requests issued through the router.
    uint64_t requests = 0;
    /// Requests answered by a replica other than the first one tried.
    uint64_t failovers = 0;
    /// Individual transport-level attempt failures.
    uint64_t transport_errors = 0;
    /// Requests that failed because every replica failed at transport.
    uint64_t exhausted = 0;
    /// Unhealthy endpoints brought back by a successful probe.
    uint64_t probe_recoveries = 0;
    /// Requests abandoned at the router's request deadline.
    uint64_t deadline_exceeded = 0;
    /// Failover retries suppressed by an empty retry budget.
    uint64_t retry_budget_exhausted = 0;
    /// Circuit-breaker trips (closed → open).
    uint64_t breaker_opens = 0;
    /// Attempts skipped because the endpoint's breaker was open.
    uint64_t breaker_shed = 0;
    /// Hot map reloads (ReloadMap successes).
    uint64_t map_reloads = 0;
    /// Map-version handshakes issued.
    uint64_t map_checks = 0;
    /// Read-repair nudges sent to recovered endpoints.
    uint64_t repair_nudges = 0;
    /// The current routing map's version.
    uint64_t map_version = 0;
    /// Requests served per endpoint index of the *current* map (shard
    /// balance).
    std::vector<uint64_t> per_endpoint_requests;
  };
  Stats stats() const;

 private:
  struct Endpoint {
    /// "host:port" — the reload-stable identity of this daemon.
    std::string address;

    /// Serializes the (blocking, single-connection) client, which names
    /// the daemon from construction and connects on first use.
    std::mutex mu;
    ParkClient client;
    std::atomic<bool> healthy{true};
    std::atomic<uint64_t> requests{0};

    /// Circuit breaker: consecutive transport failures and the
    /// steady-clock ms tick the breaker stays open until.
    std::atomic<int> consecutive_failures{0};
    std::atomic<int64_t> breaker_open_until_ms{0};

    /// Probe bookkeeping, guarded by probe_mu_.
    int probe_backoff_ms = 0;
    std::chrono::steady_clock::time_point next_probe{};

    /// Parks routed around this endpoint while it was failing —
    /// re-verified via kRepair when it recovers. Guarded by repair_mu.
    std::mutex repair_mu;
    std::vector<std::string> repair_parks;

    Endpoint(const ClientOptions& options, const FleetEndpoint& ep)
        : address(ep.ToString()), client(options, ep.host, ep.port) {}
  };

  /// Immutable routing table snapshot: requests grab a shared_ptr and
  /// route on it end to end; ReloadMap publishes a successor. Endpoints
  /// are shared between consecutive states when their address survives.
  struct RoutingState {
    FleetMap map;
    std::vector<std::shared_ptr<Endpoint>> endpoints;

    explicit RoutingState(FleetMap m) : map(std::move(m)) {}
  };

  std::shared_ptr<const RoutingState> State() const;

  /// Runs `fn(client)` against `park_id`'s replicas with failover and
  /// returns the result of the call that answered, or the routing
  /// failure when none did.
  template <typename Fn>
  auto Route(const std::string& park_id, Fn&& fn);

  /// Runs `fn(&endpoint.client)` under the endpoint's lock and returns
  /// its result. `transport`, when given, reports whether a failure was
  /// the transport's (ParkClient::last_error_was_transport) — the
  /// retryable kind; `deadline`, when set, bounds the call.
  template <typename Fn>
  auto Attempt(Endpoint& endpoint, Fn&& fn, bool* transport = nullptr,
               std::optional<std::chrono::steady_clock::time_point>
                   deadline = std::nullopt);

  void MarkUnhealthy(const std::shared_ptr<Endpoint>& endpoint,
                     const std::string& park_id);
  /// Sets the endpoint's probe backoff and schedules its next probe that
  /// far out, jittered. Caller holds probe_mu_.
  void ScheduleProbeLocked(Endpoint& endpoint, int backoff_ms);
  bool BreakerOpen(const Endpoint& endpoint) const;
  bool TryDrawRetryToken();
  void DepositRetryToken();
  void SendRepairNudges(const std::shared_ptr<const RoutingState>& state,
                        const std::shared_ptr<Endpoint>& endpoint);
  void ProbeLoop();

  FleetRouterOptions options_;

  mutable std::mutex state_mu_;
  std::shared_ptr<const RoutingState> state_;

  mutable std::mutex probe_mu_;
  std::condition_variable probe_cv_;
  bool stop_ = false;
  uint64_t probe_jitter_state_ = 0;
  std::thread probe_thread_;
  std::chrono::steady_clock::time_point next_map_check_{};

  /// Retry budget in milli-tokens (atomic integer so the hot path never
  /// takes a lock to draw).
  std::atomic<int64_t> retry_tokens_milli_{0};

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> transport_errors_{0};
  std::atomic<uint64_t> exhausted_{0};
  std::atomic<uint64_t> probe_recoveries_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> retry_budget_exhausted_{0};
  std::atomic<uint64_t> breaker_opens_{0};
  std::atomic<uint64_t> breaker_shed_{0};
  std::atomic<uint64_t> map_reloads_{0};
  std::atomic<uint64_t> map_checks_{0};
  std::atomic<uint64_t> repair_nudges_{0};
};

}  // namespace paws

#endif  // PAWS_FLEET_FLEET_ROUTER_H_

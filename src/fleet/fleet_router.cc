#include "fleet/fleet_router.h"

#include <algorithm>
#include <utility>

#include "util/rng.h"

namespace paws {
namespace {

using Clock = std::chrono::steady_clock;

// An unhealthy endpoint's first re-probe comes this long after it is
// marked; the backoff doubles per consecutive failed probe up to the cap.
constexpr int kProbeInitialBackoffMs = 100;
constexpr int kProbeMaxBackoffMs = 5000;
// ±20% jitter on every probe interval (same rationale as the client's
// reconnect jitter: recovered shards must not be hit by all routers'
// probes at once).
constexpr double kProbeJitterPct = 0.2;
// Read-repair queue bound per endpoint (parks recorded at failover,
// re-verified on recovery).
constexpr size_t kMaxRepairParks = 64;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

FleetRouter::FleetRouter(FleetMap map, FleetRouterOptions options)
    : options_(std::move(options)) {
  auto state = std::make_shared<RoutingState>(std::move(map));
  state->endpoints.reserve(state->map.num_endpoints());
  for (int e = 0; e < state->map.num_endpoints(); ++e) {
    state->endpoints.push_back(std::make_shared<Endpoint>(
        options_.client, state->map.endpoints()[e]));
  }
  state_ = std::move(state);

  retry_tokens_milli_.store(
      static_cast<int64_t>(options_.retry_budget_initial * 1000.0),
      std::memory_order_relaxed);

  probe_jitter_state_ =
      static_cast<uint64_t>(Clock::now().time_since_epoch().count()) ^
      (static_cast<uint64_t>(reinterpret_cast<uintptr_t>(this)) << 1);
  next_map_check_ =
      Clock::now() + std::chrono::milliseconds(options_.map_refresh_ms);
  if (options_.enable_probe_thread) {
    probe_thread_ = std::thread([this] { ProbeLoop(); });
  }
}

FleetRouter::~FleetRouter() {
  {
    std::lock_guard<std::mutex> lock(probe_mu_);
    stop_ = true;
  }
  probe_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
}

std::shared_ptr<const FleetRouter::RoutingState> FleetRouter::State() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return state_;
}

template <typename Fn>
auto FleetRouter::Attempt(Endpoint& endpoint, Fn&& fn, bool* transport,
                          std::optional<Clock::time_point> deadline) {
  std::lock_guard<std::mutex> lock(endpoint.mu);
  if (deadline) endpoint.client.set_call_deadline(*deadline);
  // The client connects on first use and reconnects a dropped connection
  // itself (single attempt: this router owns retry policy, see options).
  auto result = fn(&endpoint.client);
  if (transport != nullptr) {
    *transport = !result.ok() && endpoint.client.last_error_was_transport();
  }
  if (deadline) endpoint.client.clear_call_deadline();
  return result;
}

uint64_t FleetRouter::map_version() const { return State()->map.version(); }

FleetMap FleetRouter::map_snapshot() const { return State()->map; }

void FleetRouter::ProbeLoop() {
  // Scheduler granularity; also the shutdown-latency bound.
  constexpr int kProbeTickMs = 20;
  std::unique_lock<std::mutex> lock(probe_mu_);
  while (!stop_) {
    probe_cv_.wait_for(lock, std::chrono::milliseconds(kProbeTickMs));
    if (stop_) break;
    bool check_map = false;
    if (options_.map_refresh_ms > 0 && Clock::now() >= next_map_check_) {
      next_map_check_ =
          Clock::now() + std::chrono::milliseconds(options_.map_refresh_ms);
      check_map = true;
    }
    lock.unlock();
    ProbeOnce();
    if (check_map) CheckMapOnce();
    lock.lock();
  }
}

bool FleetRouter::BreakerOpen(const Endpoint& endpoint) const {
  if (options_.breaker_failure_threshold <= 0) return false;
  if (endpoint.consecutive_failures.load(std::memory_order_relaxed) <
      options_.breaker_failure_threshold) {
    return false;
  }
  return NowMs() <
         endpoint.breaker_open_until_ms.load(std::memory_order_relaxed);
}

bool FleetRouter::TryDrawRetryToken() {
  int64_t current = retry_tokens_milli_.load(std::memory_order_relaxed);
  while (current >= 1000) {
    if (retry_tokens_milli_.compare_exchange_weak(
            current, current - 1000, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void FleetRouter::DepositRetryToken() {
  const int64_t deposit =
      static_cast<int64_t>(options_.retry_budget_ratio * 1000.0);
  if (deposit <= 0) return;
  const int64_t cap =
      static_cast<int64_t>(options_.retry_budget_cap * 1000.0);
  int64_t current = retry_tokens_milli_.load(std::memory_order_relaxed);
  while (current < cap) {
    const int64_t next = std::min(current + deposit, cap);
    if (retry_tokens_milli_.compare_exchange_weak(current, next,
                                                  std::memory_order_relaxed)) {
      return;
    }
  }
}

void FleetRouter::MarkUnhealthy(const std::shared_ptr<Endpoint>& endpoint,
                                const std::string& park_id) {
  endpoint->healthy.store(false, std::memory_order_relaxed);

  // Breaker accounting: enough consecutive failures trips it open.
  const int failures =
      endpoint->consecutive_failures.fetch_add(1, std::memory_order_relaxed) +
      1;
  if (options_.breaker_failure_threshold > 0 &&
      failures >= options_.breaker_failure_threshold) {
    endpoint->breaker_open_until_ms.store(NowMs() + options_.breaker_open_ms,
                                          std::memory_order_relaxed);
    // Count the closed→open edge once per failure streak.
    if (failures == options_.breaker_failure_threshold) {
      breaker_opens_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Read-repair bookkeeping: this park was routed *around* the endpoint,
  // so when it comes back its artifact for the park is re-verified.
  if (!park_id.empty()) {
    std::lock_guard<std::mutex> lock(endpoint->repair_mu);
    if (endpoint->repair_parks.size() < kMaxRepairParks &&
        std::find(endpoint->repair_parks.begin(),
                  endpoint->repair_parks.end(),
                  park_id) == endpoint->repair_parks.end()) {
      endpoint->repair_parks.push_back(park_id);
    }
  }

  std::lock_guard<std::mutex> lock(probe_mu_);
  ScheduleProbeLocked(*endpoint, kProbeInitialBackoffMs);
}

void FleetRouter::ScheduleProbeLocked(Endpoint& endpoint, int backoff_ms) {
  endpoint.probe_backoff_ms = backoff_ms;
  endpoint.next_probe =
      Clock::now() + std::chrono::milliseconds(JitteredBackoffMs(
                         backoff_ms, kProbeJitterPct,
                         SplitMix64Uniform(&probe_jitter_state_)));
}

void FleetRouter::SendRepairNudges(
    const std::shared_ptr<const RoutingState>& state,
    const std::shared_ptr<Endpoint>& endpoint) {
  std::vector<std::string> parks;
  {
    std::lock_guard<std::mutex> lock(endpoint->repair_mu);
    parks.swap(endpoint->repair_parks);
  }
  for (const std::string& park_id : parks) {
    // Sources: the park's *other* replicas in the current map — the
    // copies that kept serving while this endpoint was down.
    std::vector<std::string> sources;
    for (const FleetEndpoint& replica : ReplicaEndpoints(state->map, park_id)) {
      std::string address = replica.ToString();
      if (address != endpoint->address) sources.push_back(std::move(address));
    }
    // Best effort: a failed nudge re-queues so the next recovery retries.
    const bool repaired = Attempt(*endpoint, [&](ParkClient* client) {
                            return client->Repair(park_id, sources);
                          }).ok();
    repair_nudges_.fetch_add(1, std::memory_order_relaxed);
    if (!repaired) {
      std::lock_guard<std::mutex> repair_lock(endpoint->repair_mu);
      if (endpoint->repair_parks.size() < kMaxRepairParks) {
        endpoint->repair_parks.push_back(park_id);
      }
    }
  }
}

int FleetRouter::ProbeOnce(bool force) {
  const std::shared_ptr<const RoutingState> state = State();
  // Collect the due endpoints under the schedule lock, then probe them
  // over the network without it — a slow probe must not block request
  // threads calling MarkUnhealthy.
  std::vector<std::shared_ptr<Endpoint>> due;
  {
    std::lock_guard<std::mutex> lock(probe_mu_);
    const auto now = Clock::now();
    for (const std::shared_ptr<Endpoint>& endpoint : state->endpoints) {
      if (endpoint->healthy.load(std::memory_order_relaxed)) continue;
      if (force || endpoint->next_probe <= now) due.push_back(endpoint);
    }
  }
  int recovered = 0;
  for (const std::shared_ptr<Endpoint>& endpoint : due) {
    // The cheapest opcode the server answers from counters alone.
    const bool live =
        Attempt(*endpoint, [](ParkClient* client) { return client->Stats(); })
            .ok();
    if (live) {
      endpoint->healthy.store(true, std::memory_order_relaxed);
      // A live answer closes the breaker: recovery must be immediate,
      // not delayed by a stale open window.
      endpoint->consecutive_failures.store(0, std::memory_order_relaxed);
      endpoint->breaker_open_until_ms.store(0, std::memory_order_relaxed);
      probe_recoveries_.fetch_add(1, std::memory_order_relaxed);
      ++recovered;
      SendRepairNudges(state, endpoint);
      continue;
    }
    std::lock_guard<std::mutex> lock(probe_mu_);
    ScheduleProbeLocked(*endpoint,
                        std::clamp(endpoint->probe_backoff_ms * 2,
                                   kProbeInitialBackoffMs, kProbeMaxBackoffMs));
  }
  return recovered;
}

Status FleetRouter::ReloadMap(FleetMap new_map) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (new_map.version() <= state_->map.version()) {
    return Status::FailedPrecondition(
        "fleet: map version " + std::to_string(new_map.version()) +
        " does not advance routing version " +
        std::to_string(state_->map.version()));
  }
  auto next = std::make_shared<RoutingState>(std::move(new_map));
  next->endpoints.reserve(next->map.num_endpoints());
  for (const FleetEndpoint& ep : next->map.endpoints()) {
    const std::string address = ep.ToString();
    std::shared_ptr<Endpoint> existing;
    for (const std::shared_ptr<Endpoint>& old : state_->endpoints) {
      if (old->address == address) {
        existing = old;
        break;
      }
    }
    // Surviving endpoints carry their connection, health, breaker and
    // repair queue across the swap; only genuinely new daemons start
    // cold. In-flight requests keep routing on the old state (they hold
    // its shared_ptr) — nothing is dropped mid-flight.
    next->endpoints.push_back(
        existing != nullptr
            ? existing
            : std::make_shared<Endpoint>(options_.client, ep));
  }
  state_ = std::move(next);
  map_reloads_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

int FleetRouter::CheckMapOnce() {
  const std::shared_ptr<const RoutingState> state = State();
  map_checks_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t known = state->map.version();
  for (const std::shared_ptr<Endpoint>& endpoint : state->endpoints) {
    if (!endpoint->healthy.load(std::memory_order_relaxed)) continue;
    const StatusOr<MapVersionResponse> response =
        Attempt(*endpoint, [known](ParkClient* client) {
          return client->MapVersion(known);
        });
    if (!response.ok()) continue;  // next healthy endpoint answers
    if (!response->has_map || response->version <= known) return 0;
    StatusOr<FleetMap> map = FleetMap::FromBytes(response->map_bytes);
    if (!map.ok()) return 0;  // a corrupt artifact must not poison routing
    if (ReloadMap(std::move(*map)).ok()) return 1;
    return 0;
  }
  return 0;
}

bool FleetRouter::endpoint_healthy(int endpoint_index) const {
  const std::shared_ptr<const RoutingState> state = State();
  if (endpoint_index < 0 ||
      endpoint_index >= static_cast<int>(state->endpoints.size())) {
    return false;
  }
  return state->endpoints[endpoint_index]->healthy.load(
      std::memory_order_relaxed);
}

template <typename Fn>
auto FleetRouter::Route(const std::string& park_id, Fn&& fn) {
  using Result = decltype(fn(static_cast<ParkClient*>(nullptr)));
  const std::shared_ptr<const RoutingState> state = State();
  const std::vector<int> replicas = state->map.ReplicasFor(park_id);
  requests_.fetch_add(1, std::memory_order_relaxed);

  std::optional<Clock::time_point> deadline;
  if (options_.request_deadline_ms > 0) {
    deadline = Clock::now() +
               std::chrono::milliseconds(options_.request_deadline_ms);
  }

  Status last = Status::Internal("fleet: no replica attempted");
  int failed_attempts = 0;
  std::vector<bool> attempted(replicas.size(), false);
  // Pass 0 tries the healthy, breaker-closed replicas in preference
  // order; pass 1 adds the unhealthy ones (last resort — try them rather
  // than failing without touching the network); pass 2 adds even
  // breaker-open endpoints (last-last resort: shedding is pointless when
  // there is nowhere left to shed to).
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t r = 0; r < replicas.size(); ++r) {
      const int endpoint_index = replicas[r];
      if (attempted[r]) continue;
      const std::shared_ptr<Endpoint>& endpoint =
          state->endpoints[endpoint_index];
      if (pass < 2 && BreakerOpen(*endpoint)) {
        if (pass == 0) breaker_shed_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (pass == 0 &&
          !endpoint->healthy.load(std::memory_order_relaxed)) {
        continue;
      }
      attempted[r] = true;

      // Truncate to whole milliseconds, matching the client's own call
      // deadline: with <1ms left the client would refuse to send anyway,
      // so attempting would misreport the expiry as a transport error.
      if (deadline &&
          std::chrono::duration_cast<std::chrono::milliseconds>(
              *deadline - Clock::now())
                  .count() <= 0) {
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        return Result(Status::ResourceExhausted(
            "fleet: request deadline exceeded after " +
            std::to_string(failed_attempts) + " failed attempts on '" +
            park_id + "'"));
      }
      // Degradation policy: the first attempt is free; every failover
      // retry draws a token that only successes refill. When the whole
      // fleet is down the budget drains and requests degrade to one
      // attempt each instead of multiplying timeouts.
      if (failed_attempts > 0 && !TryDrawRetryToken()) {
        retry_budget_exhausted_.fetch_add(1, std::memory_order_relaxed);
        return Result(Status(last.code(),
                             "fleet: retry budget exhausted routing '" +
                                 park_id + "'; last: " + last.message()));
      }

      bool transport = false;
      Result result = Attempt(*endpoint, fn, &transport, deadline);
      if (result.ok() || !transport) {
        // Served, or answered with an application status — either way
        // this endpoint handled the request; never fail over on answers.
        endpoint->requests.fetch_add(1, std::memory_order_relaxed);
        endpoint->consecutive_failures.store(0, std::memory_order_relaxed);
        if (failed_attempts > 0) {
          failovers_.fetch_add(1, std::memory_order_relaxed);
        }
        DepositRetryToken();
        return result;
      }
      transport_errors_.fetch_add(1, std::memory_order_relaxed);
      ++failed_attempts;
      MarkUnhealthy(endpoint, park_id);
      last = result.status();
    }
  }
  exhausted_.fetch_add(1, std::memory_order_relaxed);
  return Result(Status(last.code(),
                       "fleet: all " + std::to_string(replicas.size()) +
                           " replicas of '" + park_id +
                           "' failed; last: " + last.message()));
}

StatusOr<RiskMaps> FleetRouter::RiskMap(const std::string& park_id,
                                        double assumed_effort) {
  return Route(park_id, [&](ParkClient* client) {
    return client->RiskMap(park_id, assumed_effort);
  });
}

StatusOr<RiskTile> FleetRouter::RiskTile(const std::string& park_id,
                                         int tile_id, double assumed_effort) {
  return Route(park_id, [&](ParkClient* client) {
    return client->RiskTile(park_id, tile_id, assumed_effort);
  });
}

StatusOr<EffortCurveTable> FleetRouter::CellCurves(
    const std::string& park_id, const std::vector<int>& cell_ids,
    std::vector<double> effort_grid) {
  return Route(park_id, [&](ParkClient* client) {
    return client->CellCurves(park_id, cell_ids, effort_grid);
  });
}

StatusOr<PatrolPlan> FleetRouter::PlanForPost(const std::string& park_id,
                                              int post_index,
                                              const PlannerConfig& config,
                                              const RobustParams& robust) {
  return Route(park_id, [&](ParkClient* client) {
    return client->PlanForPost(park_id, post_index, config, robust);
  });
}

StatusOr<ServerStatsReport> FleetRouter::EndpointStats(int endpoint_index) {
  const std::shared_ptr<const RoutingState> state = State();
  if (endpoint_index < 0 ||
      endpoint_index >= static_cast<int>(state->endpoints.size())) {
    return Status::InvalidArgument("fleet: endpoint index out of range");
  }
  return Attempt(*state->endpoints[endpoint_index],
                 [](ParkClient* client) { return client->Stats(); });
}

FleetRouter::Stats FleetRouter::stats() const {
  const std::shared_ptr<const RoutingState> state = State();
  Stats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.failovers = failovers_.load(std::memory_order_relaxed);
  out.transport_errors = transport_errors_.load(std::memory_order_relaxed);
  out.exhausted = exhausted_.load(std::memory_order_relaxed);
  out.probe_recoveries = probe_recoveries_.load(std::memory_order_relaxed);
  out.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  out.retry_budget_exhausted =
      retry_budget_exhausted_.load(std::memory_order_relaxed);
  out.breaker_opens = breaker_opens_.load(std::memory_order_relaxed);
  out.breaker_shed = breaker_shed_.load(std::memory_order_relaxed);
  out.map_reloads = map_reloads_.load(std::memory_order_relaxed);
  out.map_checks = map_checks_.load(std::memory_order_relaxed);
  out.repair_nudges = repair_nudges_.load(std::memory_order_relaxed);
  out.map_version = state->map.version();
  out.per_endpoint_requests.reserve(state->endpoints.size());
  for (const std::shared_ptr<Endpoint>& endpoint : state->endpoints) {
    out.per_endpoint_requests.push_back(
        endpoint->requests.load(std::memory_order_relaxed));
  }
  return out;
}

}  // namespace paws

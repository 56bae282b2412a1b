#include "fleet/fleet_admin.h"

#include <algorithm>
#include <utility>

#include "core/snapshot.h"

namespace paws {

namespace {

// Any effort the snapshot can serve works: the comparison is bit-exact.
constexpr double kVerifyEffort = 1.0;

// The reference result: what the artifact itself serves, computed
// locally. Decoding also re-validates the bytes end to end.
StatusOr<RiskMaps> ReferenceMaps(const std::string& snapshot_bytes) {
  PAWS_ASSIGN_OR_RETURN(ModelSnapshot snapshot,
                        ModelSnapshot::FromBytes(snapshot_bytes));
  return snapshot.PredictRisk(kVerifyEffort);
}

// Does `client`'s daemon serve `park_id` exactly as `want`?
Status Verify(ParkClient* client, const FleetEndpoint& endpoint,
              const std::string& park_id, const StatusOr<RiskMaps>& want) {
  PAWS_RETURN_IF_ERROR(want.status());
  PAWS_ASSIGN_OR_RETURN(RiskMaps got, client->RiskMap(park_id, kVerifyEffort));
  if (got.risk != want->risk || got.variance != want->variance) {
    return Status::Internal("fleet rollout verify: " + endpoint.ToString() +
                            " serves '" + park_id +
                            "' with bytes that differ from the pushed "
                            "artifact's local predictions");
  }
  return Status::OK();
}

// Pushes `snapshot_bytes` to `endpoint` and, when that succeeds, reads the
// park back over the same connection and compares it with `want`, the
// artifact's local risk map (or the error computing it).
void PushAndVerify(const ClientOptions& options, const FleetEndpoint& endpoint,
                   const std::string& park_id,
                   const std::string& snapshot_bytes,
                   const StatusOr<RiskMaps>& want, Status* push,
                   Status* verify) {
  ParkClient client(options, endpoint.host, endpoint.port);
  *push = client.SwapSnapshot(park_id, snapshot_bytes);
  if (push->ok()) *verify = Verify(&client, endpoint, park_id, want);
}

bool Contains(const std::vector<FleetEndpoint>& endpoints,
              const FleetEndpoint& endpoint) {
  return std::find(endpoints.begin(), endpoints.end(), endpoint) !=
         endpoints.end();
}

}  // namespace

FleetAdmin::FleetAdmin(const FleetMap* map, FleetAdminOptions options)
    : map_(map), options_(std::move(options)) {}

Status FleetAdmin::VerifyReplica(int endpoint_index, const std::string& park_id,
                                 const std::string& snapshot_bytes) {
  const FleetEndpoint& endpoint = map_->endpoints()[endpoint_index];
  ParkClient client(options_.client, endpoint.host, endpoint.port);
  return Verify(&client, endpoint, park_id, ReferenceMaps(snapshot_bytes));
}

MigrationReport FleetAdmin::MigrateParks(
    const FleetMap& new_map, const std::vector<std::string>& park_ids) {
  MigrationReport report;
  const std::vector<std::string> moved =
      ParksMoved(*map_, new_map, park_ids);
  report.parks_unchanged = park_ids.size() - moved.size();

  bool all_moves_ok = true;
  for (const std::string& park_id : moved) {
    MigrationReport::ParkMove move;
    move.park_id = park_id;
    const std::vector<FleetEndpoint> old_replicas =
        ReplicaEndpoints(*map_, park_id);

    // Pull the artifact from the first old replica that serves it. Every
    // old replica holds the park, so one healthy daemon suffices. The
    // local decode validates the bytes before they ship anywhere
    // (migration must move artifacts, not propagate damage) and yields
    // the reference every target is verified against.
    std::string snapshot_bytes;
    StatusOr<RiskMaps> want = Status::Internal(
        "migrate '" + park_id + "': no old replica reachable");
    for (const FleetEndpoint& source : old_replicas) {
      ParkClient client(options_.client, source.host, source.port);
      StatusOr<std::string> pulled = client.GetSnapshot(park_id);
      want = pulled.ok() ? ReferenceMaps(*pulled)
                         : StatusOr<RiskMaps>(pulled.status());
      if (want.ok()) {
        snapshot_bytes = std::move(pulled).value();
        move.source = source.ToString();
        break;
      }
    }
    move.pull = want.status();

    if (move.pull.ok()) {
      move.ok = true;
      for (const FleetEndpoint& endpoint : ReplicaEndpoints(new_map, park_id)) {
        // Only daemons *gaining* the park need the artifact.
        if (Contains(old_replicas, endpoint)) continue;
        MigrationReport::TargetResult target;
        target.address = endpoint.ToString();
        PushAndVerify(options_.client, endpoint, park_id, snapshot_bytes, want,
                      &target.push, &target.verify);
        if (!target.push.ok() || !target.verify.ok()) move.ok = false;
        move.targets.push_back(std::move(target));
      }
    }
    if (!move.ok) all_moves_ok = false;
    report.moves.push_back(std::move(move));
  }

  if (!all_moves_ok) {
    // Verify-before-advance: the new map is not published, so routers
    // keep the old replica sets — which still hold every park.
    return report;
  }

  // Publish the new generation to every endpoint of either map, old ones
  // first. New-map endpoints are mandatory (routers handshake against
  // them); old-only endpoints are best effort (they may already be
  // draining out of the fleet).
  std::vector<FleetEndpoint> everyone = map_->endpoints();
  for (const FleetEndpoint& endpoint : new_map.endpoints()) {
    if (!Contains(everyone, endpoint)) everyone.push_back(endpoint);
  }
  const std::string map_bytes = new_map.ToBytes();
  bool published_ok = true;
  for (const FleetEndpoint& endpoint : everyone) {
    ParkClient client(options_.client, endpoint.host, endpoint.port);
    MigrationReport::MapPush push{endpoint.ToString(),
                                  client.SwapFleetMap(map_bytes)};
    if (!push.push.ok() && Contains(new_map.endpoints(), endpoint)) {
      published_ok = false;
    }
    report.map_pushes.push_back(std::move(push));
  }
  report.ok = published_ok;
  return report;
}

RolloutReport FleetAdmin::RolloutSnapshot(
    const std::string& park_id, const std::string& snapshot_bytes,
    const std::string& previous_snapshot_bytes) {
  RolloutReport report;
  const std::vector<int> replicas = map_->ReplicasFor(park_id);
  report.replicas.reserve(replicas.size());

  const StatusOr<RiskMaps> want = ReferenceMaps(snapshot_bytes);
  size_t advanced = 0;
  bool failed = false;
  for (int endpoint_index : replicas) {
    RolloutReport::ReplicaResult result;
    result.endpoint_index = endpoint_index;
    PushAndVerify(options_.client, map_->endpoints()[endpoint_index], park_id,
                  snapshot_bytes, want, &result.push, &result.verify);
    const bool ok = result.push.ok() && result.verify.ok();
    report.replicas.push_back(std::move(result));
    if (!ok) {
      failed = true;
      break;  // verify-before-advance: do not touch the next replica
    }
    ++advanced;
  }

  if (!failed) {
    report.ok = true;
    return report;
  }
  if (previous_snapshot_bytes.empty() || advanced == 0) {
    return report;
  }
  // Roll the already-advanced replicas back to the previous artifact so
  // the park's replica set converges on one version again.
  report.rollback_attempted = true;
  report.rollback_ok = true;
  for (size_t i = 0; i < advanced; ++i) {
    RolloutReport::ReplicaResult& result = report.replicas[i];
    const FleetEndpoint& endpoint = map_->endpoints()[result.endpoint_index];
    ParkClient client(options_.client, endpoint.host, endpoint.port);
    if (client.SwapSnapshot(park_id, previous_snapshot_bytes).ok()) {
      result.rolled_back = true;
    } else {
      report.rollback_ok = false;
    }
  }
  return report;
}

}  // namespace paws

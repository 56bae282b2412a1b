#include "fleet/fleet_admin.h"

#include <algorithm>
#include <set>
#include <utility>

#include "core/snapshot.h"

namespace paws {

FleetAdmin::FleetAdmin(const FleetMap* map, FleetAdminOptions options)
    : map_(map), options_(std::move(options)) {}

Status FleetAdmin::PushSnapshotTo(const FleetEndpoint& endpoint,
                                  const std::string& park_id,
                                  const std::string& snapshot_bytes) {
  ParkClient client(options_.client);
  PAWS_RETURN_IF_ERROR(client.Connect(endpoint.host, endpoint.port));
  return client.SwapSnapshot(park_id, snapshot_bytes);
}

Status FleetAdmin::PushTo(int endpoint_index, const std::string& park_id,
                          const std::string& snapshot_bytes) {
  return PushSnapshotTo(map_->endpoints()[endpoint_index], park_id,
                        snapshot_bytes);
}

Status FleetAdmin::VerifyEndpoint(const FleetEndpoint& endpoint,
                                  const std::string& park_id,
                                  const std::string& snapshot_bytes) {
  // The reference result: what the artifact itself serves, computed
  // locally. Decoding also re-validates the bytes end to end.
  PAWS_ASSIGN_OR_RETURN(ModelSnapshot snapshot,
                        ModelSnapshot::FromBytes(snapshot_bytes));
  // Any effort the snapshot can serve works: the comparison is bit-exact.
  constexpr double kVerifyEffort = 1.0;
  const RiskMaps want = snapshot.PredictRisk(kVerifyEffort);

  ParkClient client(options_.client);
  PAWS_RETURN_IF_ERROR(client.Connect(endpoint.host, endpoint.port));
  PAWS_ASSIGN_OR_RETURN(RiskMaps got,
                        client.RiskMap(park_id, kVerifyEffort));
  if (got.risk != want.risk || got.variance != want.variance) {
    return Status::Internal("fleet rollout verify: " + endpoint.ToString() +
                            " serves '" + park_id +
                            "' with bytes that differ from the pushed "
                            "artifact's local predictions");
  }
  return Status::OK();
}

Status FleetAdmin::VerifyReplica(int endpoint_index, const std::string& park_id,
                                 const std::string& snapshot_bytes) {
  return VerifyEndpoint(map_->endpoints()[endpoint_index], park_id,
                        snapshot_bytes);
}

StatusOr<std::string> FleetAdmin::PullSnapshot(const FleetEndpoint& endpoint,
                                               const std::string& park_id) {
  ParkClient client(options_.client);
  PAWS_RETURN_IF_ERROR(client.Connect(endpoint.host, endpoint.port));
  PAWS_ASSIGN_OR_RETURN(std::string bytes, client.GetSnapshot(park_id));
  // Validate before shipping anywhere: migration must move artifacts, not
  // propagate damage.
  PAWS_RETURN_IF_ERROR(ModelSnapshot::FromBytes(bytes).status());
  return bytes;
}

Status FleetAdmin::PushMapTo(const FleetEndpoint& endpoint,
                             const std::string& map_bytes) {
  ParkClient client(options_.client);
  PAWS_RETURN_IF_ERROR(client.Connect(endpoint.host, endpoint.port));
  return client.SwapFleetMap(map_bytes);
}

MigrationReport FleetAdmin::MigrateParks(
    const FleetMap& new_map, const std::vector<std::string>& park_ids) {
  MigrationReport report;
  const std::vector<std::string> moved =
      ParksMoved(*map_, new_map, park_ids);
  report.parks_unchanged = park_ids.size() - moved.size();

  // Address → endpoint over both generations; migration works in
  // addresses because the same daemon usually sits at different indices
  // in the two maps.
  std::vector<FleetEndpoint> union_endpoints = map_->endpoints();
  std::set<std::string> union_seen;
  for (const FleetEndpoint& ep : union_endpoints) {
    union_seen.insert(ep.ToString());
  }
  for (const FleetEndpoint& ep : new_map.endpoints()) {
    if (union_seen.insert(ep.ToString()).second) {
      union_endpoints.push_back(ep);
    }
  }
  auto endpoint_by_address = [&](const std::string& address) {
    for (const FleetEndpoint& ep : union_endpoints) {
      if (ep.ToString() == address) return ep;
    }
    return FleetEndpoint{};  // unreachable: addresses come from the maps
  };

  bool all_moves_ok = true;
  for (const std::string& park_id : moved) {
    MigrationReport::ParkMove move;
    move.park_id = park_id;

    const std::vector<std::string> old_addrs =
        ReplicaAddresses(*map_, park_id);
    const std::vector<std::string> new_addrs =
        ReplicaAddresses(new_map, park_id);

    // Pull the artifact from the first old replica that serves it. Every
    // old replica holds the park, so one healthy daemon suffices.
    std::string snapshot_bytes;
    move.pull = Status::Internal("migrate '" + park_id +
                                 "': no old replica reachable");
    for (const std::string& address : old_addrs) {
      StatusOr<std::string> pulled =
          PullSnapshot(endpoint_by_address(address), park_id);
      if (pulled.ok()) {
        snapshot_bytes = std::move(pulled).value();
        move.source = address;
        move.pull = Status::OK();
        break;
      }
      move.pull = pulled.status();
    }

    if (move.pull.ok()) {
      move.ok = true;
      for (const std::string& address : new_addrs) {
        // Only daemons *gaining* the park need the artifact.
        if (std::find(old_addrs.begin(), old_addrs.end(), address) !=
            old_addrs.end()) {
          continue;
        }
        MigrationReport::TargetResult target;
        target.address = address;
        const FleetEndpoint endpoint = endpoint_by_address(address);
        target.push = PushSnapshotTo(endpoint, park_id, snapshot_bytes);
        if (target.push.ok()) {
          target.verify = VerifyEndpoint(endpoint, park_id, snapshot_bytes);
        }
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

  // Publish the new generation. New-map endpoints are mandatory (routers
  // handshake against them); old-only endpoints are best effort (they may
  // already be draining out of the fleet).
  const std::string map_bytes = new_map.ToBytes();
  std::set<std::string> new_addresses;
  for (const FleetEndpoint& ep : new_map.endpoints()) {
    new_addresses.insert(ep.ToString());
  }
  bool published_ok = true;
  for (const FleetEndpoint& ep : union_endpoints) {
    MigrationReport::MapPush push;
    push.address = ep.ToString();
    push.push = PushMapTo(ep, map_bytes);
    if (!push.push.ok() && new_addresses.count(push.address) > 0) {
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

  size_t advanced = 0;
  bool failed = false;
  for (int endpoint_index : replicas) {
    RolloutReport::ReplicaResult result;
    result.endpoint_index = endpoint_index;
    result.push = PushTo(endpoint_index, park_id, snapshot_bytes);
    if (result.push.ok() && options_.verify) {
      result.verify = VerifyReplica(endpoint_index, park_id, snapshot_bytes);
    }
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
    const Status rolled =
        PushTo(result.endpoint_index, park_id, previous_snapshot_bytes);
    if (rolled.ok()) {
      result.rolled_back = true;
    } else {
      report.rollback_ok = false;
    }
  }
  return report;
}

}  // namespace paws

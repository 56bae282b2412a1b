#ifndef PAWS_FLEET_FLEET_ADMIN_H_
#define PAWS_FLEET_FLEET_ADMIN_H_

#include <string>
#include <vector>

#include "fleet/fleet_map.h"
#include "net/client.h"
#include "util/status.h"

namespace paws {

struct FleetAdminOptions {
  /// Per-replica client options; snapshot archives are the largest frames
  /// the fleet moves, so the request timeout is generous.
  ClientOptions client;

  FleetAdminOptions() {
    client.connect_timeout_ms = 2000;
    client.max_connect_attempts = 2;
    client.request_timeout_ms = 60000;
  }
};

/// Outcome of one elastic-resize bulk migration (FleetAdmin::MigrateParks).
struct MigrationReport {
  struct TargetResult {
    /// "host:port" of the daemon that gained the park.
    std::string address;
    /// The SwapSnapshot push (upsert) of the moved artifact.
    Status push;
    /// The bit-exact read-back (verify-before-advance).
    Status verify;
  };
  struct ParkMove {
    std::string park_id;
    /// "host:port" of the old replica the artifact was pulled from.
    std::string source;
    /// The kGetSnapshot pull.
    Status pull;
    std::vector<TargetResult> targets;
    /// Pull succeeded and every target pushed + verified.
    bool ok = false;
  };
  struct MapPush {
    std::string address;
    Status push;
  };

  /// One entry per park whose replica set changed.
  std::vector<ParkMove> moves;
  /// Parks whose replica addresses are identical in both maps (nothing
  /// to move).
  uint64_t parks_unchanged = 0;
  /// kSwapFleetMap publications, one per endpoint of the old∪new union —
  /// only attempted after every move verified.
  std::vector<MapPush> map_pushes;
  /// Every move verified and every *new-map* endpoint stored the map
  /// (old-only endpoints are best-effort: they may already be draining).
  bool ok = false;
};

/// Outcome of one fleet-wide snapshot rollout.
struct RolloutReport {
  struct ReplicaResult {
    int endpoint_index = -1;
    /// The SwapSnapshot push (upsert) to this replica.
    Status push;
    /// The verify-before-advance read-back (OK when the push failed, so
    /// nothing was read back).
    Status verify;
    /// This replica had already advanced and was reverted to the
    /// previous artifact after a later failure.
    bool rolled_back = false;
  };
  std::vector<ReplicaResult> replicas;
  /// Every replica pushed and verified.
  bool ok = false;
  /// A failure triggered re-pushing the previous artifact.
  bool rollback_attempted = false;
  /// All rollback pushes succeeded (meaningful when rollback_attempted).
  bool rollback_ok = false;
};

/// Sequences the per-daemon zero-downtime snapshot swap (wire
/// SwapSnapshot, an upsert) across every replica of a park:
///
///   compute the artifact's risk map locally, once
///   for each replica in FleetMap preference order, over one connection:
///     1. push the new snapshot archive        (SwapSnapshot upsert)
///     2. read back a risk map and compare it  (verify-before-advance)
///        bit-exactly against the local one
///   on any failure: re-push the previous artifact to the replicas that
///   already advanced (rollback), so the fleet never stays split between
///   versions.
///
/// The verify step is the fleet-level form of the repo's bit-identity
/// guarantee: a replica that answers with anything but the exact bytes
/// the new artifact produces locally is not serving that artifact —
/// wrong file pushed, disk corruption survived CRC, version skew — and
/// the rollout must not proceed past it.
///
/// FleetAdmin addresses replicas explicitly (no failover): a rollout
/// that cannot reach a replica must fail loudly, not quietly converge on
/// the subset that was up.
class FleetAdmin {
 public:
  /// `map` must outlive the admin.
  explicit FleetAdmin(const FleetMap* map, FleetAdminOptions options = {});

  /// Rolls `snapshot_bytes` out to every replica of `park_id`.
  /// `previous_snapshot_bytes` is the rollback artifact (the operator
  /// holds both versions — snapshots are files); empty disables rollback.
  /// The returned report is populated even on failure; the Status is OK
  /// iff every replica advanced (rollbacks still return the failure).
  RolloutReport RolloutSnapshot(const std::string& park_id,
                                const std::string& snapshot_bytes,
                                const std::string& previous_snapshot_bytes = "");

  /// The verify primitive, exposed for operator tooling: does
  /// `endpoint_index` serve `park_id` bit-identically to what
  /// `snapshot_bytes` produces locally (risk maps at effort 1.0)?
  Status VerifyReplica(int endpoint_index, const std::string& park_id,
                       const std::string& snapshot_bytes);

  /// Elastic resize: migrates every park of `park_ids` whose replica
  /// endpoint set differs between the admin's current map (before) and
  /// `new_map` (after), then publishes `new_map` to the fleet.
  ///
  ///   for each moved park:
  ///     1. pull its snapshot archive from an old replica  (kGetSnapshot)
  ///        and compute its risk map locally, once
  ///     2. push it to each newly-gained replica            (SwapSnapshot)
  ///     3. read back over the same connection and compare  (verify)
  ///   only when every move verified: publish the new map artifact to the
  ///   old∪new endpoint union (kSwapFleetMap), which flips the routers'
  ///   kMapVersion handshake to the new generation.
  ///
  /// Verify-before-advance at fleet scale: a failed move leaves the old
  /// map in force everywhere — routers keep routing on the old replica
  /// sets, which still hold every park.
  MigrationReport MigrateParks(const FleetMap& new_map,
                               const std::vector<std::string>& park_ids);

 private:
  const FleetMap* map_;
  FleetAdminOptions options_;
};

}  // namespace paws

#endif  // PAWS_FLEET_FLEET_ADMIN_H_

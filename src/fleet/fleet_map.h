#ifndef PAWS_FLEET_FLEET_MAP_H_
#define PAWS_FLEET_FLEET_MAP_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/archive.h"
#include "util/status.h"

namespace paws {

/// One `paws_serve` daemon address in a fleet.
struct FleetEndpoint {
  std::string host;
  int port = 0;

  bool operator==(const FleetEndpoint& other) const {
    return host == other.host && port == other.port;
  }
  /// "host:port" — the form operators write in configs and logs.
  std::string ToString() const;
  /// The inverse of ToString, split at the last ':'. Refuses, with
  /// InvalidArgument, what FleetMap would: an empty host, or a port that
  /// is not all digits in [1, 65535].
  static StatusOr<FleetEndpoint> Parse(const std::string& address);
};

template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, FleetEndpoint> e) {
  io(e.host, e.port);
}

/// Stable 64-bit string hash (FNV-1a with a 64-bit avalanche finalizer).
/// This is part of the fleet wire contract: every router and admin tool
/// must place the same park id at the same ring position regardless of
/// platform or toolchain, so the hash is pinned here rather than
/// delegated to std::hash (whose value is implementation-defined).
uint64_t FleetHash64(const std::string& s);

/// The fleet routing configuration: a consistent-hash ring mapping park
/// ids onto N shard endpoints with R replicas per park.
///
/// Like a ModelSnapshot, a FleetMap is an explicit versioned artifact
/// serialized through the archive layer — it is distributed to routers,
/// checked into ops repos and audited like any other deployment input,
/// and `version()` gives rollouts a total order.
///
/// Ring construction: every endpoint contributes `vnodes_per_endpoint`
/// virtual points at FleetHash64("host:port#k"); a park id hashes to one
/// point and its replica set is the next R *distinct* endpoints clockwise.
/// Properties the fleet relies on (enforced by tests/fleet_map_test.cc):
///  - deterministic: the same (map bytes, park id) pair yields the same
///    replica list in every process, forever — routing is rebalance-free;
///  - minimal disruption: adding or removing one endpoint only remaps the
///    parks whose ring arcs touch it, ~1/N of the key space;
///  - balanced: virtual nodes spread each endpoint around the ring, so
///    shard load under a uniform park population is near-even.
class FleetMap {
 public:
  /// Validates and builds the ring. `replication` is clamped to the
  /// endpoint count at lookup time, not here, so a 2-replica map over 3
  /// endpoints and the same map grown to 5 endpoints are one config.
  static StatusOr<FleetMap> Create(std::vector<FleetEndpoint> endpoints,
                                   int replication, uint64_t version = 1,
                                   int vnodes_per_endpoint = 64);

  uint64_t version() const { return version_; }
  int replication() const { return replication_; }
  int vnodes_per_endpoint() const { return vnodes_; }
  const std::vector<FleetEndpoint>& endpoints() const { return endpoints_; }
  int num_endpoints() const { return static_cast<int>(endpoints_.size()); }

  /// Endpoint indices serving `park_id`, preference order (primary
  /// first), min(replication, num_endpoints) entries, no duplicates.
  std::vector<int> ReplicasFor(const std::string& park_id) const;

  /// ReplicasFor(park_id)[0].
  int PreferredFor(const std::string& park_id) const;

  /// Archived as an "FMAP" section. The ring is derived state — only
  /// version, replication, vnode count and endpoints travel, and a read
  /// re-validates them through Create.
  /// Each endpoint is checked as it is read, and a count above the cap is
  /// refused before any endpoint parses.
  static constexpr ArchiveSection kArchiveSection{FourCc("FMAP"), 1};
  template <typename Io>
  friend void ArchiveFields(Io& io, ArchiveRef<Io, FleetMap> m) {
    io(m.version_, m.replication_, m.vnodes_,
       ArchiveGuarded(m.endpoints_, kMaxEndpoints, &FleetMap::CheckEndpoint));
  }
  friend Status ArchiveLoaded(FleetMap& map);

  /// Whole-artifact conveniences mirroring ModelSnapshot's.
  std::string ToBytes() const { return ToArchiveBytes(*this); }
  static StatusOr<FleetMap> FromBytes(const std::string& bytes);
  Status WriteFile(const std::string& path) const {
    return WriteArchiveFile(*this, path);
  }
  static StatusOr<FleetMap> ReadFile(const std::string& path);

 private:
  friend struct FleetEndpoint;
  static constexpr int kMaxEndpoints = 4096;

  FleetMap() = default;
  /// A non-empty host and a port in [1, 65535].
  static Status CheckEndpoint(const FleetEndpoint& endpoint);
  void BuildRing();

  uint64_t version_ = 1;
  int replication_ = 1;
  int vnodes_ = 64;
  std::vector<FleetEndpoint> endpoints_;
  /// Sorted (ring position, endpoint index); rebuilt on Create/Load.
  std::vector<std::pair<uint64_t, int>> ring_;
};

/// The endpoints of ReplicasFor(park_id), preference order. Replica
/// *indices* are map-relative (the same daemon can sit at index 2 in one
/// map and index 0 in its successor), so cross-map comparisons — the
/// elastic-resize diff — must compare endpoints.
std::vector<FleetEndpoint> ReplicaEndpoints(const FleetMap& map,
                                            const std::string& park_id);

/// The subset of `park_ids` whose replica *endpoint set* differs between
/// `before` and `after` — the parks an elastic resize must migrate.
/// Preference-order changes among the same endpoints do not count: every
/// replica already holds the artifact, so nothing needs to move.
std::vector<std::string> ParksMoved(const FleetMap& before,
                                    const FleetMap& after,
                                    const std::vector<std::string>& park_ids);

}  // namespace paws

#endif  // PAWS_FLEET_FLEET_MAP_H_

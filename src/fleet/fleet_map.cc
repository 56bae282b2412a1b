#include "fleet/fleet_map.h"

#include <algorithm>
#include <set>
#include <utility>

namespace paws {
namespace {

constexpr int kMaxVnodes = 1024;

}  // namespace

std::string FleetEndpoint::ToString() const {
  return host + ":" + std::to_string(port);
}

StatusOr<FleetEndpoint> FleetEndpoint::Parse(const std::string& address) {
  const auto bad = [&] {
    return Status::InvalidArgument("bad endpoint '" + address +
                                   "' (want host:port)");
  };
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon + 1 == address.size()) return bad();
  FleetEndpoint endpoint{address.substr(0, colon), 0};
  for (size_t i = colon + 1; i < address.size(); ++i) {
    if (address[i] < '0' || address[i] > '9') return bad();
    // Saturates past the range, so no run of digits can overflow.
    endpoint.port = std::min(endpoint.port * 10 + (address[i] - '0'), 65536);
  }
  PAWS_RETURN_IF_ERROR(FleetMap::CheckEndpoint(endpoint));
  return endpoint;
}

uint64_t FleetHash64(const std::string& s) {
  // FNV-1a, 64-bit, then a full avalanche finalizer. Pinned constants:
  // the ring layout is a cross-process contract (see header).
  //
  // The finalizer is load-bearing, not cosmetic. Raw FNV-1a moves the
  // hash by multiples of the FNV prime (~2^40) when only the last
  // character changes, so same-length ids like "park-0".."park-9" land
  // within a sliver of the 2^64 ring and share one primary shard — a
  // systematic imbalance, not a statistical one. The mix (murmur3's
  // fmix64) spreads every input bit across all 64 output bits.
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= static_cast<uint64_t>(c);
    h *= 1099511628211ull;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

StatusOr<FleetMap> FleetMap::Create(std::vector<FleetEndpoint> endpoints,
                                    int replication, uint64_t version,
                                    int vnodes_per_endpoint) {
  if (endpoints.empty()) {
    return Status::InvalidArgument("FleetMap: endpoint list is empty");
  }
  if (static_cast<int>(endpoints.size()) > kMaxEndpoints) {
    return Status::InvalidArgument("FleetMap: too many endpoints");
  }
  if (replication < 1) {
    return Status::InvalidArgument("FleetMap: replication must be >= 1");
  }
  if (vnodes_per_endpoint < 1 || vnodes_per_endpoint > kMaxVnodes) {
    return Status::InvalidArgument("FleetMap: vnodes_per_endpoint out of range");
  }
  std::set<std::string> seen;
  for (const FleetEndpoint& endpoint : endpoints) {
    PAWS_RETURN_IF_ERROR(CheckEndpoint(endpoint));
    if (!seen.insert(endpoint.ToString()).second) {
      return Status::InvalidArgument("FleetMap: duplicate endpoint " +
                                     endpoint.ToString());
    }
  }
  FleetMap map;
  map.version_ = version;
  map.replication_ = replication;
  map.vnodes_ = vnodes_per_endpoint;
  map.endpoints_ = std::move(endpoints);
  map.BuildRing();
  return map;
}

Status FleetMap::CheckEndpoint(const FleetEndpoint& endpoint) {
  if (endpoint.host.empty()) {
    return Status::InvalidArgument("FleetMap: endpoint host is empty");
  }
  if (endpoint.port < 1 || endpoint.port > 65535) {
    return Status::InvalidArgument("FleetMap: endpoint port out of range: " +
                                   endpoint.ToString());
  }
  return Status::OK();
}

void FleetMap::BuildRing() {
  ring_.clear();
  ring_.reserve(endpoints_.size() * static_cast<size_t>(vnodes_));
  for (int e = 0; e < num_endpoints(); ++e) {
    const std::string base = endpoints_[e].ToString() + "#";
    for (int v = 0; v < vnodes_; ++v) {
      ring_.emplace_back(FleetHash64(base + std::to_string(v)), e);
    }
  }
  // Ties (astronomically unlikely 64-bit hash collisions) break by
  // endpoint index so the ring order is still fully deterministic.
  std::sort(ring_.begin(), ring_.end());
}

std::vector<int> FleetMap::ReplicasFor(const std::string& park_id) const {
  const uint64_t point = FleetHash64(park_id);
  const int want = std::min(replication_, num_endpoints());
  std::vector<int> replicas;
  replicas.reserve(want);
  // First ring entry at or after the park's point, wrapping.
  size_t start = std::lower_bound(ring_.begin(), ring_.end(),
                                  std::make_pair(point, 0)) -
                 ring_.begin();
  for (size_t step = 0;
       step < ring_.size() && static_cast<int>(replicas.size()) < want;
       ++step) {
    const int endpoint = ring_[(start + step) % ring_.size()].second;
    if (std::find(replicas.begin(), replicas.end(), endpoint) ==
        replicas.end()) {
      replicas.push_back(endpoint);
    }
  }
  return replicas;
}

int FleetMap::PreferredFor(const std::string& park_id) const {
  return ReplicasFor(park_id)[0];
}

Status ArchiveLoaded(FleetMap& map) {
  // Create re-validates, so a hand-edited or corrupted config that decodes
  // cleanly still cannot produce an unusable map.
  PAWS_ASSIGN_OR_RETURN(map, FleetMap::Create(std::move(map.endpoints_),
                                              map.replication_, map.version_,
                                              map.vnodes_));
  return Status::OK();
}

StatusOr<FleetMap> FleetMap::FromBytes(const std::string& bytes) {
  FleetMap map;
  PAWS_RETURN_IF_ERROR(FromArchiveBytes(bytes, &map));
  return map;
}

StatusOr<FleetMap> FleetMap::ReadFile(const std::string& path) {
  FleetMap map;
  PAWS_RETURN_IF_ERROR(ReadArchiveFile(path, &map));
  return map;
}

std::vector<FleetEndpoint> ReplicaEndpoints(const FleetMap& map,
                                            const std::string& park_id) {
  std::vector<FleetEndpoint> endpoints;
  for (int index : map.ReplicasFor(park_id)) {
    endpoints.push_back(map.endpoints()[index]);
  }
  return endpoints;
}

std::vector<std::string> ParksMoved(const FleetMap& before,
                                    const FleetMap& after,
                                    const std::vector<std::string>& park_ids) {
  std::vector<std::string> moved;
  for (const std::string& park_id : park_ids) {
    const std::vector<FleetEndpoint> old_set =
        ReplicaEndpoints(before, park_id);
    const std::vector<FleetEndpoint> new_set = ReplicaEndpoints(after, park_id);
    if (!std::is_permutation(old_set.begin(), old_set.end(), new_set.begin(),
                             new_set.end())) {
      moved.push_back(park_id);
    }
  }
  return moved;
}

}  // namespace paws

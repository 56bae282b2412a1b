// FleetMap: the consistent-hash routing artifact. The properties the
// fleet relies on — pinned cross-process hash, deterministic replica
// sets, near-even shard balance (including over the sequential
// "park-N" ids real fleets use), minimal disruption on resize, archive
// round trip with full re-validation — each get locked down here.
#include "fleet/fleet_map.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/archive.h"

namespace paws {
namespace {

std::vector<FleetEndpoint> MakeEndpoints(int n, int base_port = 9000) {
  std::vector<FleetEndpoint> endpoints;
  for (int i = 0; i < n; ++i) {
    endpoints.push_back(FleetEndpoint{"10.0.0." + std::to_string(i + 1),
                                      base_port + i});
  }
  return endpoints;
}

TEST(FleetHashTest, PinnedGoldenValues) {
  // These exact values are the fleet wire contract: every router, admin
  // tool and daemon must agree on them across platforms and toolchains.
  // If this test fails, the hash changed and every deployed FleetMap's
  // routing moved — that is a breaking protocol change, not a refactor.
  EXPECT_EQ(FleetHash64(""), 15503018906515740718ull);
  EXPECT_EQ(FleetHash64("park-0"), 7169767756024159771ull);
  EXPECT_EQ(FleetHash64("park-119"), 18106527406874349785ull);
  EXPECT_EQ(FleetHash64("10.0.0.7:9000#0"), 17487373002201024949ull);
  EXPECT_EQ(FleetHash64("10.0.0.7:9000#63"), 10009578936246408859ull);
}

TEST(FleetMapTest, CreateValidatesItsInputs) {
  EXPECT_FALSE(FleetMap::Create({}, 2).ok());
  EXPECT_FALSE(FleetMap::Create(MakeEndpoints(3), 0).ok());
  EXPECT_FALSE(FleetMap::Create(MakeEndpoints(3), -1).ok());
  EXPECT_FALSE(
      FleetMap::Create(MakeEndpoints(3), 2, 1, /*vnodes_per_endpoint=*/0)
          .ok());
  EXPECT_FALSE(
      FleetMap::Create(MakeEndpoints(3), 2, 1, /*vnodes_per_endpoint=*/4096)
          .ok());

  auto dup = MakeEndpoints(2);
  dup.push_back(dup[0]);
  EXPECT_FALSE(FleetMap::Create(dup, 2).ok());

  auto bad_port = MakeEndpoints(2);
  bad_port[1].port = 0;
  EXPECT_FALSE(FleetMap::Create(bad_port, 2).ok());
  bad_port[1].port = 70000;
  EXPECT_FALSE(FleetMap::Create(bad_port, 2).ok());

  auto empty_host = MakeEndpoints(2);
  empty_host[0].host.clear();
  EXPECT_FALSE(FleetMap::Create(empty_host, 2).ok());

  EXPECT_TRUE(FleetMap::Create(MakeEndpoints(1), 1).ok());
}

// FleetEndpoint::Parse reads operator and peer input ("host:port" in
// --endpoints and in kRepair sources) by the rule FleetMap enforces: split
// at the last ':', a non-empty host, an all-digit port in [1, 65535].
TEST(FleetEndpointTest, ParseAcceptsHostPortAndRefusesEverythingElse) {
  const auto good = FleetEndpoint::Parse("10.0.0.7:9000");
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good->host, "10.0.0.7");
  EXPECT_EQ(good->port, 9000);
  const auto last_colon = FleetEndpoint::Parse("::1:65535");
  ASSERT_TRUE(last_colon.ok()) << last_colon.status();
  EXPECT_EQ(last_colon->host, "::1");
  EXPECT_EQ(last_colon->port, 65535);

  for (const std::string bad :
       {"10.0.0.7", "10.0.0.7:", ":9000", "10.0.0.7:0", "10.0.0.7:65536",
        "10.0.0.7:9000junk", "10.0.0.7: 9000", "10.0.0.7:-1",
        "10.0.0.7:12345678901234567890"}) {
    const auto parsed = FleetEndpoint::Parse(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }

  for (const FleetEndpoint& endpoint : MakeEndpoints(3)) {
    const auto round_trip = FleetEndpoint::Parse(endpoint.ToString());
    ASSERT_TRUE(round_trip.ok()) << round_trip.status();
    EXPECT_EQ(*round_trip, endpoint);
  }
}

TEST(FleetMapTest, ReplicaSetsAreDistinctOrderedAndClamped) {
  auto map = FleetMap::Create(MakeEndpoints(3), /*replication=*/2);
  ASSERT_TRUE(map.ok());
  for (int p = 0; p < 50; ++p) {
    const std::string id = "park-" + std::to_string(p);
    const std::vector<int> replicas = map->ReplicasFor(id);
    ASSERT_EQ(replicas.size(), 2u) << id;
    EXPECT_NE(replicas[0], replicas[1]) << id;
    EXPECT_EQ(map->PreferredFor(id), replicas[0]) << id;
    // Deterministic: asking again yields the identical list.
    EXPECT_EQ(map->ReplicasFor(id), replicas) << id;
  }

  // Replication above the endpoint count clamps at lookup time: the same
  // config works before and after the fleet grows.
  auto wide = FleetMap::Create(MakeEndpoints(2), /*replication=*/3);
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide->ReplicasFor("park-1").size(), 2u);
}

TEST(FleetMapTest, SequentialParkIdsBalanceAcrossShards) {
  // Regression guard for the ring hash: raw FNV-1a (no finalizer) places
  // same-length sequential ids in one sliver of the ring, starving whole
  // shards. Fleet populations ARE sequential ids, so balance is asserted
  // on exactly that shape: every endpoint must be primary for a
  // non-trivial share of parks.
  const int kEndpoints = 5;
  const int kParks = 2000;
  auto map = FleetMap::Create(MakeEndpoints(kEndpoints), /*replication=*/2);
  ASSERT_TRUE(map.ok());
  std::vector<int> primaries(kEndpoints, 0);
  for (int p = 0; p < kParks; ++p) {
    primaries[map->PreferredFor("park-" + std::to_string(p))] += 1;
  }
  const double fair = static_cast<double>(kParks) / kEndpoints;
  for (int e = 0; e < kEndpoints; ++e) {
    EXPECT_GT(primaries[e], fair * 0.5) << "endpoint " << e << " starved";
    EXPECT_LT(primaries[e], fair * 1.7) << "endpoint " << e << " overloaded";
  }
}

TEST(FleetMapTest, GrowingTheFleetRemapsOnlyAFractionOfParks) {
  // Consistent hashing's point: adding one endpoint to N=4 should move
  // ~1/5 of primaries, not reshuffle everything (mod hashing moves ~4/5).
  const int kParks = 2000;
  auto before = FleetMap::Create(MakeEndpoints(4), /*replication=*/2);
  auto after = FleetMap::Create(MakeEndpoints(5), /*replication=*/2);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(after.ok());
  int moved = 0;
  for (int p = 0; p < kParks; ++p) {
    const std::string id = "park-" + std::to_string(p);
    if (before->PreferredFor(id) != after->PreferredFor(id)) moved += 1;
  }
  EXPECT_GT(moved, 0);  // the new endpoint does take traffic
  EXPECT_LT(moved, kParks * 45 / 100);
}

TEST(FleetMapTest, ArchiveRoundTripPreservesRoutingExactly) {
  auto original =
      FleetMap::Create(MakeEndpoints(4), /*replication=*/3,
                       /*version=*/7, /*vnodes_per_endpoint=*/32);
  ASSERT_TRUE(original.ok());
  const std::string bytes = original->ToBytes();
  auto restored = FleetMap::FromBytes(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();

  EXPECT_EQ(restored->version(), 7u);
  EXPECT_EQ(restored->replication(), 3);
  EXPECT_EQ(restored->vnodes_per_endpoint(), 32);
  ASSERT_EQ(restored->endpoints().size(), original->endpoints().size());
  for (size_t e = 0; e < original->endpoints().size(); ++e) {
    EXPECT_TRUE(restored->endpoints()[e] == original->endpoints()[e]);
  }
  // The property that matters: the restored map routes every id to the
  // identical replica list — the ring rebuild is deterministic.
  for (int p = 0; p < 200; ++p) {
    const std::string id = "park-" + std::to_string(p);
    EXPECT_EQ(restored->ReplicasFor(id), original->ReplicasFor(id)) << id;
  }
}

TEST(FleetMapTest, CorruptAndTrailingGarbageArtifactsAreRejected) {
  auto map = FleetMap::Create(MakeEndpoints(3), 2);
  ASSERT_TRUE(map.ok());
  const std::string bytes = map->ToBytes();

  EXPECT_FALSE(FleetMap::FromBytes("").ok());
  EXPECT_FALSE(FleetMap::FromBytes("not an archive").ok());
  EXPECT_FALSE(FleetMap::FromBytes(bytes + "x").ok());  // trailing garbage
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;  // CRC must catch a payload flip
  EXPECT_FALSE(FleetMap::FromBytes(flipped).ok());
  EXPECT_FALSE(
      FleetMap::FromBytes(bytes.substr(0, bytes.size() - 3)).ok());
}

TEST(FleetMapTest, FileRoundTrip) {
  auto map = FleetMap::Create(MakeEndpoints(3), 2, /*version=*/42);
  ASSERT_TRUE(map.ok());
  const std::string path =
      ::testing::TempDir() + "/fleet_map_roundtrip.bin";
  ASSERT_TRUE(map->WriteFile(path).ok());
  auto loaded = FleetMap::ReadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->version(), 42u);
  EXPECT_EQ(loaded->ReplicasFor("park-7"), map->ReplicasFor("park-7"));
  EXPECT_FALSE(FleetMap::ReadFile(path + ".does-not-exist").ok());
}

}  // namespace
}  // namespace paws

// Pins the archive bytes of every artifact type a daemon loads from disk or
// from a peer: model snapshots (one per learner kind), the FleetMap and the
// FaultSchedule. Each fixture under tests/golden/ is loaded, saved again
// and compared byte for byte, so a codec change that alters the format
// fails here even when save and load change together.
// A byte round trip cannot see two same-typed fields swapped in both
// directions at once, so each fixture is also checked for meaning: the
// snapshots serve a whole-park risk map whose fingerprint is pinned, and
// the other artifacts expose the values they were written with.
//
// The fixtures are committed, not regenerated, so this test never depends
// on training arithmetic across toolchains. Recipe they were written with:
//   snapshot_{dtb,svb,gpb}.paws  PawsPipeline::SaveModel after
//       Scenario s = MakeScenario(ParkPreset::kMfnp, 21) with an 8x8 park
//       and 3 years, SimulateScenario(s, 7), Train(Rng(8)) on IWareConfig
//       {num_thresholds 2, cv_folds 2, min_subset_rows 10, weak learner
//       DTB/SVB/GPB, bagging.num_estimators 2, tree.max_depth 3,
//       gp.max_points 8, bagging.track_bootstrap_counts only for DTB}.
//   fleet_map.paws, fault_schedule.paws  the values the tests below check.
#include <cstring>
#include <string>
#include <vector>

#include "core/snapshot.h"
#include "fleet/fleet_map.h"
#include "gtest/gtest.h"
#include "net/fault_injector.h"
#include "util/archive.h"

namespace paws {
namespace {

std::string GoldenPath(const std::string& name) {
  std::string dir = __FILE__;
  dir.erase(dir.find_last_of('/') + 1);
  return dir + "golden/" + name;
}

std::string GoldenBytes(const std::string& name) {
  StatusOr<std::string> bytes = ReadFileToString(GoldenPath(name));
  CheckOrDie(bytes.ok(), "archive golden: fixture missing");
  return *bytes;
}

// FNV-1a over the IEEE-754 bit patterns, as `example_predict_park --hash`.
uint64_t Fingerprint(const RiskMaps& maps) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const std::vector<double>* layer : {&maps.risk, &maps.variance}) {
    for (double v : *layer) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      for (int i = 0; i < 8; ++i) {
        h ^= (bits >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

TEST(ArchiveGoldenTest, SnapshotsResaveByteForByteAndServePinnedMaps) {
  const struct {
    const char* file;
    uint64_t risk_map_fnv1a;
  } cases[] = {
      {"snapshot_dtb.paws", 0xd7f60c7423b180d7ull},
      {"snapshot_svb.paws", 0x6cf8ec55f67007c8ull},
      {"snapshot_gpb.paws", 0xfd90cbbb7ba05248ull},
  };
  for (const auto& c : cases) {
    const std::string bytes = GoldenBytes(c.file);
    const StatusOr<ModelSnapshot> snapshot = ModelSnapshot::FromBytes(bytes);
    ASSERT_TRUE(snapshot.ok()) << c.file << ": " << snapshot.status();
    ArchiveWriter resaved;
    snapshot->Save(&resaved);
    EXPECT_TRUE(resaved.Bytes() == bytes) << c.file;
    EXPECT_EQ(snapshot->park().num_cells(), 32) << c.file;
    EXPECT_EQ(snapshot->model().num_learners(), 2) << c.file;
    EXPECT_EQ(Fingerprint(snapshot->PredictRisk(1.5)), c.risk_map_fnv1a)
        << c.file << ": 0x" << std::hex
        << Fingerprint(snapshot->PredictRisk(1.5));
  }
}

TEST(ArchiveGoldenTest, FleetMapResavesByteForByte) {
  const std::string bytes = GoldenBytes("fleet_map.paws");
  const StatusOr<FleetMap> map = FleetMap::FromBytes(bytes);
  ASSERT_TRUE(map.ok()) << map.status();
  EXPECT_EQ(map->version(), 5u);
  EXPECT_EQ(map->replication(), 2);
  EXPECT_EQ(map->vnodes_per_endpoint(), 16);
  const std::vector<FleetEndpoint> endpoints = {
      {"10.0.0.1", 9000}, {"10.0.0.2", 9001}, {"shard-c.example", 7000}};
  EXPECT_TRUE(map->endpoints() == endpoints);
  EXPECT_TRUE(map->ToBytes() == bytes);
}

TEST(ArchiveGoldenTest, FaultScheduleResavesByteForByte) {
  const std::string bytes = GoldenBytes("fault_schedule.paws");
  const StatusOr<FaultSchedule> schedule = FaultSchedule::FromBytes(bytes);
  ASSERT_TRUE(schedule.ok()) << schedule.status();
  EXPECT_EQ(schedule->seed, 42u);
  ASSERT_EQ(schedule->rules.size(), 3u);
  const FaultRule& a = schedule->rules[0];
  EXPECT_EQ(a.endpoint, "10.0.0.2:9001");
  EXPECT_EQ(a.opcode, 1u);
  EXPECT_EQ(a.kind, FaultKind::kCorruptSend);
  EXPECT_EQ(a.param, 17u);
  EXPECT_EQ(a.skip, 2u);
  EXPECT_EQ(a.limit, 3u);
  EXPECT_EQ(a.probability, 0.5);
  const FaultRule& b = schedule->rules[1];
  EXPECT_EQ(b.endpoint, "");
  EXPECT_EQ(b.kind, FaultKind::kRecvDelay);
  EXPECT_EQ(b.param, 5u);
  EXPECT_EQ(b.limit, FaultRule::kNoLimit);
  EXPECT_EQ(b.probability, 1.0);
  const FaultRule& c = schedule->rules[2];
  EXPECT_EQ(c.endpoint, "shard-c.example:7000");
  EXPECT_EQ(c.kind, FaultKind::kChunkSend);
  EXPECT_EQ(c.param, 3u);
  EXPECT_EQ(c.limit, 1u);
  EXPECT_TRUE(schedule->ToBytes() == bytes);
}

}  // namespace
}  // namespace paws

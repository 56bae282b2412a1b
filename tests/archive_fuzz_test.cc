// Seeded reseal fuzzer over every archive type. The trailing CRC catches
// line noise, so a flipped byte alone never reaches the field decoders;
// here each mutant of 1-3 payload bytes gets a freshly computed CRC, which
// is what a buggy or hostile writer produces. Every decode must return a
// Status or a value — never abort, never trip a sanitizer — and a mutated
// snapshot that loads must also serve a whole-park risk map and a 4-cell
// curve table whose every risk is in [0, 1] and every variance finite and
// >= 0. The inputs are the ArchiveGoldenTest
// fixtures and the 19 WireGoldenTest payload instances. Everything is
// seeded from kSeed, so a failure replays exactly.
//
// Random flips rarely land a whole hostile double, so a second case is
// exhaustive instead: it writes NaN, -1 and +inf over every double-sized
// window of a golden snapshot that holds a plausible field value.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/snapshot.h"
#include "fleet/fleet_map.h"
#include "gtest/gtest.h"
#include "net/fault_injector.h"
#include "net/wire.h"
#include "util/archive.h"
#include "util/rng.h"

namespace paws {
namespace {

constexpr uint64_t kSeed = 20261016;
constexpr int kMutantsPerInput = 300;

std::string GoldenBytes(const std::string& name) {
  std::string path = __FILE__;
  path.erase(path.find_last_of('/') + 1);
  StatusOr<std::string> bytes = ReadFileToString(path + "golden/" + name);
  CheckOrDie(bytes.ok(), "archive fuzz: fixture missing");
  return *bytes;
}

constexpr int kHeaderBytes = 8, kCrcBytes = 4;

// Replaces the trailing CRC with one computed over the mutated bytes.
std::string Resealed(std::string bytes) {
  bytes.resize(bytes.size() - kCrcBytes);
  AppendU32(&bytes, Crc32(bytes.data(), bytes.size()));
  return bytes;
}

// Flips 1-3 payload bytes (never the header or the CRC) and reseals.
std::string Mutant(const std::string& archive, Rng* rng) {
  std::string bytes = archive;
  const int payload = static_cast<int>(bytes.size()) - kHeaderBytes -
                      kCrcBytes;
  const int flips = 1 + rng->UniformInt(3);
  for (int i = 0; i < flips; ++i) {
    const int at = kHeaderBytes + rng->UniformInt(payload);
    bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng->UniformInt(255)));
  }
  return Resealed(std::move(bytes));
}

struct Input {
  std::string name;
  std::string bytes;
  // Decodes one mutant and reports whether it loaded; a returned error is
  // fine, only aborts are not.
  std::function<bool(const std::string&)> decode;
};

template <typename Decoded>
std::function<bool(const std::string&)> Decoder(
    Decoded (*decode)(const std::string&)) {
  return [decode](const std::string& bytes) { return decode(bytes).ok(); };
}

// How many of `risk` lie outside [0, 1] or of `variance` outside
// [0, inf), NaN included.
int OutOfRange(const std::vector<double>& risk,
               const std::vector<double>& variance) {
  int bad = 0;
  for (const double r : risk) bad += !(r >= 0.0 && r <= 1.0);
  for (const double v : variance) bad += !(v >= 0.0 && std::isfinite(v));
  return bad;
}

bool ServeSnapshot(const std::string& bytes) {
  const StatusOr<ModelSnapshot> snapshot = ModelSnapshot::FromBytes(bytes);
  if (!snapshot.ok()) return false;
  const RiskMaps maps = snapshot->PredictRisk(1.5);
  EXPECT_EQ(static_cast<int>(maps.risk.size()), snapshot->park().num_cells());
  EXPECT_EQ(OutOfRange(maps.risk, maps.variance), 0)
      << "risk map values out of range";
  const EffortCurveTable curves =
      snapshot->PredictCellCurves({0, 1, 2, 3}, UniformEffortGrid(0, 4, 4));
  EXPECT_EQ(curves.num_cells, 4);
  EXPECT_EQ(OutOfRange(curves.prob, curves.variance), 0)
      << "curve table values out of range";
  return true;
}

std::vector<Input> ArchiveInputs() {
  std::vector<Input> inputs;
  for (const char* file :
       {"snapshot_dtb.paws", "snapshot_svb.paws", "snapshot_gpb.paws"}) {
    inputs.push_back({file, GoldenBytes(file), ServeSnapshot});
  }
  inputs.push_back({"fleet_map.paws", GoldenBytes("fleet_map.paws"),
                    Decoder(&FleetMap::FromBytes)});
  inputs.push_back({"fault_schedule.paws", GoldenBytes("fault_schedule.paws"),
                    Decoder(&FaultSchedule::FromBytes)});
  return inputs;
}

// The WireGoldenTest instance of each of the 19 payload shapes.
std::vector<Input> WireInputs() {
  PlanForPostRequest plan_request;
  plan_request.park_id = "sws";
  plan_request.post_index = 3;
  plan_request.config.horizon = 7;
  plan_request.config.num_patrols = 2;
  plan_request.config.pwl_segments = 5;
  plan_request.config.max_cell_effort = 1.25;
  plan_request.config.milp.max_nodes = 777;
  plan_request.config.milp.absolute_gap_tolerance = 1e-7;
  plan_request.config.milp.integrality_tolerance = 1e-8;
  plan_request.config.milp.use_rounding_heuristic = false;
  plan_request.config.milp.simplex.max_iterations = 12345;
  plan_request.config.milp.simplex.feasibility_tolerance = 2e-9;
  plan_request.config.milp.simplex.optimality_tolerance = 3e-9;
  plan_request.robust.beta = 0.75;
  plan_request.robust.squash_scale = 0.4;

  RiskMaps maps;
  maps.risk = {0.25, 0.5};
  maps.variance = {0.0625, 0.125};
  maps.assumed_effort = 2.0;

  RiskTile tile;
  tile.tile_id = 7;
  tile.cell_ids = {12, 13, 40, 41};
  tile.risk = {0.25, 1.0 / 3.0, 0.0, 1.0};
  tile.variance = {0.0, 1e-9, 0.125, 2.0 / 7.0};
  tile.assumed_effort = 1.5;

  EffortCurveTable curves;
  curves.effort_grid = {0.0, 1.0, 2.0};
  curves.qualified_count = {1, 2, 2};
  curves.num_cells = 2;
  curves.prob = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  curves.variance = {0.01, 0.02, 0.03, 0.04, 0.05, 0.06};

  PatrolPlan plan;
  plan.coverage = {0.0, 1.5, 0.25};
  plan.objective = 3.14159;
  plan.proven_optimal = true;
  plan.mip_gap = 1e-6;
  plan.simplex_iterations = 4242;
  plan.nodes_explored = 17;

  ServerStatsReport report{10, 2, 3, 100, 99, 1, 4, {}};
  report.parks = {{"a", 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                   "compiled-dtb-avx2"},
                  {"b", 0, 1, 0, 2, 3, 4, 5, 6, 7, 8, 9, "reference"}};

  return {
      {"STAT", EncodeStatusPayload(Status::NotFound("park 'mfnp'")),
       [](const std::string& bytes) {
         Status carried;
         return DecodeStatusPayload(bytes, &carried).ok();
       }},
      {"RQRM", EncodeRiskMapRequest({"mfnp", 0.1 + 0.2}),
       Decoder(&DecodeRiskMapRequest)},
      {"RQRT", EncodeRiskTileRequest({"mega", 3481, 1.5}),
       Decoder(&DecodeRiskTileRequest)},
      {"RQCC",
       EncodeCellCurvesRequest({"qenp", {0, 7, 42}, {0.0, 0.5, 1.0, 2.0}}),
       Decoder(&DecodeCellCurvesRequest)},
      {"RQPP", EncodePlanForPostRequest(plan_request),
       Decoder(&DecodePlanForPostRequest)},
      {"RQSS",
       EncodeSwapSnapshotRequest({"p", std::string("\x00\x01 snap\xff", 8)}),
       Decoder(&DecodeSwapSnapshotRequest)},
      {"RQST", EncodeStatsRequest({"sws"}), Decoder(&DecodeStatsRequest)},
      {"RQMV", EncodeMapVersionRequest({77}),
       Decoder(&DecodeMapVersionRequest)},
      {"RSMV", EncodeMapVersionResponse({9, true, "map"}),
       Decoder(&DecodeMapVersionResponse)},
      {"RQFM", EncodeSwapFleetMapRequest({"map artifact"}),
       Decoder(&DecodeSwapFleetMapRequest)},
      {"RQGS", EncodeGetSnapshotRequest({"pk-3"}),
       Decoder(&DecodeGetSnapshotRequest)},
      {"RSGS", EncodeGetSnapshotResponse({std::string("\x00\x7f\x80", 3)}),
       Decoder(&DecodeGetSnapshotResponse)},
      {"RQRP",
       EncodeRepairRequest({"pk-5", {"10.0.0.1:9000", "10.0.0.2:9000"}}),
       Decoder(&DecodeRepairRequest)},
      {"RSRP", EncodeRepairResponse({"repaired"}),
       Decoder(&DecodeRepairResponse)},
      {"RISK", EncodeRiskMapsPayload(maps), Decoder(&DecodeRiskMapsPayload)},
      {"RTIL", EncodeRiskTilePayload(tile), Decoder(&DecodeRiskTilePayload)},
      {"ECRV", EncodeEffortCurveTablePayload(curves),
       Decoder(&DecodeEffortCurveTablePayload)},
      {"PLAN", EncodePatrolPlanPayload(plan),
       Decoder(&DecodePatrolPlanPayload)},
      {"RSST", EncodeStatsReportPayload(report),
       Decoder(&DecodeStatsReportPayload)},
  };
}

TEST(ArchiveResealFuzzTest, ResealedMutantsDecodeToStatusOrValue) {
  std::printf("archive reseal fuzzer: seed %llu, %d mutants per input\n",
              static_cast<unsigned long long>(kSeed), kMutantsPerInput);
  std::vector<Input> inputs = ArchiveInputs();
  const std::vector<Input> wire = WireInputs();
  ASSERT_EQ(wire.size(), 19u);
  inputs.insert(inputs.end(), wire.begin(), wire.end());
  for (const Input& input : inputs) {
    Rng rng(kSeed);
    int loaded = 0;
    for (int m = 0; m < kMutantsPerInput; ++m) {
      SCOPED_TRACE(input.name + " mutant " + std::to_string(m) + " (seed " +
                   std::to_string(kSeed) + ")");
      loaded += input.decode(Mutant(input.bytes, &rng)) ? 1 : 0;
    }
    std::printf("  %-20s %3d of %d mutants loaded\n", input.name.c_str(),
                loaded, kMutantsPerInput);
  }
}

// Every 8-byte payload window of a golden snapshot that reads as a finite
// double with 1e-12 < |x| < 1e12 may hold a field value: a model
// parameter, a standardizer moment, a raster cell. Each such window is
// overwritten with NaN, with -1 and with +inf, and the archive resealed.
// Every mutant must fail to load or serve in range.
TEST(ArchiveResealFuzzTest, HostileDoublesFailToLoadOrServeInRange) {
  const double kHostile[] = {std::numeric_limits<double>::quiet_NaN(), -1.0,
                             std::numeric_limits<double>::infinity()};
  for (const char* file :
       {"snapshot_dtb.paws", "snapshot_svb.paws", "snapshot_gpb.paws"}) {
    const std::string golden = GoldenBytes(file);
    int windows = 0, loaded = 0;
    for (size_t at = kHeaderBytes; at + 8 + kCrcBytes <= golden.size();
         ++at) {
      double field = 0.0;
      const uint64_t bits = LoadU64(golden.data() + at);
      std::memcpy(&field, &bits, sizeof(field));
      if (!(std::isfinite(field) && std::fabs(field) > 1e-12 &&
            std::fabs(field) < 1e12)) {
        continue;
      }
      ++windows;
      for (const double value : kHostile) {
        SCOPED_TRACE(std::string(file) + " offset " + std::to_string(at) +
                     " := " + std::to_string(value));
        uint64_t hostile = 0;
        std::memcpy(&hostile, &value, sizeof(hostile));
        std::string bytes = golden.substr(0, at);
        AppendU64(&bytes, hostile);
        bytes.append(golden, at + 8, std::string::npos);
        loaded += ServeSnapshot(Resealed(std::move(bytes))) ? 1 : 0;
      }
    }
    std::printf("  %-20s %4d windows, %4d of %d mutants loaded\n", file,
                windows, loaded, 3 * windows);
  }
}

}  // namespace
}  // namespace paws

#include "net/wire.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "plan/planner.h"
#include "plan/robust.h"
#include "util/archive.h"
#include "util/status.h"

namespace paws {
namespace {

Frame MakeFrame(uint64_t id, Opcode opcode, std::string payload) {
  Frame frame;
  frame.request_id = id;
  frame.opcode = static_cast<uint32_t>(opcode);
  frame.payload = std::move(payload);
  return frame;
}

TEST(WireFrameTest, EncodeThenParseRoundTripsHeaderAndPayload) {
  const Frame sent = MakeFrame(42, Opcode::kRiskMap, "hello payload");
  const std::string bytes = EncodeFrame(sent);
  ASSERT_EQ(bytes.size(), kWireHeaderBytes + sent.payload.size());

  FrameParser parser;
  parser.Append(bytes.data(), bytes.size());
  Frame got;
  const auto ok = parser.Next(&got);
  ASSERT_TRUE(ok.ok()) << ok.status();
  ASSERT_TRUE(*ok);
  EXPECT_EQ(got.request_id, 42u);
  EXPECT_EQ(got.opcode, static_cast<uint32_t>(Opcode::kRiskMap));
  EXPECT_EQ(got.payload, "hello payload");
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(WireFrameTest, ParserReassemblesByteDribbleAndMultipleFrames) {
  const std::string a = EncodeFrame(MakeFrame(1, Opcode::kStats, ""));
  const std::string b =
      EncodeFrame(MakeFrame(2, Opcode::kCellCurves, std::string(1000, 'x')));
  const std::string stream = a + b;

  // One byte at a time: frames pop out exactly at their boundaries.
  FrameParser parser;
  std::vector<Frame> got;
  for (char c : stream) {
    parser.Append(&c, 1);
    Frame frame;
    auto ok = parser.Next(&frame);
    ASSERT_TRUE(ok.ok());
    if (*ok) got.push_back(std::move(frame));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].request_id, 1u);
  EXPECT_EQ(got[1].request_id, 2u);
  EXPECT_EQ(got[1].payload.size(), 1000u);

  // Both frames in one Append: two consecutive Next calls drain them.
  FrameParser burst;
  burst.Append(stream.data(), stream.size());
  Frame first, second, none;
  ASSERT_TRUE(*burst.Next(&first));
  ASSERT_TRUE(*burst.Next(&second));
  EXPECT_EQ(first.request_id, 1u);
  EXPECT_EQ(second.request_id, 2u);
  EXPECT_FALSE(*burst.Next(&none));
}

TEST(WireFrameTest, TruncatedFrameNeedsMoreBytesAtEveryPrefixLength) {
  const std::string bytes =
      EncodeFrame(MakeFrame(7, Opcode::kPlanForPost, "abcdefgh"));
  // Every strict prefix is "incomplete", never an error and never a frame:
  // a fuzz sweep over all truncation points.
  for (size_t n = 0; n < bytes.size(); ++n) {
    FrameParser parser;
    parser.Append(bytes.data(), n);
    Frame frame;
    const auto ok = parser.Next(&frame);
    ASSERT_TRUE(ok.ok()) << "prefix length " << n;
    EXPECT_FALSE(*ok) << "prefix length " << n;
  }
}

TEST(WireFrameTest, BadMagicBreaksTheStream) {
  std::string bytes = EncodeFrame(MakeFrame(1, Opcode::kRiskMap, ""));
  bytes[0] = 'X';
  FrameParser parser;
  parser.Append(bytes.data(), bytes.size());
  Frame frame;
  const auto got = parser.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  // The stream stays broken: further appends cannot resurrect it.
  const std::string good = EncodeFrame(MakeFrame(2, Opcode::kRiskMap, ""));
  parser.Append(good.data(), good.size());
  EXPECT_FALSE(parser.Next(&frame).ok());
}

TEST(WireFrameTest, WrongProtocolVersionBreaksTheStream) {
  std::string bytes = EncodeFrame(MakeFrame(1, Opcode::kRiskMap, ""));
  bytes[4] = static_cast<char>(kWireProtocolVersion + 1);
  FrameParser parser;
  parser.Append(bytes.data(), bytes.size());
  Frame frame;
  const auto got = parser.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireFrameTest, OversizedLengthPrefixIsRejectedBeforeBuffering) {
  // A hostile length prefix (here: 2^56) must be refused from the header
  // alone — before any payload bytes arrive or any allocation happens.
  std::string bytes = EncodeFrame(MakeFrame(1, Opcode::kRiskMap, ""));
  bytes[27] = 0x01;  // most-significant byte of the little-endian u64 length
  FrameParser parser(/*max_frame_bytes=*/1024);
  parser.Append(bytes.data(), bytes.size());
  Frame frame;
  const auto got = parser.Next(&frame);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);

  // Boundary: a payload exactly at the cap still parses.
  FrameParser tight(kWireHeaderBytes + 8);
  const std::string small =
      EncodeFrame(MakeFrame(2, Opcode::kRiskMap, "12345678"));
  tight.Append(small.data(), small.size());
  ASSERT_TRUE(*tight.Next(&frame));
  EXPECT_EQ(frame.payload, "12345678");
}

TEST(WireFrameTest, OpcodeNamesAndRequestPredicate) {
  EXPECT_EQ(OpcodeName(static_cast<uint32_t>(Opcode::kRiskMap)), "RiskMap");
  EXPECT_EQ(OpcodeName(static_cast<uint32_t>(Opcode::kStats)), "Stats");
  EXPECT_EQ(OpcodeName(999), "unknown(999)");
  for (Opcode op : {Opcode::kRiskMap, Opcode::kCellCurves,
                    Opcode::kPlanForPost, Opcode::kSwapSnapshot,
                    Opcode::kStats, Opcode::kOkResponse,
                    Opcode::kStatusResponse}) {
    EXPECT_EQ(OpcodeName(static_cast<uint32_t>(op)).rfind("unknown", 0),
              std::string::npos);
  }
  // Value 2 is retired and 0 was never assigned.
  EXPECT_EQ(OpcodeName(2), "unknown(2)");
  EXPECT_EQ(OpcodeName(0), "unknown(0)");
}

TEST(WireErrorTest, EveryStatusCodeRoundTripsThroughItsWireCode) {
  const std::vector<StatusCode> codes = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kFailedPrecondition, StatusCode::kNotFound,
      StatusCode::kOutOfRange,   StatusCode::kInternal,
      StatusCode::kUnimplemented, StatusCode::kResourceExhausted,
      StatusCode::kInfeasible,   StatusCode::kUnbounded};
  for (StatusCode code : codes) {
    EXPECT_EQ(StatusCodeFromWire(WireCodeFromStatus(code)), code)
        << StatusCodeName(code);
  }
  // Unknown wire codes (a newer peer) degrade to kInternal, never UB.
  EXPECT_EQ(StatusCodeFromWire(0xDEADBEEF), StatusCode::kInternal);
}

TEST(WireErrorTest, ErrorCategorySpeaksTheStatusTaxonomy) {
  const std::error_category& category = paws_error_category();
  EXPECT_STREQ(category.name(), "paws");
  const std::error_code ok = MakeWireErrorCode(StatusCode::kOk);
  EXPECT_FALSE(ok)  << "kOk must map to the zero error value";
  const std::error_code not_found = MakeWireErrorCode(StatusCode::kNotFound);
  EXPECT_TRUE(not_found);
  EXPECT_EQ(not_found.message(), StatusCodeName(StatusCode::kNotFound));
  EXPECT_EQ(&not_found.category(), &category);
}

TEST(WireErrorTest, StatusPayloadRoundTripsCodeAndMessage) {
  const Status sent = Status::NotFound("park 'mfnp' is not registered");
  Status got;
  const Status decode_ok = DecodeStatusPayload(EncodeStatusPayload(sent), &got);
  ASSERT_TRUE(decode_ok.ok()) << decode_ok;
  EXPECT_EQ(got.code(), sent.code());
  EXPECT_EQ(got.message(), sent.message());

  Status ignored;
  EXPECT_EQ(DecodeStatusPayload("garbage", &ignored).code(),
            StatusCode::kInvalidArgument);
}

TEST(WireCodecTest, RiskMapRequestRoundTripsBitExactEffort) {
  RiskMapRequest sent;
  sent.park_id = "mfnp";
  sent.assumed_effort = 0.1 + 0.2;  // a value with an inexact decimal form
  const auto got = DecodeRiskMapRequest(EncodeRiskMapRequest(sent));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->park_id, "mfnp");
  EXPECT_EQ(got->assumed_effort, sent.assumed_effort);
}

TEST(WireCodecTest, RiskTileRequestAndPayloadRoundTripBitExact) {
  RiskTileRequest sent;
  sent.park_id = "mega";
  sent.tile_id = 3481;
  sent.assumed_effort = 0.1 + 0.2;  // a value with an inexact decimal form
  const auto got = DecodeRiskTileRequest(EncodeRiskTileRequest(sent));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->park_id, sent.park_id);
  EXPECT_EQ(got->tile_id, sent.tile_id);
  EXPECT_EQ(got->assumed_effort, sent.assumed_effort);

  RiskTile tile;
  tile.tile_id = 7;
  tile.cell_ids = {12, 13, 40, 41};
  tile.risk = {0.25, 1.0 / 3.0, 0.0, 1.0};
  tile.variance = {0.0, 1e-9, 0.125, 2.0 / 7.0};
  tile.assumed_effort = 1.5;
  const auto back = DecodeRiskTilePayload(EncodeRiskTilePayload(tile));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->tile_id, tile.tile_id);
  EXPECT_EQ(back->cell_ids, tile.cell_ids);
  EXPECT_EQ(back->risk, tile.risk);
  EXPECT_EQ(back->variance, tile.variance);
  EXPECT_EQ(back->assumed_effort, tile.assumed_effort);

  // Truncation fuzz: every strict prefix decodes to a clean error.
  const std::string request_bytes = EncodeRiskTileRequest(sent);
  for (size_t n = 0; n < request_bytes.size(); ++n) {
    const auto trunc = DecodeRiskTileRequest(request_bytes.substr(0, n));
    ASSERT_FALSE(trunc.ok()) << "prefix length " << n;
    EXPECT_EQ(trunc.status().code(), StatusCode::kInvalidArgument)
        << "prefix length " << n;
  }
  // A payload of the wrong type fails its section tag check.
  const auto wrong_type = DecodeRiskTileRequest(EncodeRiskMapRequest({"p"}));
  ASSERT_FALSE(wrong_type.ok());
  EXPECT_EQ(wrong_type.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireCodecTest, CellCurvesRequestRoundTrips) {
  CellCurvesRequest sent;
  sent.park_id = "qenp";
  sent.cell_ids = {0, 7, 42};
  sent.effort_grid = {0.0, 0.5, 1.0, 2.0};
  const auto got = DecodeCellCurvesRequest(EncodeCellCurvesRequest(sent));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->park_id, sent.park_id);
  EXPECT_EQ(got->cell_ids, sent.cell_ids);
  EXPECT_EQ(got->effort_grid, sent.effort_grid);
}

TEST(WireCodecTest, PlanForPostRequestRoundTripsEveryPlannerKnob) {
  PlanForPostRequest sent;
  sent.park_id = "sws";
  sent.post_index = 3;
  sent.config.horizon = 7;
  sent.config.num_patrols = 2;
  sent.config.pwl_segments = 5;
  sent.config.max_cell_effort = 1.25;
  sent.config.milp.max_nodes = 777;
  sent.config.milp.absolute_gap_tolerance = 1e-7;
  sent.config.milp.integrality_tolerance = 1e-8;
  sent.config.milp.use_rounding_heuristic = false;
  sent.config.milp.simplex.max_iterations = 12345;
  sent.config.milp.simplex.feasibility_tolerance = 2e-9;
  sent.config.milp.simplex.optimality_tolerance = 3e-9;
  sent.robust.beta = 0.75;
  sent.robust.squash_scale = 0.4;
  const auto got = DecodePlanForPostRequest(EncodePlanForPostRequest(sent));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->park_id, sent.park_id);
  EXPECT_EQ(got->post_index, sent.post_index);
  EXPECT_EQ(got->config.horizon, sent.config.horizon);
  EXPECT_EQ(got->config.num_patrols, sent.config.num_patrols);
  EXPECT_EQ(got->config.pwl_segments, sent.config.pwl_segments);
  EXPECT_EQ(got->config.max_cell_effort, sent.config.max_cell_effort);
  EXPECT_EQ(got->config.milp.max_nodes, sent.config.milp.max_nodes);
  EXPECT_EQ(got->config.milp.absolute_gap_tolerance,
            sent.config.milp.absolute_gap_tolerance);
  EXPECT_EQ(got->config.milp.integrality_tolerance,
            sent.config.milp.integrality_tolerance);
  EXPECT_EQ(got->config.milp.use_rounding_heuristic,
            sent.config.milp.use_rounding_heuristic);
  EXPECT_EQ(got->config.milp.simplex.max_iterations,
            sent.config.milp.simplex.max_iterations);
  EXPECT_EQ(got->config.milp.simplex.feasibility_tolerance,
            sent.config.milp.simplex.feasibility_tolerance);
  EXPECT_EQ(got->config.milp.simplex.optimality_tolerance,
            sent.config.milp.simplex.optimality_tolerance);
  EXPECT_EQ(got->robust.beta, sent.robust.beta);
  EXPECT_EQ(got->robust.squash_scale, sent.robust.squash_scale);
}

TEST(WireCodecTest, SwapAndStatsRequestsRoundTrip) {
  SwapSnapshotRequest swap;
  swap.park_id = "p";
  swap.snapshot_bytes = std::string("\x00\x01\x02archive bytes\xff", 16);
  const auto got_swap =
      DecodeSwapSnapshotRequest(EncodeSwapSnapshotRequest(swap));
  ASSERT_TRUE(got_swap.ok()) << got_swap.status();
  EXPECT_EQ(got_swap->park_id, swap.park_id);
  EXPECT_EQ(got_swap->snapshot_bytes, swap.snapshot_bytes);

  StatsRequest stats;
  stats.park_id = "";
  const auto got_stats = DecodeStatsRequest(EncodeStatsRequest(stats));
  ASSERT_TRUE(got_stats.ok());
  EXPECT_TRUE(got_stats->park_id.empty());
}

TEST(WireCodecTest, PatrolPlanPayloadRoundTrips) {
  PatrolPlan sent;
  sent.coverage = {0.0, 1.5, 0.25};
  sent.objective = 3.14159;
  sent.proven_optimal = true;
  sent.mip_gap = 1e-6;
  sent.simplex_iterations = 4242;
  sent.nodes_explored = 17;
  const auto got = DecodePatrolPlanPayload(EncodePatrolPlanPayload(sent));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->coverage, sent.coverage);
  EXPECT_EQ(got->objective, sent.objective);
  EXPECT_EQ(got->proven_optimal, sent.proven_optimal);
  EXPECT_EQ(got->mip_gap, sent.mip_gap);
  EXPECT_EQ(got->simplex_iterations, sent.simplex_iterations);
  EXPECT_EQ(got->nodes_explored, sent.nodes_explored);
}

TEST(WireCodecTest, StatsReportRoundTripsCountersAndParks) {
  ServerStatsReport sent;
  sent.accepted_connections = 10;
  sent.rejected_connections = 2;
  sent.active_connections = 3;
  sent.frames_in = 100;
  sent.frames_out = 99;
  sent.protocol_errors = 1;
  sent.deadline_expired = 4;
  sent.parks = {{"a", 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                 "compiled-dtb-avx2"},
                {"b", 0, 1, 0, 2, 3, 4, 5, 6, 7, 8, 9, "reference"}};
  const auto got = DecodeStatsReportPayload(EncodeStatsReportPayload(sent));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->accepted_connections, 10u);
  EXPECT_EQ(got->rejected_connections, 2u);
  EXPECT_EQ(got->active_connections, 3u);
  EXPECT_EQ(got->frames_in, 100u);
  EXPECT_EQ(got->frames_out, 99u);
  EXPECT_EQ(got->protocol_errors, 1u);
  EXPECT_EQ(got->deadline_expired, 4u);
  ASSERT_EQ(got->parks.size(), 2u);
  EXPECT_EQ(got->parks[0].park_id, "a");
  EXPECT_EQ(got->parks[0].risk_hits, 5u);
  EXPECT_EQ(got->parks[0].risk_misses, 6u);
  EXPECT_EQ(got->parks[0].curve_hits, 7u);
  EXPECT_EQ(got->parks[0].curve_misses, 8u);
  EXPECT_EQ(got->parks[0].tile_hits, 9u);
  EXPECT_EQ(got->parks[0].tile_misses, 10u);
  EXPECT_EQ(got->parks[0].tile_pool_resident_tiles, 11u);
  EXPECT_EQ(got->parks[0].tile_pool_resident_bytes, 12u);
  EXPECT_EQ(got->parks[0].tile_pool_hits, 13u);
  EXPECT_EQ(got->parks[0].tile_pool_misses, 14u);
  EXPECT_EQ(got->parks[0].tile_pool_evictions, 15u);
  EXPECT_EQ(got->parks[0].scoring_backend, "compiled-dtb-avx2");
  EXPECT_EQ(got->parks[1].park_id, "b");
  EXPECT_EQ(got->parks[1].curve_misses, 2u);
  EXPECT_EQ(got->parks[1].tile_pool_evictions, 9u);
  EXPECT_EQ(got->parks[1].scoring_backend, "reference");
}

TEST(WireCodecTest, DecodersRejectCorruptionAndTrailingGarbage) {
  // Truncation fuzz: every strict prefix of a valid payload must decode to
  // a clean InvalidArgument — never a crash, never a bogus success.
  const std::string payload =
      EncodeCellCurvesRequest({"p", {1, 2, 3}, {0.0, 1.0}});
  for (size_t n = 0; n < payload.size(); ++n) {
    const auto got = DecodeCellCurvesRequest(payload.substr(0, n));
    ASSERT_FALSE(got.ok()) << "prefix length " << n;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument)
        << "prefix length " << n;
  }
  // Trailing garbage after a complete archive is also rejected.
  const auto trailing = DecodeCellCurvesRequest(payload + "junk");
  ASSERT_FALSE(trailing.ok());
  // A payload of the wrong type fails its section tag check.
  const auto wrong_type =
      DecodeRiskMapRequest(EncodeStatsRequest(StatsRequest{"p"}));
  ASSERT_FALSE(wrong_type.ok());
  EXPECT_EQ(wrong_type.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireFrameTest, AdversarialLengthPrefixSweepNeverBuffersPastTheCap) {
  // Every power-of-two length prefix against a 4 KiB cap: at or below the
  // cap the parser waits for the payload; above it the stream breaks with
  // a clean InvalidArgument from the header alone, and later appends are
  // dropped (a hostile peer cannot make a broken connection buffer).
  const std::string header =
      EncodeFrame(MakeFrame(1, Opcode::kRiskMap, ""));
  constexpr size_t kCap = 4096;
  for (int k = 0; k < 64; ++k) {
    std::string bytes = header;
    const uint64_t len = 1ull << k;
    for (int b = 0; b < 8; ++b) {
      bytes[20 + b] = static_cast<char>((len >> (8 * b)) & 0xff);
    }
    FrameParser parser(kCap);
    parser.Append(bytes.data(), bytes.size());
    Frame frame;
    const auto got = parser.Next(&frame);
    if (len <= kCap) {
      ASSERT_TRUE(got.ok()) << "length 2^" << k;
      EXPECT_FALSE(*got) << "length 2^" << k;  // incomplete, not broken
    } else {
      ASSERT_FALSE(got.ok()) << "length 2^" << k;
      EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
      const std::string more(256, 'z');
      parser.Append(more.data(), more.size());
      EXPECT_EQ(parser.buffered_bytes(), 0u) << "length 2^" << k;
    }
  }
}

TEST(WireFrameTest, FleetOpcodesHaveNamesAndAreRequests) {
  EXPECT_EQ(OpcodeName(static_cast<uint32_t>(Opcode::kMapVersion)),
            "MapVersion");
  EXPECT_EQ(OpcodeName(static_cast<uint32_t>(Opcode::kSwapFleetMap)),
            "SwapFleetMap");
  EXPECT_EQ(OpcodeName(static_cast<uint32_t>(Opcode::kGetSnapshot)),
            "GetSnapshot");
  EXPECT_EQ(OpcodeName(static_cast<uint32_t>(Opcode::kRepair)), "Repair");
  EXPECT_EQ(OpcodeName(static_cast<uint32_t>(Opcode::kRiskTile)),
            "RiskTile");
  EXPECT_EQ(OpcodeName(static_cast<uint32_t>(Opcode::kRiskTile) + 1),
            "unknown(12)");
}

TEST(WireCodecTest, FleetPayloadsRoundTrip) {
  const auto map_req = DecodeMapVersionRequest(
      EncodeMapVersionRequest(MapVersionRequest{77}));
  ASSERT_TRUE(map_req.ok());
  EXPECT_EQ(map_req->known_version, 77u);

  // Binary-safe map bytes (embedded NULs travel intact).
  MapVersionResponse behind;
  behind.version = 9;
  behind.has_map = true;
  behind.map_bytes = std::string("\x00\x01\xff map", 8);
  const auto got_behind =
      DecodeMapVersionResponse(EncodeMapVersionResponse(behind));
  ASSERT_TRUE(got_behind.ok());
  EXPECT_EQ(got_behind->version, 9u);
  EXPECT_TRUE(got_behind->has_map);
  EXPECT_EQ(got_behind->map_bytes, behind.map_bytes);

  MapVersionResponse current;
  current.version = 9;
  const auto got_current =
      DecodeMapVersionResponse(EncodeMapVersionResponse(current));
  ASSERT_TRUE(got_current.ok());
  EXPECT_FALSE(got_current->has_map);
  EXPECT_TRUE(got_current->map_bytes.empty());

  const auto swap = DecodeSwapFleetMapRequest(
      EncodeSwapFleetMapRequest(SwapFleetMapRequest{"map artifact"}));
  ASSERT_TRUE(swap.ok());
  EXPECT_EQ(swap->map_bytes, "map artifact");

  const auto pull = DecodeGetSnapshotRequest(
      EncodeGetSnapshotRequest(GetSnapshotRequest{"pk-3"}));
  ASSERT_TRUE(pull.ok());
  EXPECT_EQ(pull->park_id, "pk-3");
  GetSnapshotResponse snap;
  snap.snapshot_bytes = std::string("\x00\x7f\x80", 3);
  const auto got_snap =
      DecodeGetSnapshotResponse(EncodeGetSnapshotResponse(snap));
  ASSERT_TRUE(got_snap.ok());
  EXPECT_EQ(got_snap->snapshot_bytes, snap.snapshot_bytes);

  RepairRequest repair;
  repair.park_id = "pk-5";
  repair.sources = {"10.0.0.1:9000", "10.0.0.2:9000"};
  const auto got_repair =
      DecodeRepairRequest(EncodeRepairRequest(repair));
  ASSERT_TRUE(got_repair.ok());
  EXPECT_EQ(got_repair->park_id, "pk-5");
  EXPECT_EQ(got_repair->sources, repair.sources);

  const auto action =
      DecodeRepairResponse(EncodeRepairResponse(RepairResponse{"repaired"}));
  ASSERT_TRUE(action.ok());
  EXPECT_EQ(action->action, "repaired");
}

TEST(WireCodecTest, FleetDecodersRejectHostileCountsAndTruncation) {
  // A well-formed archive (valid CRC) whose source count claims 2^40
  // entries: the decoder must refuse from the count bound, not reserve.
  ArchiveWriter hostile;
  hostile.BeginSection(FourCc("RQRP"));
  hostile.WriteString("pk-0");
  hostile.WriteU64(1ull << 40);
  hostile.EndSection();
  const auto bomb = DecodeRepairRequest(hostile.Bytes());
  ASSERT_FALSE(bomb.ok());
  EXPECT_EQ(bomb.status().code(), StatusCode::kInvalidArgument);

  // Truncation fuzz over the fleet payloads, same sweep as the serving
  // codecs above.
  RepairRequest repair;
  repair.park_id = "pk";
  repair.sources = {"a:1"};
  const std::string payload = EncodeRepairRequest(repair);
  for (size_t n = 0; n < payload.size(); ++n) {
    ASSERT_FALSE(DecodeRepairRequest(payload.substr(0, n)).ok())
        << "prefix length " << n;
  }
  const std::string handshake =
      EncodeMapVersionResponse(MapVersionResponse{3, true, "bytes"});
  for (size_t n = 0; n < handshake.size(); ++n) {
    ASSERT_FALSE(DecodeMapVersionResponse(handshake.substr(0, n)).ok())
        << "prefix length " << n;
  }
}

// ---------------------------------------------------------------------------
// Golden bytes. Round-trip tests cannot see a format change when encode and
// decode derive from one description, so every payload shape is pinned to
// the exact bytes it encoded to when the table was recorded.

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

// FNV-1a, 64-bit: a compact fingerprint for payloads too long to pin as hex.
uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

RiskMaps GoldenMaps() {
  RiskMaps maps;
  maps.risk = {0.25, 0.5};
  maps.variance = {0.0625, 0.125};
  maps.assumed_effort = 2.0;
  return maps;
}

struct GoldenPayload {
  const char* shape;
  std::string bytes;
  size_t size;
  uint64_t fnv1a64;
};

TEST(WireGoldenTest, EveryPayloadShapeEncodesToItsRecordedBytes) {
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

  const std::vector<GoldenPayload> golden = {
      {"STAT", EncodeStatusPayload(Status::NotFound("park 'mfnp'")), 47,
       0x12bd4726aad6a9f3ull},
      {"RQRM", EncodeRiskMapRequest({"mfnp", 0.1 + 0.2}), 44,
       0xd97cdc578ec99326ull},
      {"RQRT", EncodeRiskTileRequest({"mega", 3481, 1.5}), 48,
       0xcb900969fee5f35bull},
      {"RQCC",
       EncodeCellCurvesRequest({"qenp", {0, 7, 42}, {0.0, 0.5, 1.0, 2.0}}),
       96, 0x900fe2639a4eb30bull},
      {"RQPP", EncodePlanForPostRequest(plan_request), 120,
       0xf681793bbaaa3ec4ull},
      {"RQSS",
       EncodeSwapSnapshotRequest({"p", std::string("\x00\x01 snap\xff", 8)}),
       49, 0x6af748a2c8c6b835ull},
      {"RQST", EncodeStatsRequest({"sws"}), 35, 0xb668000048ab517aull},
      {"RQMV", EncodeMapVersionRequest({77}), 32, 0xbdf3c911209bb2d0ull},
      {"RSMV", EncodeMapVersionResponse({9, true, "map"}), 44,
       0x92ac0d783b68244bull},
      {"RQFM", EncodeSwapFleetMapRequest({"map artifact"}), 44,
       0xe42fccaec3783a38ull},
      {"RQGS", EncodeGetSnapshotRequest({"pk-3"}), 36, 0xc3e4664df6e6749eull},
      {"RSGS", EncodeGetSnapshotResponse({std::string("\x00\x7f\x80", 3)}),
       35, 0x37df416f60cb68b9ull},
      {"RQRP",
       EncodeRepairRequest({"pk-5", {"10.0.0.1:9000", "10.0.0.2:9000"}}), 86,
       0x24d55702bb5f018eull},
      {"RSRP", EncodeRepairResponse({"repaired"}), 40, 0xc9d64fe8cfe4686full},
      {"RISK", EncodeRiskMapsPayload(GoldenMaps()), 84, 0x9acfdc0b51858aaeull},
      {"RTIL", EncodeRiskTilePayload(tile), 144, 0x8418bfff814558aeull},
      {"curves", EncodeEffortCurveTablePayload(curves), 196,
       0xc0f2b28886a66b43ull},
      {"plan", EncodePatrolPlanPayload(plan), 89, 0xe444299ed65a962aull},
      {"RSST", EncodeStatsReportPayload(report), 324, 0x328691de02a45450ull},
  };
  ASSERT_EQ(golden.size(), 19u);
  for (const GoldenPayload& want : golden) {
    EXPECT_EQ(want.bytes.size(), want.size) << want.shape;
    EXPECT_EQ(Fnv1a64(want.bytes), want.fnv1a64)
        << want.shape << ": 0x" << std::hex << Fnv1a64(want.bytes);
  }
}

// The wire error codes of docs/WIRE_PROTOCOL.md's table, by wire value.
TEST(WireGoldenTest, WireCodesMatchTheProtocolDocument) {
  const StatusCode documented[] = {
      StatusCode::kOk,         StatusCode::kInvalidArgument,
      StatusCode::kFailedPrecondition, StatusCode::kNotFound,
      StatusCode::kOutOfRange, StatusCode::kInternal,
      StatusCode::kUnimplemented, StatusCode::kResourceExhausted,
      StatusCode::kInfeasible, StatusCode::kUnbounded};
  for (uint32_t wire = 0; wire < 10; ++wire) {
    EXPECT_EQ(WireCodeFromStatus(documented[wire]), wire);
    EXPECT_EQ(StatusCodeFromWire(wire), documented[wire]);
  }
}

// The three frames printed in docs/WIRE_PROTOCOL.md's worked example,
// byte for byte.
TEST(WireGoldenTest, WorkedExampleFramesMatchTheProtocolDocument) {
  const std::string request = EncodeFrame(
      MakeFrame(7, Opcode::kRiskMap, EncodeRiskMapRequest({"mfnp", 2.0})));
  EXPECT_EQ(Hex(request),
            "504e4554010000000700000000000000"
            "010000002c0000000000000050415753"
            "010000005251524d1400000000000000"
            "04000000000000006d666e7000000000"
            "0000004069000149");
  EXPECT_EQ(request.size(), 72u);

  const std::string ok = EncodeFrame(
      MakeFrame(7, Opcode::kOkResponse, EncodeRiskMapsPayload(GoldenMaps())));
  EXPECT_EQ(Hex(ok),
            "504e4554010000000700000000000000"
            "64000000540000000000000050415753"
            "010000005249534b3c00000000000000"
            "01000000020000000000000000000000"
            "0000d03f000000000000e03f02000000"
            "00000000000000000000b03f00000000"
            "0000c03f0000000000000040c430f3ca");
  EXPECT_EQ(ok.size(), 112u);

  const std::string status = EncodeFrame(MakeFrame(
      8, Opcode::kStatusResponse,
      EncodeStatusPayload(Status::NotFound("unknown park id 'ghost'"))));
  EXPECT_EQ(Hex(status),
            "504e4554010000000800000000000000"
            "650000003b0000000000000050415753"
            "01000000535441542300000000000000"
            "030000001700000000000000756e6b6e"
            "6f776e207061726b206964202767686f"
            "737427bc0313d4");
  EXPECT_EQ(status.size(), 87u);
}

}  // namespace
}  // namespace paws

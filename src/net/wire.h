#ifndef PAWS_NET_WIRE_H_
#define PAWS_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <system_error>
#include <vector>

#include "core/risk_map.h"
#include "ml/effort_curve.h"
#include "plan/planner.h"
#include "plan/robust.h"
#include "util/archive.h"
#include "util/status.h"

namespace paws {

/// The PAWS serving wire protocol: length-prefixed binary frames whose
/// payloads are ordinary PAWS archives, so every request and response body
/// inherits the archive layer's guarantees (bit-exact doubles, CRC-32,
/// bounds-checked reads, clean Status on corruption — never UB).
///
/// Frame layout (all integers little-endian):
///
///   bytes  0..3   magic "PNET"
///   bytes  4..7   protocol version (u32, currently 1)
///   bytes  8..15  request id (u64; responses echo the request's id)
///   bytes 16..19  opcode (u32, see Opcode)
///   bytes 20..27  payload length (u64, validated against a hard cap
///                 BEFORE any allocation — an attacker-controlled length
///                 prefix can never drive a giant reserve)
///   bytes 28..    payload: one complete archive (ArchiveWriter::Bytes),
///                 or empty for requests that carry no body
///
/// Responses either echo success (`kOkResponse` + an archive-encoded
/// result whose shape is determined by the request opcode) or carry a
/// status frame (`kStatusResponse` + wire error code + message). Wire
/// error codes map onto the existing StatusCode taxonomy through
/// `paws_error_category()` — the server never invents a parallel error
/// scheme, and a client can round-trip any library Status.

constexpr uint32_t kWireMagic = FourCc("PNET");
constexpr uint32_t kWireProtocolVersion = 1;
constexpr size_t kWireHeaderBytes = 28;
/// Default per-frame allocation bound (64 MiB). Both sides refuse frames
/// whose length prefix exceeds their configured cap.
constexpr size_t kDefaultMaxFrameBytes = 64ull << 20;

/// Request opcodes mirror the ParkService serving API one to one; the two
/// response opcodes close the protocol (clients dispatch on the request
/// they issued, not on the response opcode). Value 2 is retired: a server
/// answers it like any unknown opcode.
enum class Opcode : uint32_t {
  kRiskMap = 1,
  kCellCurves = 3,
  kPlanForPost = 4,
  kSwapSnapshot = 5,
  kStats = 6,
  /// Fleet elasticity (PR 9): map-version handshake, map publication,
  /// replica-to-replica artifact pull, and the read-repair nudge.
  kMapVersion = 7,
  kSwapFleetMap = 8,
  kGetSnapshot = 9,
  kRepair = 10,
  /// Tiled serving (PR 10): one 64x64-cell risk-map tile — the sub-park
  /// request unit behind pan/zoom map frontends. Routed exactly like
  /// kRiskMap (tiles are sub-park; the park id is the routing key).
  kRiskTile = 11,
  kOkResponse = 100,
  kStatusResponse = 101,
};

/// Human-readable opcode name for logs/errors ("RiskMap", "unknown(42)").
std::string OpcodeName(uint32_t opcode);

struct Frame {
  uint64_t request_id = 0;
  uint32_t opcode = 0;
  std::string payload;
};

/// Serializes header + payload into wire bytes.
std::string EncodeFrame(const Frame& frame);

/// Incremental frame reassembler for a byte stream: feed whatever the
/// socket delivered, pull complete frames out. Malformed input (bad magic,
/// wrong protocol version, oversized length prefix) surfaces as a Status —
/// the stream is unrecoverable past that point and the connection should
/// be closed. The length prefix is validated against `max_frame_bytes`
/// before any payload buffering, so a hostile prefix cannot force a large
/// allocation.
class FrameParser {
 public:
  explicit FrameParser(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void Append(const void* data, size_t n);

  /// Extracts the next complete frame into `*out`. Returns true when a
  /// frame was produced, false when more bytes are needed; a non-OK
  /// status means the stream is broken (close the connection).
  StatusOr<bool> Next(Frame* out);

  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  StatusOr<bool> Break(const std::string& why);

  size_t max_frame_bytes_;
  std::string buffer_;
  bool broken_ = false;
};

// ---------------------------------------------------------------------------
// Error taxonomy over the wire (SNIPPETS.md std::error_category idiom).

/// Stable wire value for a StatusCode. The enum's numeric values are an
/// in-process detail; the wire contract is this mapping.
uint32_t WireCodeFromStatus(StatusCode code);

/// Inverse mapping; unknown wire codes (a newer peer) decode as kInternal.
StatusCode StatusCodeFromWire(uint32_t wire_code);

/// std::error_category over the PAWS status taxonomy, so wire errors
/// interoperate with std::error_code plumbing: name() is "paws" and
/// message(code) is the StatusCodeName of the mapped StatusCode.
const std::error_category& paws_error_category();

/// Convenience: the std::error_code for a StatusCode in paws_error_category.
std::error_code MakeWireErrorCode(StatusCode code);

/// Status frame payload: wire code + message, archive-framed. The decode
/// writes the carried status to `*decoded`; its return value reports
/// archive malformation only (out-param because StatusOr<Status> would be
/// ambiguous between its value and error constructors).
std::string EncodeStatusPayload(const Status& status);
Status DecodeStatusPayload(const std::string& payload, Status* decoded);

// ---------------------------------------------------------------------------
// Typed request/response payload codecs, shared by client and server so the
// two sides can never drift. wire.cc describes each message once (section
// tag plus field list) and derives both directions from it. Every Encode*
// returns one complete archive; every Decode* validates it fully (CRC,
// section framing, trailing-garbage rejection) and returns InvalidArgument
// on any malformation.

struct RiskMapRequest {
  std::string park_id;
  double assumed_effort = 0.0;
};

/// One tile of `park_id`'s risk map at `assumed_effort` km. Tile ids are
/// row-major over the park's tile grid (see TileGeometry); the response
/// body is a RiskTile archive ("RTIL" section).
struct RiskTileRequest {
  std::string park_id;
  int tile_id = 0;
  double assumed_effort = 0.0;
};

struct CellCurvesRequest {
  std::string park_id;
  std::vector<int> cell_ids;
  std::vector<double> effort_grid;
};

struct PlanForPostRequest {
  std::string park_id;
  int post_index = 0;
  PlannerConfig config;
  RobustParams robust;
};

/// SwapSnapshot ships the whole snapshot archive (the PR-3 deployment
/// artifact) as its body — the unit of model rollout over the network.
struct SwapSnapshotRequest {
  std::string park_id;
  std::string snapshot_bytes;
};

/// Stats request: empty park_id = report every registered park.
struct StatsRequest {
  std::string park_id;
};

/// Map-version handshake: the client reports the newest FleetMap version
/// it routes by; the server answers with its own stored version and — only
/// when strictly newer — piggy-backs the whole map artifact, so a router
/// hot-reloads in one round trip. A server that holds no map answers
/// version 0 with no bytes.
struct MapVersionRequest {
  uint64_t known_version = 0;
};
struct MapVersionResponse {
  uint64_t version = 0;
  bool has_map = false;
  std::string map_bytes;
};

/// Publishes a FleetMap artifact to a daemon (FleetAdmin after a resize).
/// The server validates the bytes and rejects version regressions with
/// kFailedPrecondition — rollouts have a total order.
struct SwapFleetMapRequest {
  std::string map_bytes;
};

/// Replica-to-replica artifact pull: the exact snapshot archive the
/// daemon serves for `park_id` (the inverse of SwapSnapshot). Bulk
/// migration and read repair are built on it.
struct GetSnapshotRequest {
  std::string park_id;
};
struct GetSnapshotResponse {
  std::string snapshot_bytes;
};

/// Read-repair nudge: re-verify the locally served artifact for
/// `park_id`, and when it is missing or fails validation, re-pull it from
/// the listed source daemons ("host:port") in order. The response reports
/// what happened: "verified" (local artifact checked out) or "repaired"
/// (re-pulled and installed).
struct RepairRequest {
  std::string park_id;
  std::vector<std::string> sources;
};
struct RepairResponse {
  std::string action;
};

/// Stats response: transport counters plus per-park cache economics (the
/// risk-map LRU and the effort-curve-table LRU) and the scoring backend
/// each park's model dispatches through.
struct ServerStatsReport {
  uint64_t accepted_connections = 0;
  uint64_t rejected_connections = 0;
  uint64_t active_connections = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t protocol_errors = 0;
  uint64_t deadline_expired = 0;
  struct ParkStats {
    std::string park_id;
    uint64_t risk_hits = 0;
    uint64_t risk_misses = 0;
    uint64_t curve_hits = 0;
    uint64_t curve_misses = 0;
    /// Served-tile LRU counters (ParkService::RiskTileStats).
    uint64_t tile_hits = 0;
    uint64_t tile_misses = 0;
    /// Feature-tile pool economics (TilePoolStats of the park's
    /// TiledFeaturePlane): how many tiles'-worth of feature rows are
    /// resident, how many bytes they pin, and the materialize/evict
    /// traffic — the observable side of the bounded-memory contract.
    uint64_t tile_pool_resident_tiles = 0;
    uint64_t tile_pool_resident_bytes = 0;
    uint64_t tile_pool_hits = 0;
    uint64_t tile_pool_misses = 0;
    uint64_t tile_pool_evictions = 0;
    /// ScoringBackend::name() of the park's model (see
    /// kScoringBackendNames in ml/scoring_backend.h): which compiled
    /// serving layer — and on forests, which SIMD dispatch tier — this
    /// process actually runs for the park.
    std::string scoring_backend;
  };
  std::vector<ParkStats> parks;
};

std::string EncodeRiskMapRequest(const RiskMapRequest& req);
StatusOr<RiskMapRequest> DecodeRiskMapRequest(const std::string& payload);

std::string EncodeRiskTileRequest(const RiskTileRequest& req);
StatusOr<RiskTileRequest> DecodeRiskTileRequest(const std::string& payload);

std::string EncodeCellCurvesRequest(const CellCurvesRequest& req);
StatusOr<CellCurvesRequest> DecodeCellCurvesRequest(
    const std::string& payload);

std::string EncodePlanForPostRequest(const PlanForPostRequest& req);
StatusOr<PlanForPostRequest> DecodePlanForPostRequest(
    const std::string& payload);

std::string EncodeSwapSnapshotRequest(const SwapSnapshotRequest& req);
StatusOr<SwapSnapshotRequest> DecodeSwapSnapshotRequest(
    const std::string& payload);

std::string EncodeStatsRequest(const StatsRequest& req);
StatusOr<StatsRequest> DecodeStatsRequest(const std::string& payload);

std::string EncodeMapVersionRequest(const MapVersionRequest& req);
StatusOr<MapVersionRequest> DecodeMapVersionRequest(
    const std::string& payload);

std::string EncodeMapVersionResponse(const MapVersionResponse& resp);
StatusOr<MapVersionResponse> DecodeMapVersionResponse(
    const std::string& payload);

std::string EncodeSwapFleetMapRequest(const SwapFleetMapRequest& req);
StatusOr<SwapFleetMapRequest> DecodeSwapFleetMapRequest(
    const std::string& payload);

std::string EncodeGetSnapshotRequest(const GetSnapshotRequest& req);
StatusOr<GetSnapshotRequest> DecodeGetSnapshotRequest(
    const std::string& payload);

std::string EncodeGetSnapshotResponse(const GetSnapshotResponse& resp);
StatusOr<GetSnapshotResponse> DecodeGetSnapshotResponse(
    const std::string& payload);

std::string EncodeRepairRequest(const RepairRequest& req);
StatusOr<RepairRequest> DecodeRepairRequest(const std::string& payload);

std::string EncodeRepairResponse(const RepairResponse& resp);
StatusOr<RepairResponse> DecodeRepairResponse(const std::string& payload);

std::string EncodeRiskMapsPayload(const RiskMaps& maps);
StatusOr<RiskMaps> DecodeRiskMapsPayload(const std::string& payload);

std::string EncodeRiskTilePayload(const RiskTile& tile);
StatusOr<RiskTile> DecodeRiskTilePayload(const std::string& payload);

std::string EncodeEffortCurveTablePayload(const EffortCurveTable& table);
StatusOr<EffortCurveTable> DecodeEffortCurveTablePayload(
    const std::string& payload);

std::string EncodePatrolPlanPayload(const PatrolPlan& plan);
StatusOr<PatrolPlan> DecodePatrolPlanPayload(const std::string& payload);

std::string EncodeStatsReportPayload(const ServerStatsReport& report);
StatusOr<ServerStatsReport> DecodeStatsReportPayload(
    const std::string& payload);

}  // namespace paws

#endif  // PAWS_NET_WIRE_H_

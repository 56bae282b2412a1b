#include "net/wire.h"

#include <cstring>
#include <iterator>
#include <utility>

namespace paws {

namespace {

Status BrokenStream(const std::string& what) {
  return Status::InvalidArgument("wire: " + what);
}

}  // namespace

std::string OpcodeName(uint32_t opcode) {
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kRiskMap:
      return "RiskMap";
    case Opcode::kCellCurves:
      return "CellCurves";
    case Opcode::kPlanForPost:
      return "PlanForPost";
    case Opcode::kSwapSnapshot:
      return "SwapSnapshot";
    case Opcode::kStats:
      return "Stats";
    case Opcode::kMapVersion:
      return "MapVersion";
    case Opcode::kSwapFleetMap:
      return "SwapFleetMap";
    case Opcode::kGetSnapshot:
      return "GetSnapshot";
    case Opcode::kRepair:
      return "Repair";
    case Opcode::kRiskTile:
      return "RiskTile";
    case Opcode::kOkResponse:
      return "OkResponse";
    case Opcode::kStatusResponse:
      return "StatusResponse";
  }
  return "unknown(" + std::to_string(opcode) + ")";
}

std::string EncodeFrame(const Frame& frame) {
  std::string out;
  out.reserve(kWireHeaderBytes + frame.payload.size());
  AppendU32(&out, kWireMagic);
  AppendU32(&out, kWireProtocolVersion);
  AppendU64(&out, frame.request_id);
  AppendU32(&out, frame.opcode);
  AppendU64(&out, frame.payload.size());
  out += frame.payload;
  return out;
}

void FrameParser::Append(const void* data, size_t n) {
  // A broken stream never recovers (the framing is lost); buffering more
  // of it would only let a hostile peer grow the buffer after the parser
  // already refused to serve from it.
  if (broken_) return;
  buffer_.append(static_cast<const char*>(data), n);
}

StatusOr<bool> FrameParser::Break(const std::string& why) {
  broken_ = true;
  // Release the bytes already buffered, not just refuse new ones: nothing
  // will ever be parsed from a broken stream, so holding them would let a
  // hostile peer pin up to a header+cap of memory per poisoned connection.
  buffer_.clear();
  buffer_.shrink_to_fit();
  return BrokenStream(why);
}

StatusOr<bool> FrameParser::Next(Frame* out) {
  if (broken_) return BrokenStream("stream already failed");
  // Validate the header prefix as soon as its bytes arrive: garbage is
  // rejected after 4 bytes, not buffered until a bogus length shows up.
  if (buffer_.size() >= 4 && LoadU32(buffer_.data()) != kWireMagic) {
    return Break("bad magic");
  }
  if (buffer_.size() >= 8 && LoadU32(buffer_.data() + 4) !=
                                 kWireProtocolVersion) {
    return Break("unsupported protocol version " +
                 std::to_string(LoadU32(buffer_.data() + 4)));
  }
  if (buffer_.size() < kWireHeaderBytes) return false;
  const uint64_t payload_len = LoadU64(buffer_.data() + 20);
  // The length prefix is attacker-controlled until this check passes; it
  // bounds every subsequent buffer operation.
  if (payload_len > max_frame_bytes_) {
    return Break("frame length " + std::to_string(payload_len) +
                 " exceeds cap " + std::to_string(max_frame_bytes_));
  }
  if (buffer_.size() < kWireHeaderBytes + payload_len) return false;
  out->request_id = LoadU64(buffer_.data() + 8);
  out->opcode = LoadU32(buffer_.data() + 16);
  out->payload = buffer_.substr(kWireHeaderBytes, payload_len);
  buffer_.erase(0, kWireHeaderBytes + payload_len);
  return true;
}

// ---------------------------------------------------------------------------
// Error taxonomy.

namespace {

// Each StatusCode at the index of its wire code: one explicit table for
// both directions, because the in-process enum order is NOT a wire
// contract. Append-only.
constexpr StatusCode kStatusCodeByWireCode[] = {
    StatusCode::kOk,         StatusCode::kInvalidArgument,
    StatusCode::kFailedPrecondition, StatusCode::kNotFound,
    StatusCode::kOutOfRange, StatusCode::kInternal,
    StatusCode::kUnimplemented, StatusCode::kResourceExhausted,
    StatusCode::kInfeasible, StatusCode::kUnbounded,
};

class PawsErrorCategory : public std::error_category {
 public:
  const char* name() const noexcept override { return "paws"; }
  std::string message(int condition) const override {
    return StatusCodeName(
        StatusCodeFromWire(static_cast<uint32_t>(condition)));
  }
};

}  // namespace

uint32_t WireCodeFromStatus(StatusCode code) {
  for (uint32_t wire = 0; wire < std::size(kStatusCodeByWireCode); ++wire) {
    if (kStatusCodeByWireCode[wire] == code) return wire;
  }
  return 5;  // unreachable; map to kInternal
}

StatusCode StatusCodeFromWire(uint32_t wire_code) {
  // A newer peer's code we don't know: surface as an internal error
  // rather than inventing semantics for it.
  if (wire_code >= std::size(kStatusCodeByWireCode)) {
    return StatusCode::kInternal;
  }
  return kStatusCodeByWireCode[wire_code];
}

const std::error_category& paws_error_category() {
  static PawsErrorCategory category;
  return category;
}

std::error_code MakeWireErrorCode(StatusCode code) {
  return std::error_code(static_cast<int>(WireCodeFromStatus(code)),
                         paws_error_category());
}

// ---------------------------------------------------------------------------
// Payload codecs. Each message is described once, here: the section tag
// that frames it as a payload (kTag) and its fields in wire order
// (ArchiveFields). util/archive's FieldWriter and FieldReader walk that one
// description in the two directions, so encode and decode cannot drift
// apart.

/// The section tag that frames a whole payload. The four result archives
/// (RiskMaps, RiskTile, EffortCurveTable, PatrolPlan) write their own
/// section, so they have none here; neither do messages that only travel
/// nested inside another.
template <typename T>
constexpr uint32_t kTag = 0;

// RQ** tags frame request bodies, RS** response bodies, STAT the status
// frame. A request and its response use different tags, so a misrouted
// payload fails the tag check instead of half-parsing.
template <>
constexpr uint32_t kTag<Status> = FourCc("STAT");

template <>
constexpr uint32_t kTag<RiskMapRequest> = FourCc("RQRM");
template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, RiskMapRequest> m) {
  io(m.park_id, m.assumed_effort);
}

template <>
constexpr uint32_t kTag<RiskTileRequest> = FourCc("RQRT");
template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, RiskTileRequest> m) {
  io(m.park_id, m.tile_id, m.assumed_effort);
}

template <>
constexpr uint32_t kTag<CellCurvesRequest> = FourCc("RQCC");
template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, CellCurvesRequest> m) {
  io(m.park_id, m.cell_ids, m.effort_grid);
}

template <>
constexpr uint32_t kTag<PlanForPostRequest> = FourCc("RQPP");
template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, PlanForPostRequest> m) {
  auto& milp = m.config.milp;
  io(m.park_id, m.post_index, m.config.horizon, m.config.num_patrols,
     m.config.pwl_segments, m.config.max_cell_effort, milp.max_nodes,
     milp.absolute_gap_tolerance, milp.integrality_tolerance,
     milp.use_rounding_heuristic, milp.simplex.max_iterations,
     milp.simplex.feasibility_tolerance, milp.simplex.optimality_tolerance,
     m.robust.beta, m.robust.squash_scale);
}

template <>
constexpr uint32_t kTag<SwapSnapshotRequest> = FourCc("RQSS");
template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, SwapSnapshotRequest> m) {
  io(m.park_id, m.snapshot_bytes);
}

template <>
constexpr uint32_t kTag<StatsRequest> = FourCc("RQST");
template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, StatsRequest> m) { io(m.park_id); }

template <>
constexpr uint32_t kTag<MapVersionRequest> = FourCc("RQMV");
template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, MapVersionRequest> m) {
  io(m.known_version);
}

template <>
constexpr uint32_t kTag<MapVersionResponse> = FourCc("RSMV");
template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, MapVersionResponse> m) {
  io(m.version, m.has_map, m.map_bytes);
}

template <>
constexpr uint32_t kTag<SwapFleetMapRequest> = FourCc("RQFM");
template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, SwapFleetMapRequest> m) {
  io(m.map_bytes);
}

template <>
constexpr uint32_t kTag<GetSnapshotRequest> = FourCc("RQGS");
template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, GetSnapshotRequest> m) {
  io(m.park_id);
}

template <>
constexpr uint32_t kTag<GetSnapshotResponse> = FourCc("RSGS");
template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, GetSnapshotResponse> m) {
  io(m.snapshot_bytes);
}

template <>
constexpr uint32_t kTag<RepairRequest> = FourCc("RQRP");
template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, RepairRequest> m) {
  io(m.park_id, m.sources);
}

template <>
constexpr uint32_t kTag<RepairResponse> = FourCc("RSRP");
template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, RepairResponse> m) { io(m.action); }

template <>
constexpr uint32_t kTag<ServerStatsReport> = FourCc("RSST");
template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, ServerStatsReport> m) {
  io(m.accepted_connections, m.rejected_connections, m.active_connections,
     m.frames_in, m.frames_out, m.protocol_errors, m.deadline_expired,
     m.parks);
}

template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, ServerStatsReport::ParkStats> m) {
  io(m.park_id, m.risk_hits, m.risk_misses, m.curve_hits, m.curve_misses,
     m.tile_hits, m.tile_misses, m.tile_pool_resident_tiles,
     m.tile_pool_resident_bytes, m.tile_pool_hits, m.tile_pool_misses,
     m.tile_pool_evictions, m.scoring_backend);
}

// A Status travels as its wire code, then its message. It converts on the
// way, so it is the one codec written once per direction.
void ArchiveFields(FieldWriter& io, const Status& status) {
  io(WireCodeFromStatus(status.code()), status.message());
}

void ArchiveFields(FieldReader& io, Status& status) {
  uint32_t wire_code = 0;
  std::string message;
  io(wire_code, message);
  status = Status(StatusCodeFromWire(wire_code), std::move(message));
}

namespace {

template <typename T>
std::string Encode(const T& message) {
  return ToArchiveBytes(message, kTag<T>);
}

/// Validates the whole payload — CRC, section tag, every field, no
/// trailing bytes — and returns InvalidArgument on any malformation.
template <typename T>
Status DecodeInto(const std::string& payload, T* message) {
  return FromArchiveBytes(payload, message, kTag<T>);
}

template <typename T>
StatusOr<T> Decode(const std::string& payload) {
  T message;
  PAWS_RETURN_IF_ERROR(DecodeInto(payload, &message));
  return StatusOr<T>(std::move(message));
}

}  // namespace

std::string EncodeStatusPayload(const Status& status) { return Encode(status); }
Status DecodeStatusPayload(const std::string& payload, Status* decoded) {
  return DecodeInto(payload, decoded);
}

std::string EncodeRiskMapRequest(const RiskMapRequest& m) { return Encode(m); }
StatusOr<RiskMapRequest> DecodeRiskMapRequest(const std::string& payload) {
  return Decode<RiskMapRequest>(payload);
}

std::string EncodeRiskTileRequest(const RiskTileRequest& m) {
  return Encode(m);
}
StatusOr<RiskTileRequest> DecodeRiskTileRequest(const std::string& payload) {
  return Decode<RiskTileRequest>(payload);
}

std::string EncodeCellCurvesRequest(const CellCurvesRequest& m) {
  return Encode(m);
}
StatusOr<CellCurvesRequest> DecodeCellCurvesRequest(
    const std::string& payload) {
  return Decode<CellCurvesRequest>(payload);
}

std::string EncodePlanForPostRequest(const PlanForPostRequest& m) {
  return Encode(m);
}
StatusOr<PlanForPostRequest> DecodePlanForPostRequest(
    const std::string& payload) {
  return Decode<PlanForPostRequest>(payload);
}

std::string EncodeSwapSnapshotRequest(const SwapSnapshotRequest& m) {
  return Encode(m);
}
StatusOr<SwapSnapshotRequest> DecodeSwapSnapshotRequest(
    const std::string& payload) {
  return Decode<SwapSnapshotRequest>(payload);
}

std::string EncodeStatsRequest(const StatsRequest& m) { return Encode(m); }
StatusOr<StatsRequest> DecodeStatsRequest(const std::string& payload) {
  return Decode<StatsRequest>(payload);
}

std::string EncodeMapVersionRequest(const MapVersionRequest& m) {
  return Encode(m);
}
StatusOr<MapVersionRequest> DecodeMapVersionRequest(
    const std::string& payload) {
  return Decode<MapVersionRequest>(payload);
}

std::string EncodeMapVersionResponse(const MapVersionResponse& m) {
  return Encode(m);
}
StatusOr<MapVersionResponse> DecodeMapVersionResponse(
    const std::string& payload) {
  return Decode<MapVersionResponse>(payload);
}

std::string EncodeSwapFleetMapRequest(const SwapFleetMapRequest& m) {
  return Encode(m);
}
StatusOr<SwapFleetMapRequest> DecodeSwapFleetMapRequest(
    const std::string& payload) {
  return Decode<SwapFleetMapRequest>(payload);
}

std::string EncodeGetSnapshotRequest(const GetSnapshotRequest& m) {
  return Encode(m);
}
StatusOr<GetSnapshotRequest> DecodeGetSnapshotRequest(
    const std::string& payload) {
  return Decode<GetSnapshotRequest>(payload);
}

std::string EncodeGetSnapshotResponse(const GetSnapshotResponse& m) {
  return Encode(m);
}
StatusOr<GetSnapshotResponse> DecodeGetSnapshotResponse(
    const std::string& payload) {
  return Decode<GetSnapshotResponse>(payload);
}

std::string EncodeRepairRequest(const RepairRequest& m) { return Encode(m); }
StatusOr<RepairRequest> DecodeRepairRequest(const std::string& payload) {
  return Decode<RepairRequest>(payload);
}

std::string EncodeRepairResponse(const RepairResponse& m) { return Encode(m); }
StatusOr<RepairResponse> DecodeRepairResponse(const std::string& payload) {
  return Decode<RepairResponse>(payload);
}

std::string EncodeRiskMapsPayload(const RiskMaps& maps) { return Encode(maps); }
StatusOr<RiskMaps> DecodeRiskMapsPayload(const std::string& payload) {
  return Decode<RiskMaps>(payload);
}

std::string EncodeRiskTilePayload(const RiskTile& tile) { return Encode(tile); }
StatusOr<RiskTile> DecodeRiskTilePayload(const std::string& payload) {
  return Decode<RiskTile>(payload);
}

std::string EncodeEffortCurveTablePayload(const EffortCurveTable& table) {
  return Encode(table);
}
StatusOr<EffortCurveTable> DecodeEffortCurveTablePayload(
    const std::string& payload) {
  return Decode<EffortCurveTable>(payload);
}

std::string EncodePatrolPlanPayload(const PatrolPlan& plan) {
  return Encode(plan);
}
StatusOr<PatrolPlan> DecodePatrolPlanPayload(const std::string& payload) {
  return Decode<PatrolPlan>(payload);
}

std::string EncodeStatsReportPayload(const ServerStatsReport& report) {
  return Encode(report);
}
StatusOr<ServerStatsReport> DecodeStatsReportPayload(
    const std::string& payload) {
  return Decode<ServerStatsReport>(payload);
}

}  // namespace paws

#include "net/wire.h"

#include <cstring>
#include <iterator>
#include <utility>

namespace paws {

namespace {

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

uint64_t LoadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

Status BrokenStream(const std::string& what) {
  return Status::InvalidArgument("wire: " + what);
}

}  // namespace

std::string OpcodeName(uint32_t opcode) {
  switch (static_cast<Opcode>(opcode)) {
    case Opcode::kRiskMap:
      return "RiskMap";
    case Opcode::kRiskMapBatch:
      return "RiskMapBatch";
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

bool IsRequestOpcode(uint32_t opcode) {
  return opcode >= static_cast<uint32_t>(Opcode::kRiskMap) &&
         opcode <= static_cast<uint32_t>(Opcode::kRiskTile);
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
// (Fields). WireWriter and WireReader walk that one description in the two
// directions, so encode and decode cannot drift apart.

namespace {

/// A field list takes its message as Ref<Io, T>: `const T&` when writing,
/// `T&` when reading.
template <typename Io, typename T>
using Ref = typename Io::template Ref<T>;

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
void Fields(Io& io, Ref<Io, RiskMapRequest> m) {
  io(m.park_id, m.assumed_effort);
}

template <>
constexpr uint32_t kTag<RiskMapBatchRequest> = FourCc("RQRB");
template <typename Io>
void Fields(Io& io, Ref<Io, RiskMapBatchRequest> m) { io(m.requests); }

template <>
constexpr uint32_t kTag<RiskTileRequest> = FourCc("RQRT");
template <typename Io>
void Fields(Io& io, Ref<Io, RiskTileRequest> m) {
  io(m.park_id, m.tile_id, m.assumed_effort);
}

template <>
constexpr uint32_t kTag<CellCurvesRequest> = FourCc("RQCC");
template <typename Io>
void Fields(Io& io, Ref<Io, CellCurvesRequest> m) {
  io(m.park_id, m.cell_ids, m.effort_grid);
}

template <>
constexpr uint32_t kTag<PlanForPostRequest> = FourCc("RQPP");
template <typename Io>
void Fields(Io& io, Ref<Io, PlanForPostRequest> m) {
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
void Fields(Io& io, Ref<Io, SwapSnapshotRequest> m) {
  io(m.park_id, m.snapshot_bytes);
}

template <>
constexpr uint32_t kTag<StatsRequest> = FourCc("RQST");
template <typename Io>
void Fields(Io& io, Ref<Io, StatsRequest> m) { io(m.park_id); }

template <>
constexpr uint32_t kTag<MapVersionRequest> = FourCc("RQMV");
template <typename Io>
void Fields(Io& io, Ref<Io, MapVersionRequest> m) { io(m.known_version); }

template <>
constexpr uint32_t kTag<MapVersionResponse> = FourCc("RSMV");
template <typename Io>
void Fields(Io& io, Ref<Io, MapVersionResponse> m) {
  io(m.version, m.has_map, m.map_bytes);
}

template <>
constexpr uint32_t kTag<SwapFleetMapRequest> = FourCc("RQFM");
template <typename Io>
void Fields(Io& io, Ref<Io, SwapFleetMapRequest> m) { io(m.map_bytes); }

template <>
constexpr uint32_t kTag<GetSnapshotRequest> = FourCc("RQGS");
template <typename Io>
void Fields(Io& io, Ref<Io, GetSnapshotRequest> m) { io(m.park_id); }

template <>
constexpr uint32_t kTag<GetSnapshotResponse> = FourCc("RSGS");
template <typename Io>
void Fields(Io& io, Ref<Io, GetSnapshotResponse> m) { io(m.snapshot_bytes); }

template <>
constexpr uint32_t kTag<RepairRequest> = FourCc("RQRP");
template <typename Io>
void Fields(Io& io, Ref<Io, RepairRequest> m) { io(m.park_id, m.sources); }

template <>
constexpr uint32_t kTag<RepairResponse> = FourCc("RSRP");
template <typename Io>
void Fields(Io& io, Ref<Io, RepairResponse> m) { io(m.action); }

/// Batch response: one (ok, maps | status) item per request, in order.
template <>
constexpr uint32_t kTag<std::vector<StatusOr<RiskMaps>>> = FourCc("RSRB");

template <>
constexpr uint32_t kTag<ServerStatsReport> = FourCc("RSST");
template <typename Io>
void Fields(Io& io, Ref<Io, ServerStatsReport> m) {
  io(m.accepted_connections, m.rejected_connections, m.active_connections,
     m.frames_in, m.frames_out, m.protocol_errors, m.deadline_expired,
     m.parks);
}

template <typename Io>
void Fields(Io& io, Ref<Io, ServerStatsReport::ParkStats> m) {
  io(m.park_id, m.risk_hits, m.risk_misses, m.curve_hits, m.curve_misses,
     m.tile_hits, m.tile_misses, m.tile_pool_resident_tiles,
     m.tile_pool_resident_bytes, m.tile_pool_hits, m.tile_pool_misses,
     m.tile_pool_evictions, m.scoring_backend);
}

/// Writes fields, in order, into an archive. A type without an overload
/// here is a message: its field list is written inline.
class WireWriter {
 public:
  template <typename T>
  using Ref = const T&;

  explicit WireWriter(ArchiveWriter* out) : out_(out) {}

  template <typename... Ts>
  void operator()(const Ts&... fields) { (Write(fields), ...); }

 private:
  void Write(uint64_t v) { out_->WriteU64(v); }
  void Write(int32_t v) { out_->WriteI32(v); }
  void Write(int64_t v) { out_->WriteI64(v); }
  void Write(bool v) { out_->WriteBool(v); }
  void Write(double v) { out_->WriteDouble(v); }
  void Write(const std::string& v) { out_->WriteString(v); }
  void Write(const std::vector<int>& v) { out_->WriteIntVector(v); }
  void Write(const std::vector<double>& v) { out_->WriteDoubleVector(v); }
  void Write(const Status& status) {
    out_->WriteU32(WireCodeFromStatus(status.code()));
    out_->WriteString(status.message());
  }
  void Write(const RiskMaps& v) { SaveRiskMaps(v, out_); }
  void Write(const RiskTile& v) { SaveRiskTile(v, out_); }
  void Write(const EffortCurveTable& v) { SaveEffortCurveTable(v, out_); }
  void Write(const PatrolPlan& v) { SavePatrolPlan(v, out_); }
  template <typename T>
  void Write(const StatusOr<T>& result) {
    out_->WriteBool(result.ok());
    if (result.ok()) {
      Write(*result);
    } else {
      Write(result.status());
    }
  }
  template <typename T>
  void Write(const std::vector<T>& items) {
    out_->WriteU64(items.size());
    for (const T& item : items) Write(item);
  }
  template <typename T>
  void Write(const T& message) { Fields(*this, message); }

  ArchiveWriter* out_;
};

/// Reads fields, in order, out of an archive: the mirror of WireWriter.
/// The first failure sticks; later reads are skipped and status() reports
/// it.
class WireReader {
 public:
  template <typename T>
  using Ref = T&;

  explicit WireReader(ArchiveReader* in) : in_(in) {}

  template <typename... Ts>
  void operator()(Ts&... fields) {
    ((status_.ok() ? Read(fields) : void()), ...);
  }

  const Status& status() const { return status_; }

 private:
  void Read(uint64_t& v) { status_ = in_->ReadU64(&v); }
  void Read(int32_t& v) { status_ = in_->ReadI32(&v); }
  void Read(int64_t& v) { status_ = in_->ReadI64(&v); }
  void Read(bool& v) { status_ = in_->ReadBool(&v); }
  void Read(double& v) { status_ = in_->ReadDouble(&v); }
  void Read(std::string& v) { status_ = in_->ReadString(&v); }
  void Read(std::vector<int>& v) { status_ = in_->ReadIntVector(&v); }
  void Read(std::vector<double>& v) { status_ = in_->ReadDoubleVector(&v); }
  void Read(Status& status) {
    uint32_t wire_code = 0;
    std::string message;
    status_ = in_->ReadU32(&wire_code);
    if (status_.ok()) status_ = in_->ReadString(&message);
    if (status_.ok()) {
      status = Status(StatusCodeFromWire(wire_code), std::move(message));
    }
  }
  void Read(RiskMaps& v) { Take(LoadRiskMaps(in_), &v); }
  void Read(RiskTile& v) { Take(LoadRiskTile(in_), &v); }
  void Read(EffortCurveTable& v) { Take(LoadEffortCurveTable(in_), &v); }
  void Read(PatrolPlan& v) { Take(LoadPatrolPlan(in_), &v); }
  template <typename T>
  void Read(std::vector<T>& items) {
    uint64_t count = 0;
    Read(count);
    // Every element takes at least one byte, which refuses absurd counts
    // outright. The count is still unproven until its elements parse, and
    // an element can be a hundred times larger in memory than on the wire,
    // so nothing is reserved from it.
    if (status_.ok() && count > in_->remaining()) {
      status_ = BrokenStream("element count " + std::to_string(count) +
                             " overruns the payload");
    }
    items.clear();
    for (uint64_t i = 0; i < count && status_.ok(); ++i) Append(&items);
  }
  template <typename T>
  void Read(T& message) { Fields(*this, message); }

  template <typename T>
  void Append(std::vector<T>* items) {
    T item;
    (*this)(item);
    items->push_back(std::move(item));
  }
  template <typename T>
  void Append(std::vector<StatusOr<T>>* items) {
    bool ok = false;
    (*this)(ok);
    if (ok) {
      T value;
      (*this)(value);
      items->push_back(std::move(value));
      return;
    }
    Status error;
    (*this)(error);
    // An OK status would make a StatusOr that claims a value it lacks.
    if (status_.ok() && error.ok()) {
      status_ = BrokenStream("error item carries status OK");
    }
    items->push_back(std::move(error));
  }
  template <typename T>
  void Take(StatusOr<T> loaded, T* out) {
    if (loaded.ok()) {
      *out = std::move(loaded).value();
    } else {
      status_ = loaded.status();
    }
  }

  ArchiveReader* in_;
  Status status_;
};

template <typename T>
std::string Encode(const T& message) {
  ArchiveWriter archive;
  WireWriter writer(&archive);
  if (kTag<T> != 0) archive.BeginSection(kTag<T>);
  writer(message);
  if (kTag<T> != 0) archive.EndSection();
  return archive.Bytes();
}

/// Validates the whole payload — CRC, section tag, every field, no
/// trailing bytes — and returns InvalidArgument on any malformation.
template <typename T>
Status DecodeInto(const std::string& payload, T* message) {
  PAWS_ASSIGN_OR_RETURN(ArchiveReader archive,
                        ArchiveReader::FromBytes(payload));
  if (kTag<T> != 0) PAWS_RETURN_IF_ERROR(archive.EnterSection(kTag<T>));
  WireReader reader(&archive);
  reader(*message);
  PAWS_RETURN_IF_ERROR(reader.status());
  if (kTag<T> != 0) PAWS_RETURN_IF_ERROR(archive.LeaveSection());
  return archive.ExpectEnd();
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

std::string EncodeRiskMapBatchRequest(const RiskMapBatchRequest& m) {
  return Encode(m);
}
StatusOr<RiskMapBatchRequest> DecodeRiskMapBatchRequest(
    const std::string& payload) {
  return Decode<RiskMapBatchRequest>(payload);
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

std::string EncodeRiskMapBatchPayload(
    const std::vector<StatusOr<RiskMaps>>& results) {
  return Encode(results);
}
StatusOr<std::vector<StatusOr<RiskMaps>>> DecodeRiskMapBatchPayload(
    const std::string& payload) {
  return Decode<std::vector<StatusOr<RiskMaps>>>(payload);
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

#include "serve/park_server.h"

#include <memory>
#include <utility>
#include <vector>

#include "core/snapshot.h"
#include "fleet/fleet_map.h"
#include "net/client.h"

namespace paws {

namespace {

template <typename T>
size_t Bytes(const std::vector<T>& values) {
  return values.size() * sizeof(T);
}

size_t AnswerBytes(const RiskMaps& maps) {
  return Bytes(maps.risk) + Bytes(maps.variance);
}

size_t AnswerBytes(const RiskTile& tile) {
  return Bytes(tile.cell_ids) + Bytes(tile.risk) + Bytes(tile.variance);
}

size_t AnswerBytes(const EffortCurveTable& table) {
  return Bytes(table.effort_grid) + Bytes(table.qualified_count) +
         Bytes(table.prob) + Bytes(table.variance);
}

template <typename T>
bool FitsInline(const T& answer) {
  return AnswerBytes(answer) <= ParkServer::kInlineAnswerBytes;
}

}  // namespace

Status ParkServer::Start(FrameServerOptions options) {
  max_frame_bytes_ = options.max_frame_bytes;
  return server_.Start(
      std::move(options),
      [this](const Frame& request) { return Handle(request); },
      [this](const Frame& request, Frame* response) {
        return TryHandleCached(request, response);
      });
}

bool ParkServer::TryHandleCached(const Frame& request, Frame* response) {
  std::string payload;
  switch (static_cast<Opcode>(request.opcode)) {
    case Opcode::kRiskMap: {
      const StatusOr<RiskMapRequest> decoded =
          DecodeRiskMapRequest(request.payload);
      if (!decoded.ok()) return false;
      const std::shared_ptr<const RiskMaps> maps = service_->TryCachedRiskMap(
          decoded->park_id, decoded->assumed_effort, FitsInline<RiskMaps>);
      if (maps == nullptr) return false;
      payload = EncodeRiskMapsPayload(*maps);
      break;
    }
    case Opcode::kRiskTile: {
      const StatusOr<RiskTileRequest> decoded =
          DecodeRiskTileRequest(request.payload);
      if (!decoded.ok()) return false;
      const std::shared_ptr<const RiskTile> tile = service_->TryCachedRiskTile(
          decoded->park_id, decoded->tile_id, decoded->assumed_effort,
          FitsInline<RiskTile>);
      if (tile == nullptr) return false;
      payload = EncodeRiskTilePayload(*tile);
      break;
    }
    case Opcode::kCellCurves: {
      const StatusOr<CellCurvesRequest> decoded =
          DecodeCellCurvesRequest(request.payload);
      if (!decoded.ok()) return false;
      const std::shared_ptr<const EffortCurveTable> table =
          service_->TryCachedCellCurves(decoded->park_id, decoded->cell_ids,
                                        decoded->effort_grid,
                                        FitsInline<EffortCurveTable>);
      if (table == nullptr) return false;
      payload = EncodeEffortCurveTablePayload(*table);
      break;
    }
    default:
      return false;
  }
  response->request_id = request.request_id;
  response->opcode = static_cast<uint32_t>(Opcode::kOkResponse);
  response->payload = std::move(payload);
  return true;
}

Frame ParkServer::Handle(const Frame& request) {
  StatusOr<std::string> payload = Dispatch(request);
  Frame response;
  response.request_id = request.request_id;
  if (payload.ok()) {
    response.opcode = static_cast<uint32_t>(Opcode::kOkResponse);
    response.payload = std::move(payload).value();
  } else {
    response.opcode = static_cast<uint32_t>(Opcode::kStatusResponse);
    response.payload = EncodeStatusPayload(payload.status());
  }
  return response;
}

StatusOr<std::string> ParkServer::Dispatch(const Frame& request) {
  const std::string& payload = request.payload;
  switch (static_cast<Opcode>(request.opcode)) {
    case Opcode::kRiskMap:
      return HandleRiskMap(payload);
    case Opcode::kCellCurves:
      return HandleCellCurves(payload);
    case Opcode::kPlanForPost:
      return HandlePlanForPost(payload);
    case Opcode::kSwapSnapshot:
      return HandleSwapSnapshot(payload);
    case Opcode::kStats:
      return HandleStats(payload);
    case Opcode::kMapVersion:
      return HandleMapVersion(payload);
    case Opcode::kSwapFleetMap:
      return HandleSwapFleetMap(payload);
    case Opcode::kGetSnapshot:
      return HandleGetSnapshot(payload);
    case Opcode::kRepair:
      return HandleRepair(payload);
    case Opcode::kRiskTile:
      return HandleRiskTile(payload);
    case Opcode::kOkResponse:
    case Opcode::kStatusResponse:
      break;
  }
  return Status::InvalidArgument("unknown request opcode " +
                                 OpcodeName(request.opcode));
}

StatusOr<std::string> ParkServer::HandleRiskMap(const std::string& payload) {
  PAWS_ASSIGN_OR_RETURN(RiskMapRequest request, DecodeRiskMapRequest(payload));
  PAWS_ASSIGN_OR_RETURN(
      std::shared_ptr<const RiskMaps> maps,
      service_->RiskMap(request.park_id, request.assumed_effort));
  return EncodeRiskMapsPayload(*maps);
}

StatusOr<std::string> ParkServer::HandleRiskTile(const std::string& payload) {
  PAWS_ASSIGN_OR_RETURN(RiskTileRequest request,
                        DecodeRiskTileRequest(payload));
  PAWS_ASSIGN_OR_RETURN(std::shared_ptr<const RiskTile> tile,
                        service_->RiskTile(request.park_id, request.tile_id,
                                           request.assumed_effort));
  return EncodeRiskTilePayload(*tile);
}

StatusOr<std::string> ParkServer::HandleCellCurves(
    const std::string& payload) {
  PAWS_ASSIGN_OR_RETURN(CellCurvesRequest request,
                        DecodeCellCurvesRequest(payload));
  // The request sizes its answer: prob and variance alone take 16 bytes
  // per (cell, grid point). Refuse an answer FinishResponse would refuse
  // before the table is computed and kept in the park's curve cache.
  const uint64_t table_bytes = uint64_t{16} * request.cell_ids.size() *
                               request.effort_grid.size();
  if (table_bytes > max_frame_bytes_) {
    return Status::ResourceExhausted(
        "ParkServer: CellCurves table of " + std::to_string(table_bytes) +
        " bytes exceeds the " + std::to_string(max_frame_bytes_) +
        "-byte frame cap");
  }
  PAWS_ASSIGN_OR_RETURN(
      std::shared_ptr<const EffortCurveTable> table,
      service_->CellCurves(request.park_id, request.cell_ids,
                           std::move(request.effort_grid)));
  return EncodeEffortCurveTablePayload(*table);
}

StatusOr<std::string> ParkServer::HandlePlanForPost(
    const std::string& payload) {
  PAWS_ASSIGN_OR_RETURN(PlanForPostRequest request,
                        DecodePlanForPostRequest(payload));
  PAWS_ASSIGN_OR_RETURN(
      PatrolPlan plan,
      service_->PlanForPost(request.park_id, request.post_index,
                            request.config, request.robust));
  return EncodePatrolPlanPayload(plan);
}

StatusOr<std::string> ParkServer::HandleSwapSnapshot(
    const std::string& payload) {
  PAWS_ASSIGN_OR_RETURN(SwapSnapshotRequest request,
                        DecodeSwapSnapshotRequest(payload));
  PAWS_RETURN_IF_ERROR(Install(request.park_id, request.snapshot_bytes));
  return std::string();
}

Status ParkServer::Install(const std::string& park_id,
                           const std::string& snapshot_bytes) {
  PAWS_ASSIGN_OR_RETURN(ModelSnapshot snapshot,
                        ModelSnapshot::FromBytes(snapshot_bytes));
  Status swapped = service_->SwapSnapshot(park_id, std::move(snapshot));
  if (swapped.code() != StatusCode::kNotFound) return swapped;
  // Upsert: the park is new to this daemon — register it. The swap
  // consumed nothing on NotFound (registry lookup precedes any move), so
  // decode again rather than guess at moved-from state.
  PAWS_ASSIGN_OR_RETURN(ModelSnapshot fresh,
                        ModelSnapshot::FromBytes(snapshot_bytes));
  return service_->Register(park_id, std::move(fresh));
}

StatusOr<std::string> ParkServer::HandleStats(const std::string& payload) {
  PAWS_ASSIGN_OR_RETURN(StatsRequest request, DecodeStatsRequest(payload));
  const FrameServer::Stats net = server_.stats();
  ServerStatsReport report{net.accepted_connections, net.rejected_connections,
                           net.active_connections,   net.frames_in,
                           net.frames_out,           net.protocol_errors,
                           net.deadline_expired,     {}};
  std::vector<std::string> park_ids;
  if (request.park_id.empty()) {
    park_ids = service_->park_ids();
  } else {
    park_ids.push_back(request.park_id);
  }
  for (const std::string& park_id : park_ids) {
    PAWS_ASSIGN_OR_RETURN(ParkService::CacheStats risk,
                          service_->RiskCacheStats(park_id));
    PAWS_ASSIGN_OR_RETURN(ParkService::CacheStats curve,
                          service_->CurveCacheStats(park_id));
    PAWS_ASSIGN_OR_RETURN(ParkService::TileStats tile,
                          service_->RiskTileStats(park_id));
    PAWS_ASSIGN_OR_RETURN(std::string backend,
                          service_->ScoringBackendName(park_id));
    report.parks.push_back({park_id, risk.hits, risk.misses, curve.hits,
                            curve.misses, tile.hits, tile.misses,
                            tile.pool.resident_tiles,
                            tile.pool.resident_bytes, tile.pool.hits,
                            tile.pool.misses, tile.pool.evictions,
                            std::move(backend)});
  }
  return EncodeStatsReportPayload(report);
}

StatusOr<std::string> ParkServer::HandleMapVersion(
    const std::string& payload) {
  PAWS_ASSIGN_OR_RETURN(MapVersionRequest request,
                        DecodeMapVersionRequest(payload));
  MapVersionResponse response;
  std::lock_guard<std::mutex> lock(fleet_mu_);
  response.version = fleet_map_version_;
  // The map travels only when the caller is behind: the handshake is a
  // cheap per-connection heartbeat, and routers that are current must not
  // pay the artifact's bytes on every probe.
  if (fleet_map_version_ > request.known_version) {
    response.has_map = true;
    response.map_bytes = fleet_map_bytes_;
  }
  return EncodeMapVersionResponse(response);
}

StatusOr<std::string> ParkServer::HandleSwapFleetMap(
    const std::string& payload) {
  PAWS_ASSIGN_OR_RETURN(SwapFleetMapRequest request,
                        DecodeSwapFleetMapRequest(payload));
  PAWS_ASSIGN_OR_RETURN(FleetMap map, FleetMap::FromBytes(request.map_bytes));
  std::lock_guard<std::mutex> lock(fleet_mu_);
  if (map.version() <= fleet_map_version_ && fleet_map_version_ != 0) {
    return Status::FailedPrecondition(
        "fleet map version " + std::to_string(map.version()) +
        " does not advance stored version " +
        std::to_string(fleet_map_version_));
  }
  fleet_map_version_ = map.version();
  fleet_map_bytes_ = std::move(request.map_bytes);
  return std::string();
}

StatusOr<std::string> ParkServer::HandleGetSnapshot(
    const std::string& payload) {
  PAWS_ASSIGN_OR_RETURN(GetSnapshotRequest request,
                        DecodeGetSnapshotRequest(payload));
  PAWS_ASSIGN_OR_RETURN(std::string bytes,
                        service_->SnapshotBytes(request.park_id));
  return EncodeGetSnapshotResponse({std::move(bytes)});
}

StatusOr<std::string> ParkServer::HandleRepair(const std::string& payload) {
  PAWS_ASSIGN_OR_RETURN(RepairRequest request, DecodeRepairRequest(payload));

  // Verify before pulling: if the locally served artifact round-trips
  // through the archive layer, the daemon is healthy and the nudge is a
  // no-op ("verified").
  StatusOr<std::string> local = service_->SnapshotBytes(request.park_id);
  if (local.ok() && ModelSnapshot::FromBytes(*local).ok()) {
    return EncodeRepairResponse({"verified"});
  }

  // The park is missing or its artifact is damaged: re-pull from the
  // listed source replicas, first healthy source wins.
  Status last = Status::Internal("repair of '" + request.park_id +
                                 "': no sources listed");
  for (const std::string& source : request.sources) {
    // Sources are peer input: a malformed one is skipped, not guessed at.
    const StatusOr<FleetEndpoint> endpoint = FleetEndpoint::Parse(source);
    if (!endpoint.ok()) {
      last = endpoint.status();
      continue;
    }
    if (endpoint->port == server_.port() &&
        (endpoint->host == "127.0.0.1" || endpoint->host == "localhost")) {
      continue;  // never pull from ourselves — that is the damaged copy
    }
    ParkClient peer(ClientOptions{}, endpoint->host, endpoint->port);
    StatusOr<std::string> pulled = peer.GetSnapshot(request.park_id);
    last = pulled.ok() ? Install(request.park_id, *pulled) : pulled.status();
    if (last.ok()) return EncodeRepairResponse({"repaired"});
  }
  return last;
}

}  // namespace paws

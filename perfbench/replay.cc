// The traced replay and the layer probes: each layer timed by bracketing
// calls into its public functions from here.
#include <algorithm>

#include "core/risk_map.h"
#include "measure.h"
#include "plan/graph.h"
#include "plan/planner.h"
#include "plan/robust.h"
#include "util/archive.h"

namespace perfbench {

using namespace paws;

namespace {

// Keeps the timed Crc32 calls from being optimized away.
volatile uint32_t g_crc_sink = 0;

struct ServerSpans {
  double decode_us = 0.0;
  double call_us = 0.0;
  double encode_us = 0.0;
};

// One request's server half: decode, serving call, encode.
template <typename Decode, typename Call, typename Encode>
StatusOr<std::string> ServeSteps(const std::string& bytes, Decode decode,
                                 Call call, Encode encode,
                                 ServerSpans* spans) {
  const auto t0 = Clock::now();
  auto request = decode(bytes);
  const auto t1 = Clock::now();
  if (!request.ok()) return request.status();
  auto result = call(*request);
  const auto t2 = Clock::now();
  if (!result.ok()) return result.status();
  std::string out = encode(*result);
  const auto t3 = Clock::now();
  spans->decode_us = UsBetween(t0, t1);
  spans->call_us = UsBetween(t1, t2);
  spans->encode_us = UsBetween(t2, t3);
  return out;
}

// ParkServer::Handle's steps for the opcodes the workloads send.
StatusOr<std::string> ServeInProcess(ParkService* service, Opcode op,
                                     const std::string& bytes,
                                     ServerSpans* spans) {
  switch (op) {
    case Opcode::kRiskMap:
      return ServeSteps(
          bytes, DecodeRiskMapRequest,
          [&](const RiskMapRequest& r) {
            return service->RiskMap(r.park_id, r.assumed_effort);
          },
          [](const std::shared_ptr<const RiskMaps>& maps) {
            return EncodeRiskMapsPayload(*maps);
          },
          spans);
    case Opcode::kCellCurves:
      return ServeSteps(
          bytes, DecodeCellCurvesRequest,
          [&](const CellCurvesRequest& r) {
            return service->CellCurves(r.park_id, r.cell_ids, r.effort_grid);
          },
          [](const std::shared_ptr<const EffortCurveTable>& table) {
            return EncodeEffortCurveTablePayload(*table);
          },
          spans);
    case Opcode::kRiskTile:
      return ServeSteps(
          bytes, DecodeRiskTileRequest,
          [&](const RiskTileRequest& r) {
            return service->RiskTile(r.park_id, r.tile_id, r.assumed_effort);
          },
          [](const std::shared_ptr<const RiskTile>& tile) {
            return EncodeRiskTilePayload(*tile);
          },
          spans);
    case Opcode::kStats:
      return ServeSteps(
          bytes, DecodeStatsRequest,
          [&](const StatsRequest& r) -> StatusOr<ServerStatsReport> {
            ServerStatsReport report;
            ServerStatsReport::ParkStats park;
            park.park_id = r.park_id;
            PAWS_ASSIGN_OR_RETURN(auto risk, service->RiskCacheStats(r.park_id));
            PAWS_ASSIGN_OR_RETURN(auto curve,
                                  service->CurveCacheStats(r.park_id));
            PAWS_ASSIGN_OR_RETURN(auto tile, service->RiskTileStats(r.park_id));
            PAWS_ASSIGN_OR_RETURN(park.scoring_backend,
                                  service->ScoringBackendName(r.park_id));
            park.risk_hits = risk.hits;
            park.risk_misses = risk.misses;
            park.curve_hits = curve.hits;
            park.curve_misses = curve.misses;
            park.tile_hits = tile.hits;
            park.tile_misses = tile.misses;
            report.parks.push_back(std::move(park));
            return report;
          },
          EncodeStatsReportPayload, spans);
    default:
      return Status::InvalidArgument("perfbench: no such request");
  }
}

}  // namespace

void ReplayLayers(World* world, const std::vector<Request>& sequence,
                  double budget_s, CoverageWriter* writer, LayerSamples* out,
                  Replies* replies) {
  const auto start = Clock::now();
  int reads = 0;
  for (const Request& request : sequence) {
    if (UsBetween(start, Clock::now()) > budget_s * 1e6) break;
    const auto t0 = Clock::now();
    const std::string request_bytes = EncodeRequest(request, *world);
    const auto t1 = Clock::now();
    ServerSpans spans;
    const StatusOr<std::string> response = ServeInProcess(
        world->service.get(), request.op, request_bytes, &spans);
    if (!response.ok()) {
      replies->Add(request, response.status());
    } else {
      const auto t2 = Clock::now();
      g_crc_sink = g_crc_sink ^ Crc32(response->data(), response->size());
      const auto t3 = Clock::now();
      const StatusOr<uint64_t> hash = DecodeReplyHash(request.op, *response);
      const auto t4 = Clock::now();
      out->request_encode_us.push_back(UsBetween(t0, t1));
      out->request_decode_us.push_back(spans.decode_us);
      out->call_us.push_back(spans.call_us);
      out->call_us_by_opcode[OpcodeName(static_cast<uint32_t>(request.op))]
          .push_back(spans.call_us);
      out->response_encode_us.push_back(spans.encode_us);
      out->response_decode_us.push_back(UsBetween(t3, t4));
      out->crc_ns += UsBetween(t2, t3) * 1e3;
      out->response_bytes_total += static_cast<double>(response->size());
      replies->Add(request, hash);
    }
    if (writer != nullptr && ++reads % writer->reads_per_update() == 0) {
      const double us = writer->Update(world);
      if (us >= 0.0) {
        out->update_us.push_back(us);
      } else {
        ++out->failed_updates;
      }
    }
  }
}

void ProbeTileLayers(const ModelSnapshot& reference,
                     const std::vector<std::pair<int, double>>& tiles,
                     LayerSamples* out) {
  for (const auto& [tile_id, effort] : tiles) {
    // A fresh plane has nothing resident, so its GetTile materializes.
    const TiledFeaturePlane cold(reference.park(), reference.lagged_effort(),
                                 reference.tiled_plane().options());
    const auto t0 = Clock::now();
    const RiskTile predicted = reference.PredictRiskTile(tile_id, effort);
    const auto t1 = Clock::now();
    const std::shared_ptr<const TiledFeaturePlane::Tile> rows =
        cold.GetTile(reference.park(), tile_id);
    const auto t2 = Clock::now();
    const RiskTile scored =
        ScoreRiskTile(reference.model(), *rows, cold.row_width(), effort);
    const auto t3 = Clock::now();
    CheckOrDie(HashOf(scored) == HashOf(predicted),
               "perfbench: ScoreRiskTile differs from PredictRiskTile");
    out->predict_tile_us.push_back(UsBetween(t0, t1));
    out->materialize_us.push_back(UsBetween(t1, t2));
    out->score_ns += UsBetween(t2, t3) * 1e3;
    out->score_cells += static_cast<double>(rows->cell_ids.size());
  }
}

void ProbePlanLayers(const ModelSnapshot& reference, int post,
                     int pwl_segments, LayerSamples* out) {
  PlannerConfig config;
  config.pwl_segments = pwl_segments;
  const Park& park = reference.park();
  const auto t0 = Clock::now();
  const PlanningGraph graph = BuildPlanningGraph(
      park, park.patrol_posts()[post], std::max(2, config.horizon / 2));
  const auto t1 = Clock::now();
  const EffortCurveTable curves = reference.PredictCellCurves(
      graph.park_cell_ids,
      UniformEffortGrid(0.0, PlannerEffortCap(config), config.pwl_segments));
  const auto t2 = Clock::now();
  const std::vector<PiecewiseLinear> utilities =
      MakeRobustUtilityTables(curves, RobustParams{});
  const auto t3 = Clock::now();
  const StatusOr<PatrolPlan> plan = PlanPatrols(graph, utilities, config);
  const auto t4 = Clock::now();
  CheckOrDie(plan.ok(), "perfbench: probe plan failed");
  out->graph_us.push_back(UsBetween(t0, t1));
  out->curves_us.push_back(UsBetween(t1, t2));
  out->utility_us.push_back(UsBetween(t2, t3));
  out->milp_ms.push_back(UsBetween(t3, t4) / 1000.0);
  out->milp_us_total += UsBetween(t3, t4);
  out->nodes += plan->nodes_explored;
  out->pivots += plan->simplex_iterations;
}

}  // namespace perfbench

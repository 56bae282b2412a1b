// Requests on the wire and their in-process answers.
#include "world.h"

namespace perfbench {

using namespace paws;

namespace {

template <typename T>
StatusOr<uint64_t> Fingerprinted(const StatusOr<T>& reply) {
  if (!reply.ok()) return reply.status();
  return HashOf(*reply);
}

}  // namespace

StatusOr<uint64_t> IssueOverClient(ParkClient* client, const Request& request,
                                   const World& world) {
  const std::string& park = world.park_ids[request.park];
  switch (request.op) {
    case Opcode::kRiskMap:
      return Fingerprinted(
          client->RiskMap(park, kServeEfforts[request.effort]));
    case Opcode::kCellCurves:
      return Fingerprinted(client->CellCurves(park, kCurveCells, kCurveGrid));
    case Opcode::kStats:
      return Fingerprinted(client->Stats(park));
    case Opcode::kRiskTile:
      return Fingerprinted(
          client->RiskTile(park, request.tile, kTileEfforts[request.effort]));
    default:
      return Status::InvalidArgument("perfbench: no such request");
  }
}

std::string EncodeRequest(const Request& request, const World& world) {
  const std::string& park = world.park_ids[request.park];
  switch (request.op) {
    case Opcode::kRiskMap:
      return EncodeRiskMapRequest({park, kServeEfforts[request.effort]});
    case Opcode::kCellCurves:
      return EncodeCellCurvesRequest({park, kCurveCells, kCurveGrid});
    case Opcode::kStats:
      return EncodeStatsRequest({park});
    case Opcode::kRiskTile:
      return EncodeRiskTileRequest(
          {park, request.tile, kTileEfforts[request.effort]});
    default:
      CheckOrDie(false, "perfbench: no such request");
      return "";
  }
}

StatusOr<uint64_t> DecodeReplyHash(Opcode op, const std::string& payload) {
  switch (op) {
    case Opcode::kRiskMap:
      return Fingerprinted(DecodeRiskMapsPayload(payload));
    case Opcode::kCellCurves:
      return Fingerprinted(DecodeEffortCurveTablePayload(payload));
    case Opcode::kStats:
      return Fingerprinted(DecodeStatsReportPayload(payload));
    case Opcode::kRiskTile:
      return Fingerprinted(DecodeRiskTilePayload(payload));
    default:
      return Status::InvalidArgument("perfbench: no such request");
  }
}

uint64_t ExpectedHash(const ModelSnapshot& reference, const Request& request,
                      const World& world) {
  switch (request.op) {
    case Opcode::kRiskMap:
      return HashOf(reference.PredictRisk(kServeEfforts[request.effort]));
    case Opcode::kCellCurves:
      return HashOf(reference.PredictCellCurves(kCurveCells, kCurveGrid));
    case Opcode::kStats: {
      ServerStatsReport report;
      report.parks.emplace_back();
      report.parks.back().park_id = world.park_ids[request.park];
      report.parks.back().scoring_backend =
          reference.model().scoring_backend_name();
      return HashOf(report);
    }
    case Opcode::kRiskTile:
      return HashOf(reference.PredictRiskTile(request.tile,
                                              kTileEfforts[request.effort]));
    default:
      CheckOrDie(false, "perfbench: no such request");
      return 0;
  }
}

}  // namespace perfbench

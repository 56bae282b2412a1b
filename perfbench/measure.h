// What a run measures: the closed-loop wire window, the tiles_cold coverage
// writer, and the traced in-process replay that times each layer by
// bracketing calls into its public functions.
#ifndef PAWS_PERFBENCH_MEASURE_H_
#define PAWS_PERFBENCH_MEASURE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <memory>
#include <string>
#include <vector>

#include "net/server.h"
#include "report.h"
#include "world.h"

namespace perfbench {

/// The replies of a window or a replay, counted by (request, reply
/// fingerprint): every reply is checked, but equal replies to one request
/// are compared with the in-process answer once. Keeps the benchmark's own
/// memory flat however many requests a run serves.
struct Replies {
  struct Seen {
    Request request;
    uint64_t count = 0;
  };
  std::map<std::pair<uint64_t, uint64_t>, Seen> seen;  // (KeyOf, hash)
  uint64_t errors = 0;

  void Add(const Request& request, const paws::StatusOr<uint64_t>& hash);
  void Merge(const Replies& other);
};

/// The coverage writer: each update flips a few seeded coverage units
/// (World::units) between the park's layer A and layer B
/// (CoverageLayerB) and installs the park's new layer with
/// ParkService::UpdateCoverage.
class CoverageWriter {
 public:
  CoverageWriter(Kind kind, const World& world, uint64_t seed);
  int reads_per_update() const { return reads_per_update_; }
  /// One update; returns its UpdateCoverage latency in us, or a negative
  /// value when the call failed.
  double Update(World* world);
  /// Whether the request's unit was ever flipped: its reply may match
  /// either layer.
  bool Touched(const Request& request) const {
    return touched_[per_tile_ ? request.tile : request.park] != 0;
  }

 private:
  const World* world_;
  bool per_tile_;
  int reads_per_update_;
  int units_per_update_;
  paws::Rng rng_;
  std::vector<std::vector<double>> current_;  // per park
  std::vector<uint8_t> layer_;                // per unit: 0 = A, 1 = B
  std::vector<uint8_t> touched_;              // per unit
};

/// Summed cache and pool counters over every park of the service.
struct ServiceCounters {
  uint64_t risk_hits = 0, risk_misses = 0;
  uint64_t curve_hits = 0, curve_misses = 0;
  uint64_t tile_hits = 0, tile_misses = 0;
  uint64_t pool_hits = 0, pool_misses = 0, pool_evictions = 0;
  uint64_t pool_resident_bytes = 0;
};
ServiceCounters ReadCounters(const World& world);

struct WindowResult {
  /// Per connection: requests issued, and latencies of the served ones
  /// in whole nanoseconds (4 bytes each, so the benchmark's own memory
  /// barely moves peak_rss_mb when throughput changes).
  std::vector<uint64_t> issued;
  std::vector<std::deque<uint32_t>> latencies_ns;
  Replies replies;
  std::vector<double> update_us;
  int failed_updates = 0;
  double elapsed_s = 0.0;
  paws::FrameServer::Stats net_before, net_after;
  ServiceCounters before, after;

  /// Latencies of the served requests, in us.
  std::vector<double> OkLatencies() const;
  uint64_t ok_count() const;
};

/// Runs the closed loop for `seconds` while `writer` updates coverage on
/// its read schedule. `traced` replaces the typed client by request encode
/// / WireClient::Call / reply decode, each bracketed and recorded: the
/// same requests with client-side spans on.
WindowResult RunWindow(World* world, Kind kind, uint64_t seed, double seconds,
                       bool traced, CoverageWriter* writer);

/// Per-layer samples from the in-process replay and the layer probes.
struct LayerSamples {
  std::vector<double> request_encode_us, request_decode_us, call_us,
      response_encode_us, response_decode_us;
  std::map<std::string, std::vector<double>> call_us_by_opcode;
  double crc_ns = 0.0;  // Crc32 over every replayed response
  double response_bytes_total = 0.0;
  std::vector<double> update_us;
  int failed_updates = 0;
  std::vector<double> predict_tile_us, materialize_us;
  double score_ns = 0.0, score_cells = 0.0;
  std::vector<double> graph_us, curves_us, utility_us, milp_ms;
  double milp_us_total = 0.0;
  int64_t nodes = 0, pivots = 0;
};

/// Replays `sequence` in process, one request at a time: request encode,
/// server decode, the ParkService call, response encode, Crc32 over the
/// response bytes, client decode, with the writer's updates at the wire
/// schedule. Stops after `budget_s`. Adds the replies to `replies` for
/// checking.
void ReplayLayers(World* world, const std::vector<Request>& sequence,
                  double budget_s, CoverageWriter* writer, LayerSamples* out,
                  Replies* replies);

/// The requests a window issued, regenerated from the same seeded streams
/// and interleaved across connections in issue order.
std::vector<Request> WindowSequence(Kind kind, uint64_t seed,
                                    const World& world,
                                    const WindowResult& window);

/// Tile layers on the reference snapshot: ModelSnapshot::PredictRiskTile,
/// TiledFeaturePlane::GetTile on a miss, ScoreRiskTile.
void ProbeTileLayers(const paws::ModelSnapshot& reference,
                     const std::vector<std::pair<int, double>>& tiles,
                     LayerSamples* out);

/// The planning pipeline step by step (ModelSnapshot::PlanForPost's
/// steps): graph, curves, robust utility tables, PlanPatrols. Adds nodes
/// and pivots.
void ProbePlanLayers(const paws::ModelSnapshot& reference, int post,
                     int pwl_segments, LayerSamples* out);

}  // namespace perfbench

#endif  // PAWS_PERFBENCH_MEASURE_H_

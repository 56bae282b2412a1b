// The benchmark's served system and its request model: what a workload
// sets up (parks, a ParkService behind a ParkServer on loopback, connected
// clients), what a request is, and how replies are fingerprinted so they
// can be compared with the in-process answer bit for bit.
#ifndef PAWS_PERFBENCH_WORLD_H_
#define PAWS_PERFBENCH_WORLD_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/snapshot.h"
#include "net/client.h"
#include "net/wire.h"
#include "serve/park_server.h"
#include "serve/park_service.h"
#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

enum class Kind { kServeCached, kTilesCold };

/// Parses a workload name; false when unknown.
bool ParseKind(const std::string& name, Kind* out);
const char* KindName(Kind kind);
/// Closed-loop client connections each workload drives.
constexpr int kConnections = 2;

// --------------------------------------------------------------- menus

/// serve_cached: loadgen's effort menu, curve request and zipf exponent.
extern const std::vector<double> kServeEfforts;
extern const std::vector<int> kCurveCells;
extern const std::vector<double> kCurveGrid;
constexpr double kZipfS = 1.1;
constexpr int kServeParks = 8;

/// tiles_cold: effort menu.
extern const std::vector<double> kTileEfforts;

/// The coverage writer's schedule: one UpdateCoverage per this many reads,
/// flipping this many coverage units (tiles_cold: tiles of the mega park;
/// serve_cached: whole parks).
int ReadsPerUpdate(Kind kind);
int UnitsPerUpdate(Kind kind);

// ------------------------------------------------------------- requests

/// One generated request. The program under test only ever sees the wire
/// request built from it.
struct Request {
  paws::Opcode op = paws::Opcode::kRiskMap;
  int park = 0;    // index into World::park_ids
  int tile = 0;    // RiskTile only
  int effort = 0;  // RiskMap / RiskTile: index into the effort menu
};

/// Identifies the request's in-process answer.
uint64_t KeyOf(const Request& request);

/// Seeded request generator for one connection. serve_cached draws the
/// loadgen mix (90% RiskMap, 8% CellCurves, 2% Stats) zipfian over the
/// parks; tiles_cold draws tiles and efforts uniformly.
class RequestStream {
 public:
  RequestStream(Kind kind, uint64_t seed, int num_tiles);
  Request Next();

 private:
  Kind kind_;
  paws::Rng rng_;
  int num_tiles_;
  std::vector<double> zipf_cdf_;
};

/// Independent per-purpose seeds derived from the workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

// ----------------------------------------------------- reply fingerprints

uint64_t HashOf(const paws::RiskMaps& maps);
uint64_t HashOf(const paws::RiskTile& tile);
uint64_t HashOf(const paws::EffortCurveTable& table);
/// Stats replies carry live counters; only the park ids and their scoring
/// backends are comparable with an in-process answer.
uint64_t HashOf(const paws::ServerStatsReport& report);

// ---------------------------------------------------------- the system

struct World {
  std::unique_ptr<paws::ParkService> service;
  std::unique_ptr<paws::ParkServer> server;
  std::vector<std::string> park_ids;
  /// serve_cached: the registered snapshot archives, from which the
  /// reference snapshots and the load probe are built.
  std::vector<std::string> snapshot_bytes;
  /// Each park's coverage layer at registration (layer A).
  std::vector<std::vector<double>> coverage_a;
  /// The units the coverage writer flips: the mega park's tiles
  /// (tiles_cold) or whole parks (serve_cached).
  struct CoverageUnit {
    int park = 0;
    std::vector<int> cells;
  };
  std::vector<CoverageUnit> units;
  int num_tiles = 0;
  /// Park generation time inside this set-up (tiles_cold only).
  double park_gen_ms = 0.0;
  /// Connected clients for the timed window; declared last so they close
  /// before the server drains.
  std::vector<std::unique_ptr<paws::ParkClient>> clients;
};

/// Builds a fresh world: trains or generates the parks, registers them,
/// starts the server, connects the clients and warms the caches the
/// workload relies on. `*setup_s` is the time this took, excluding the
/// benchmark's own bookkeeping.
std::unique_ptr<World> SetupWorld(Kind kind, double* setup_s);

/// The snapshot the world serves as park `park`, rebuilt independently of
/// the served copy — the in-process answer replies are checked against.
std::unique_ptr<paws::ModelSnapshot> BuildReferenceSnapshot(
    Kind kind, const World& world, int park);

/// Coverage layer B of a cell, the writer's alternative to layer A.
double CoverageLayerB(int cell);

/// Generation time of serve_cached's smoke parks through the geo layer,
/// in ms. tiles_cold times its mega park inside SetupWorld
/// (World::park_gen_ms).
double TimeSmokeParkGeneration();

// ------------------------------------------------------------- requests

/// Sends `request` through the typed client and fingerprints the reply.
paws::StatusOr<uint64_t> IssueOverClient(paws::ParkClient* client,
                                         const Request& request,
                                         const World& world);
/// The wire request payload for `request`.
std::string EncodeRequest(const Request& request, const World& world);
/// Decodes a kOkResponse payload for `op` and fingerprints it.
paws::StatusOr<uint64_t> DecodeReplyHash(paws::Opcode op,
                                         const std::string& payload);
/// The in-process answer's fingerprint.
uint64_t ExpectedHash(const paws::ModelSnapshot& reference,
                      const Request& request, const World& world);

}  // namespace perfbench

#endif  // PAWS_PERFBENCH_WORLD_H_

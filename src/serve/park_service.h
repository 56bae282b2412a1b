#ifndef PAWS_SERVE_PARK_SERVICE_H_
#define PAWS_SERVE_PARK_SERVICE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/snapshot.h"
#include "util/lru_cache.h"

namespace paws {

struct ParkServiceOptions {
  /// Per-park LRU capacity for served risk-map tiles (entries keyed by
  /// snapshot version + the TILE's coverage version + tile id + effort).
  /// Tiles are the sub-park serving unit, so the capacity is wider than
  /// the whole-map cache: a mega park serves a working set of tiles, not
  /// a handful of whole maps.
  int tile_cache_capacity = 64;
};

/// Multi-tenant serving front end: one process answering risk-map,
/// risk-tile, effort-curve and patrol-plan queries for many protected
/// areas at once. Three layers deep — each park's ModelSnapshot carries
/// its feature rows (a pooled TiledFeaturePlane), its model scores through
/// the selected ScoringBackend, and this registry adds concurrent lookup
/// plus per-park LRUs of recently served risk maps, tiles and curve
/// tables.
///
/// Concurrency model (read-mostly):
///  - The registry map is guarded by a shared_mutex: serving calls take it
///    shared, Register/Evict take it exclusive. Entries are shared_ptrs,
///    so an evicted park finishes in-flight requests safely.
///  - Each park entry has its own shared_mutex: readers (RiskMap,
///    CellCurves, PlanForPost) hold it shared; writers (SwapSnapshot,
///    UpdateCoverage) hold it exclusive — a swap can never tear a read.
///  - Served risk maps are cached per park in an LRU keyed by
///    (snapshot_version, coverage_version, effort) and returned as
///    shared_ptr<const RiskMaps>: hits are a map lookup, and version keys
///    make stale hits impossible after a swap or coverage update
///    (cache-invalidation contract: README "Serving architecture").
///
/// Determinism: all serving is bit-identical to calling the underlying
/// ModelSnapshot directly — caching only short-circuits recomputation of
/// identical outputs, and concurrent readers see either the full
/// before-state or the full after-state of any writer.
class ParkService {
 public:
  explicit ParkService(ParkServiceOptions options = {});

  /// Registers a park under `park_id`. Fails with InvalidArgument if the
  /// id is empty or already registered (use SwapSnapshot to replace).
  Status Register(const std::string& park_id, ModelSnapshot snapshot);

  /// Removes a park. In-flight requests against it complete normally.
  /// Returns false if the id was not registered.
  bool Evict(const std::string& park_id);

  int num_parks() const;
  std::vector<std::string> park_ids() const;

  /// Risk/uncertainty maps for every cell of `park_id` at `assumed_effort`
  /// km — served from the per-park LRU when an identical (snapshot,
  /// coverage, effort) triple was served recently.
  StatusOr<std::shared_ptr<const RiskMaps>> RiskMap(
      const std::string& park_id, double assumed_effort) const;

  /// One 64x64-cell tile of the risk map of `park_id` at `assumed_effort`
  /// km — the sub-park serving unit behind pan/zoom map frontends and the
  /// kRiskTile wire opcode. Served from the per-park tile LRU on a key of
  /// (snapshot_version, tile_coverage_version(tile_id), tile_id, effort):
  /// keying on the TILE's coverage version (not the global one) keeps
  /// every untouched tile's cached result valid across a partial
  /// UpdateCoverage. Bit-identical to the matching cells of RiskMap.
  StatusOr<std::shared_ptr<const paws::RiskTile>> RiskTile(
      const std::string& park_id, int tile_id, double assumed_effort) const;

  /// Tabulated effort curves for the given cells of `park_id` — served
  /// from the per-park curve LRU when an identical (snapshot, coverage,
  /// cells, grid) tuple was served recently.
  StatusOr<std::shared_ptr<const EffortCurveTable>> CellCurves(
      const std::string& park_id, const std::vector<int>& cell_ids,
      std::vector<double> effort_grid) const;

  /// Non-blocking probes of the three result caches, for a caller that
  /// must never wait (FrameServer's event thread). Each returns what the
  /// matching call above would serve from its cache when the registry, the
  /// park and the cache locks are free, the result is cached and `accept`
  /// takes it; otherwise nullptr. They never compute and never validate:
  /// only validated requests are cached, so a malformed one just misses.
  /// A returned value counts as the cache hit; nullptr counts nothing, so
  /// the blocking call that follows counts the request once.
  template <typename T>
  using Accept = std::function<bool(const T&)>;
  std::shared_ptr<const RiskMaps> TryCachedRiskMap(
      const std::string& park_id, double assumed_effort,
      const Accept<RiskMaps>& accept) const;
  std::shared_ptr<const paws::RiskTile> TryCachedRiskTile(
      const std::string& park_id, int tile_id, double assumed_effort,
      const Accept<paws::RiskTile>& accept) const;
  std::shared_ptr<const EffortCurveTable> TryCachedCellCurves(
      const std::string& park_id, const std::vector<int>& cell_ids,
      const std::vector<double>& effort_grid,
      const Accept<EffortCurveTable>& accept) const;

  /// Robust patrol plan around `post_index` of `park_id`.
  StatusOr<PatrolPlan> PlanForPost(const std::string& park_id, int post_index,
                                   const PlannerConfig& config,
                                   const RobustParams& robust) const;

  /// Writer: installs a fresh lagged patrol-coverage layer (invalidates
  /// cached risk maps via the coverage version key). A layer that is not
  /// one finite, non-negative value per park cell is rejected with
  /// InvalidArgument and changes nothing.
  Status UpdateCoverage(const std::string& park_id,
                        std::vector<double> lagged_effort);

  /// Writer: atomically replaces the park's snapshot (a retrained model
  /// arriving from the training fleet). Readers never see a half-swapped
  /// state; cached risk maps from the old snapshot die with its version.
  Status SwapSnapshot(const std::string& park_id, ModelSnapshot snapshot);

  /// The wire-format snapshot archive (ModelSnapshot::Save bytes) the park
  /// currently serves — what replica-to-replica migration and read repair
  /// pull. Serialized under the park's reader lock, so it can never tear
  /// against a concurrent SwapSnapshot.
  StatusOr<std::string> SnapshotBytes(const std::string& park_id) const;

  /// Cumulative cache counters for one park (zeroed on SwapSnapshot;
  /// Evict discards them).
  using CacheStats = ServedCacheStats;
  StatusOr<CacheStats> RiskCacheStats(const std::string& park_id) const;
  /// Same counters for the effort-curve-table LRU.
  StatusOr<CacheStats> CurveCacheStats(const std::string& park_id) const;

  /// Tile-serving counters for one park: the served-tile LRU (hits /
  /// misses, zeroed on SwapSnapshot) plus the snapshot's feature-tile
  /// pool (see TilePoolStats — pool counters reset with the snapshot
  /// because the pool lives inside it) and the tile geometry.
  struct TileStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    TilePoolStats pool;
    int tile_size = 0;
    int tiles_x = 0;
    int tiles_y = 0;
  };
  StatusOr<TileStats> RiskTileStats(const std::string& park_id) const;

  /// The ScoringBackend the park's model currently dispatches through
  /// (see kScoringBackendNames in ml/scoring_backend.h) — e.g.
  /// "compiled-dtb-avx2" on an AVX2 host serving bagged trees. Can change
  /// across SwapSnapshot: the backend is re-selected per snapshot.
  StatusOr<std::string> ScoringBackendName(const std::string& park_id) const;

 private:
  /// Served-cache keys are flat words under one hash. Efforts and grid
  /// points enter as IEEE-754 bit patterns, so equality and hash agree by
  /// construction (numeric == would make 0.0 and -0.0 equal keys with
  /// different hashes, corrupting the LRU's index). Keys compare in full:
  /// a hash collision can never serve the wrong result.
  ///
  /// (snapshot version, coverage version, effort bits).
  using RiskKey = std::array<uint64_t, 3>;
  /// (snapshot version, the tile's coverage version, tile id, effort
  /// bits). The tile's coverage version is the one as of the last update
  /// that touched it, so cached tiles survive coverage updates that
  /// changed only other tiles.
  using TileKey = std::array<uint64_t, 4>;
  /// (snapshot version, coverage version, cell count, cell ids..., grid
  /// bits...); the count keeps the layout prefix-free.
  using CurveKey = std::vector<uint64_t>;
  /// FNV-1a over each key word's 8 little-endian bytes.
  struct KeyHash {
    template <typename Words>
    size_t operator()(const Words& words) const {
      uint64_t h = 0xcbf29ce484222325ull;
      for (const uint64_t word : words) {
        for (int i = 0; i < 8; ++i) {
          h ^= (word >> (8 * i)) & 0xff;
          h *= 0x100000001b3ull;
        }
      }
      return static_cast<size_t>(h);
    }
  };

  /// Entry capacities of the risk-map and curve-table caches.
  static constexpr size_t kRiskCacheCapacity = 16;
  static constexpr size_t kCurveCacheCapacity = 16;

  struct Entry {
    Entry(ModelSnapshot snap, int tile_cache_capacity)
        : snapshot(std::move(snap)),
          risk_cache(kRiskCacheCapacity),
          curve_cache(kCurveCacheCapacity),
          tile_cache(tile_cache_capacity) {}

    /// Guards `snapshot` and `snapshot_version`: serving reads hold it
    /// shared, SwapSnapshot/UpdateCoverage hold it exclusive.
    mutable std::shared_mutex mu;
    ModelSnapshot snapshot;
    uint64_t snapshot_version = 1;

    /// Each cache locks internally, so hits from concurrent readers (who
    /// only hold `mu` shared) stay safe.
    mutable ServedCache<RiskKey, std::shared_ptr<const RiskMaps>, KeyHash>
        risk_cache;
    mutable ServedCache<CurveKey, std::shared_ptr<const EffortCurveTable>,
                        KeyHash>
        curve_cache;
    mutable ServedCache<TileKey, std::shared_ptr<const paws::RiskTile>,
                        KeyHash>
        tile_cache;
  };

  /// Shared-locked registry lookup; nullptr when absent.
  std::shared_ptr<Entry> Find(const std::string& park_id) const;

  /// A park with its lock held shared, both taken without waiting. `entry`
  /// is nullptr when the park is absent or a writer holds the registry or
  /// the park. The lock is released before the entry is.
  struct Pinned {
    std::shared_ptr<Entry> entry;
    std::shared_lock<std::shared_mutex> lock;
  };
  Pinned TryPin(const std::string& park_id) const;

  /// Each cache's key for the park's current state; the caller holds
  /// `entry.mu`. The blocking calls and the probes both build their keys
  /// here, so a probe can only find what the blocking call cached.
  static RiskKey RiskKeyOf(const Entry& entry, double assumed_effort);
  static TileKey TileKeyOf(const Entry& entry, int tile_id,
                           double assumed_effort);
  static CurveKey CurveKeyOf(const Entry& entry,
                             const std::vector<int>& cell_ids,
                             const std::vector<double>& effort_grid);

  ParkServiceOptions options_;
  mutable std::shared_mutex registry_mu_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> parks_;
};

}  // namespace paws

#endif  // PAWS_SERVE_PARK_SERVICE_H_

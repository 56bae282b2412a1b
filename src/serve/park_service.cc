#include "serve/park_service.h"

#include <cstring>
#include <utility>

#include "util/archive.h"

namespace paws {

namespace {

Status UnknownPark(const std::string& park_id) {
  return Status::NotFound("ParkService: no park registered as '" + park_id +
                          "'");
}

uint64_t EffortBits(double effort) {
  uint64_t bits = 0;
  std::memcpy(&bits, &effort, sizeof(bits));
  return bits;
}

/// Lifts a probe's predicate on a served value to the cache's shared_ptr.
template <typename T>
auto OnPointee(const ParkService::Accept<T>& accept) {
  return [&accept](const std::shared_ptr<const T>& value) {
    return accept(*value);
  };
}

}  // namespace

ParkService::ParkService(ParkServiceOptions options)
    : options_(std::move(options)) {
  CheckOrDie(options_.tile_cache_capacity > 0,
             "ParkService: tile_cache_capacity must be positive");
}

Status ParkService::Register(const std::string& park_id,
                             ModelSnapshot snapshot) {
  if (park_id.empty()) {
    return Status::InvalidArgument("ParkService: empty park id");
  }
  auto entry = std::make_shared<Entry>(std::move(snapshot),
                                       options_.tile_cache_capacity);
  std::unique_lock<std::shared_mutex> lock(registry_mu_);
  if (!parks_.emplace(park_id, std::move(entry)).second) {
    return Status::InvalidArgument("ParkService: park '" + park_id +
                                   "' already registered");
  }
  return Status::OK();
}

bool ParkService::Evict(const std::string& park_id) {
  std::unique_lock<std::shared_mutex> lock(registry_mu_);
  return parks_.erase(park_id) > 0;
}

int ParkService::num_parks() const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  return static_cast<int>(parks_.size());
}

std::vector<std::string> ParkService::park_ids() const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  std::vector<std::string> ids;
  ids.reserve(parks_.size());
  for (const auto& kv : parks_) ids.push_back(kv.first);
  return ids;
}

std::shared_ptr<ParkService::Entry> ParkService::Find(
    const std::string& park_id) const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  const auto it = parks_.find(park_id);
  return it == parks_.end() ? nullptr : it->second;
}

ParkService::Pinned ParkService::TryPin(const std::string& park_id) const {
  Pinned park;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_, std::try_to_lock);
    if (!lock.owns_lock()) return park;
    const auto it = parks_.find(park_id);
    if (it == parks_.end()) return park;
    park.entry = it->second;
  }
  park.lock = std::shared_lock<std::shared_mutex>(park.entry->mu,
                                                  std::try_to_lock);
  if (!park.lock.owns_lock()) park.entry = nullptr;
  return park;
}

ParkService::RiskKey ParkService::RiskKeyOf(const Entry& entry,
                                            double assumed_effort) {
  return {entry.snapshot_version, entry.snapshot.coverage_version(),
          EffortBits(assumed_effort)};
}

ParkService::TileKey ParkService::TileKeyOf(const Entry& entry, int tile_id,
                                            double assumed_effort) {
  // Keyed on the TILE's coverage version: an UpdateCoverage that changed
  // other tiles leaves this key — and its cached result — valid.
  return {entry.snapshot_version,
          entry.snapshot.tile_coverage_version(tile_id),
          static_cast<uint64_t>(tile_id), EffortBits(assumed_effort)};
}

ParkService::CurveKey ParkService::CurveKeyOf(
    const Entry& entry, const std::vector<int>& cell_ids,
    const std::vector<double>& effort_grid) {
  // Strictly-increasing grids can still differ only in bit pattern
  // (-0.0 head vs 0.0), so the key uses the bits — same contract as the
  // risk-map cache.
  CurveKey key;
  key.reserve(3 + cell_ids.size() + effort_grid.size());
  key.push_back(entry.snapshot_version);
  key.push_back(entry.snapshot.coverage_version());
  key.push_back(cell_ids.size());
  for (int id : cell_ids) key.push_back(static_cast<uint64_t>(id));
  for (double e : effort_grid) key.push_back(EffortBits(e));
  return key;
}

StatusOr<std::shared_ptr<const RiskMaps>> ParkService::RiskMap(
    const std::string& park_id, double assumed_effort) const {
  // Malformed client input must surface as Status: the CheckOrDie inside
  // the prediction path would abort the whole multi-tenant process.
  if (!(assumed_effort >= 0.0)) {
    return Status::InvalidArgument(
        "ParkService: assumed_effort must be >= 0");
  }
  const std::shared_ptr<Entry> entry = Find(park_id);
  if (entry == nullptr) return UnknownPark(park_id);
  // Shared snapshot lock for the whole request: a SwapSnapshot or
  // UpdateCoverage can never tear the (versions, prediction) pair.
  std::shared_lock<std::shared_mutex> lock(entry->mu);
  const RiskKey key = RiskKeyOf(*entry, assumed_effort);
  // Whole-park maps are assembled tile by tile through the snapshot's
  // feature-tile pool, with tiles fanned out across dedicated threads
  // (never the shared pool; the tile fetch takes the plane's pool mutex).
  return entry->risk_cache.GetOrCompute(key, [&] {
    return std::make_shared<const RiskMaps>(
        entry->snapshot.PredictRisk(assumed_effort));
  });
}

StatusOr<std::shared_ptr<const paws::RiskTile>> ParkService::RiskTile(
    const std::string& park_id, int tile_id, double assumed_effort) const {
  if (!(assumed_effort >= 0.0)) {
    return Status::InvalidArgument(
        "ParkService: assumed_effort must be >= 0");
  }
  const std::shared_ptr<Entry> entry = Find(park_id);
  if (entry == nullptr) return UnknownPark(park_id);
  std::shared_lock<std::shared_mutex> lock(entry->mu);
  // Tile ids are client input (the CheckOrDie inside the plane would
  // abort the process).
  if (tile_id < 0 || tile_id >= entry->snapshot.num_tiles()) {
    return Status::InvalidArgument("ParkService: tile id out of range");
  }
  const TileKey key = TileKeyOf(*entry, tile_id, assumed_effort);
  return entry->tile_cache.GetOrCompute(key, [&] {
    return std::make_shared<const paws::RiskTile>(
        entry->snapshot.PredictRiskTile(tile_id, assumed_effort));
  });
}

StatusOr<std::shared_ptr<const EffortCurveTable>> ParkService::CellCurves(
    const std::string& park_id, const std::vector<int>& cell_ids,
    std::vector<double> effort_grid) const {
  // Grid shape is client input here (PredictEffortCurves aborts on it).
  // The first-point check also rejects NaN anywhere: a NaN head fails
  // `>= 0`, and a NaN later fails the strictly-increasing comparison.
  if (effort_grid.empty() || !(effort_grid[0] >= 0.0)) {
    return Status::InvalidArgument(
        "ParkService: effort grid must start at a non-negative value");
  }
  for (size_t k = 1; k < effort_grid.size(); ++k) {
    if (!(effort_grid[k] > effort_grid[k - 1])) {
      return Status::InvalidArgument(
          "ParkService: effort grid must be strictly increasing");
    }
  }
  const std::shared_ptr<Entry> entry = Find(park_id);
  if (entry == nullptr) return UnknownPark(park_id);
  std::shared_lock<std::shared_mutex> lock(entry->mu);
  for (int id : cell_ids) {
    if (id < 0 || id >= entry->snapshot.park().num_cells()) {
      return Status::InvalidArgument("ParkService: cell id out of range");
    }
  }
  const CurveKey key = CurveKeyOf(*entry, cell_ids, effort_grid);
  return entry->curve_cache.GetOrCompute(key, [&] {
    return std::make_shared<const EffortCurveTable>(
        entry->snapshot.PredictCellCurves(cell_ids, std::move(effort_grid)));
  });
}

std::shared_ptr<const RiskMaps> ParkService::TryCachedRiskMap(
    const std::string& park_id, double assumed_effort,
    const Accept<RiskMaps>& accept) const {
  const Pinned park = TryPin(park_id);
  if (park.entry == nullptr) return nullptr;
  return park.entry->risk_cache
      .TryGet(RiskKeyOf(*park.entry, assumed_effort), OnPointee(accept))
      .value_or(nullptr);
}

std::shared_ptr<const paws::RiskTile> ParkService::TryCachedRiskTile(
    const std::string& park_id, int tile_id, double assumed_effort,
    const Accept<paws::RiskTile>& accept) const {
  const Pinned park = TryPin(park_id);
  if (park.entry == nullptr) return nullptr;
  // The one check a probe repeats: the key reads the tile's version, and
  // the plane dies on an id out of range.
  if (tile_id < 0 || tile_id >= park.entry->snapshot.num_tiles()) {
    return nullptr;
  }
  return park.entry->tile_cache
      .TryGet(TileKeyOf(*park.entry, tile_id, assumed_effort),
              OnPointee(accept))
      .value_or(nullptr);
}

std::shared_ptr<const EffortCurveTable> ParkService::TryCachedCellCurves(
    const std::string& park_id, const std::vector<int>& cell_ids,
    const std::vector<double>& effort_grid,
    const Accept<EffortCurveTable>& accept) const {
  const Pinned park = TryPin(park_id);
  if (park.entry == nullptr) return nullptr;
  return park.entry->curve_cache
      .TryGet(CurveKeyOf(*park.entry, cell_ids, effort_grid),
              OnPointee(accept))
      .value_or(nullptr);
}

StatusOr<PatrolPlan> ParkService::PlanForPost(
    const std::string& park_id, int post_index, const PlannerConfig& config,
    const RobustParams& robust) const {
  // Mirror the robust-utility preconditions (robust.cc CheckOrDie's) as
  // Status: the planner config and post index are already validated
  // downstream, but RobustParams is client input too.
  if (!(robust.beta >= 0.0 && robust.beta <= 1.0)) {
    return Status::InvalidArgument("ParkService: beta must be in [0, 1]");
  }
  if (!(robust.squash_scale > 0.0)) {
    return Status::InvalidArgument(
        "ParkService: squash_scale must be positive");
  }
  const std::shared_ptr<Entry> entry = Find(park_id);
  if (entry == nullptr) return UnknownPark(park_id);
  std::shared_lock<std::shared_mutex> lock(entry->mu);
  return entry->snapshot.PlanForPost(post_index, config, robust);
}

Status ParkService::UpdateCoverage(const std::string& park_id,
                                   std::vector<double> lagged_effort) {
  const std::shared_ptr<Entry> entry = Find(park_id);
  if (entry == nullptr) return UnknownPark(park_id);
  std::unique_lock<std::shared_mutex> lock(entry->mu);
  // A malformed layer is rejected untouched. Otherwise the plane's
  // coverage version bumps; cached maps keyed on the old version can
  // never be served again and age out of the LRU.
  return entry->snapshot.UpdateLaggedEffort(std::move(lagged_effort));
}

Status ParkService::SwapSnapshot(const std::string& park_id,
                                 ModelSnapshot snapshot) {
  const std::shared_ptr<Entry> entry = Find(park_id);
  if (entry == nullptr) return UnknownPark(park_id);
  std::unique_lock<std::shared_mutex> lock(entry->mu);
  entry->snapshot = std::move(snapshot);
  ++entry->snapshot_version;
  // Old-version keys are unreachable; clearing frees them early and
  // zeroes the counters.
  entry->risk_cache.Clear();
  entry->curve_cache.Clear();
  entry->tile_cache.Clear();
  return Status::OK();
}

StatusOr<std::string> ParkService::SnapshotBytes(
    const std::string& park_id) const {
  const std::shared_ptr<Entry> entry = Find(park_id);
  if (entry == nullptr) return UnknownPark(park_id);
  std::shared_lock<std::shared_mutex> lock(entry->mu);
  ArchiveWriter writer;
  entry->snapshot.Save(&writer);
  return writer.Bytes();
}

StatusOr<ParkService::CacheStats> ParkService::RiskCacheStats(
    const std::string& park_id) const {
  const std::shared_ptr<Entry> entry = Find(park_id);
  if (entry == nullptr) return UnknownPark(park_id);
  return entry->risk_cache.stats();
}

StatusOr<ParkService::CacheStats> ParkService::CurveCacheStats(
    const std::string& park_id) const {
  const std::shared_ptr<Entry> entry = Find(park_id);
  if (entry == nullptr) return UnknownPark(park_id);
  return entry->curve_cache.stats();
}

StatusOr<ParkService::TileStats> ParkService::RiskTileStats(
    const std::string& park_id) const {
  const std::shared_ptr<Entry> entry = Find(park_id);
  if (entry == nullptr) return UnknownPark(park_id);
  TileStats stats;
  const CacheStats served = entry->tile_cache.stats();
  stats.hits = served.hits;
  stats.misses = served.misses;
  // Shared lock: the pool and geometry live inside the snapshot, which
  // SwapSnapshot replaces under the exclusive lock.
  std::shared_lock<std::shared_mutex> lock(entry->mu);
  stats.pool = entry->snapshot.tile_pool_stats();
  const TileGeometry& geo = entry->snapshot.tiled_plane().geometry();
  stats.tile_size = geo.tile_size;
  stats.tiles_x = geo.tiles_x;
  stats.tiles_y = geo.tiles_y;
  return stats;
}

StatusOr<std::string> ParkService::ScoringBackendName(
    const std::string& park_id) const {
  const std::shared_ptr<Entry> entry = Find(park_id);
  if (entry == nullptr) return UnknownPark(park_id);
  // Shared lock: the backend pointer lives inside the snapshot's model and
  // is replaced by SwapSnapshot (exclusive); copying the name out under
  // the lock keeps the returned string valid past a swap.
  std::shared_lock<std::shared_mutex> lock(entry->mu);
  return std::string(entry->snapshot.model().scoring_backend_name());
}

}  // namespace paws

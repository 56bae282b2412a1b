#ifndef PAWS_GEO_PARK_H_
#define PAWS_GEO_PARK_H_

#include <string>
#include <vector>

#include "geo/grid.h"
#include "util/archive.h"
#include "util/status.h"

namespace paws {

/// A protected area discretized into 1x1 km cells, with static geospatial
/// feature rasters. Mirrors the paper's dataset processing (Sec. III-B):
/// terrain features (elevation, slope, forest cover), landscape features
/// (distance to rivers, roads, villages, patrol posts, park boundary) and
/// ecological features (animal density, net primary productivity).
class Park {
 public:
  Park(std::string name, GridB mask);
  /// A park with no cells: only a target for LoadRecord to fill in.
  Park() = default;

  const std::string& name() const { return name_; }
  int width() const { return mask_.width(); }
  int height() const { return mask_.height(); }

  /// Boolean raster: true for cells inside the protected area.
  const GridB& mask() const { return mask_; }

  /// Number of in-park cells (the paper's N).
  int num_cells() const { return static_cast<int>(cell_indices_.size()); }

  /// Flat grid indices of in-park cells, in row-major order. The position
  /// of an index in this list is the cell's dense id in [0, num_cells()).
  const std::vector<int>& cell_indices() const { return cell_indices_; }

  /// Dense id of the in-park cell with flat grid index `grid_index`, or -1.
  int DenseId(int grid_index) const;
  int DenseIdOf(const Cell& c) const { return DenseId(mask_.Index(c)); }

  /// Cell of dense id `id`.
  Cell CellOf(int id) const;

  /// Registers a static feature raster. Values at out-of-park cells are
  /// ignored. Returns the feature's column index.
  int AddFeature(std::string feature_name, GridD raster);

  int num_features() const { return static_cast<int>(features_.size()); }
  std::vector<std::string> feature_names() const;
  const GridD& feature(int f) const { return features_[f].raster; }
  StatusOr<int> FeatureIndex(const std::string& feature_name) const;

  /// Writes the static features of dense cell `dense_id`, num_features()
  /// values in park order, to `out`. AddFeature and the PARK loader
  /// (CheckRaster) prove every raster has the mask's shape, so the cell's
  /// one grid index addresses every raster.
  void CopyFeatures(int dense_id, double* out) const {
    CheckOrDie(dense_id >= 0 && dense_id < num_cells(),
               "Park::CopyFeatures out of bounds");
    const size_t grid_index = cell_indices_[dense_id];
    for (const Feature& f : features_) *out++ = f.raster.data()[grid_index];
  }

  /// Patrol posts: cells where every patrol must start and end.
  void AddPatrolPost(const Cell& c);
  const std::vector<Cell>& patrol_posts() const { return patrol_posts_; }

  struct Feature {
    std::string name;
    GridD raster;

    template <typename Io>
    friend void ArchiveFields(Io& io, ArchiveRef<Io, Feature> f) {
      io(f.name, f.raster);
    }
  };

  /// Archived as a "PARK" section holding the full geometry — the name,
  /// the mask, the named feature rasters (bit-exact) and the patrol posts —
  /// which is what a model snapshot needs to serve risk maps and plans
  /// without the training scenario. The mask is checked before the
  /// rasters it shapes are read, and each raster and post as it is read.
  /// Cell indexing is rebuilt on load, and then every in-park raster value
  /// must be finite: a NaN there would be scored into the served maps.
  /// Out-of-park values stay ignored, as AddFeature documents.
  static constexpr ArchiveSection kArchiveSection{FourCc("PARK"), 1};
  template <typename Io>
  friend void ArchiveFields(Io& io, ArchiveRef<Io, Park> p) {
    io(p.name_, p.mask_);
    io.Check(p.CheckMask());
    io(ArchiveGuarded(
           p.features_, kAnyCount,
           [&p](const Feature& f) { return p.CheckRaster(f.raster); }),
       ArchiveGuarded(p.patrol_posts_, kAnyCount,
                      [&p](const Cell& c) { return p.CheckPost(c); }));
  }
  friend Status ArchiveLoaded(Park& park) {
    park.IndexCells();
    return park.CheckFinite();
  }

 private:
  /// Derives the dense cell ids from the mask.
  void IndexCells();
  /// The read-time checks of ArchiveFields.
  Status CheckMask() const;
  Status CheckRaster(const GridD& raster) const;
  Status CheckPost(const Cell& c) const;
  /// The load-time check of ArchiveLoaded: in-park raster values only.
  Status CheckFinite() const;

  std::string name_;
  GridB mask_;
  std::vector<int> cell_indices_;
  std::vector<int> dense_id_;  // grid index -> dense id or -1
  std::vector<Feature> features_;
  std::vector<Cell> patrol_posts_;
};

}  // namespace paws

#endif  // PAWS_GEO_PARK_H_

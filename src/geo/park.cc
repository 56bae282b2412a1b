#include "geo/park.h"

#include <cmath>

namespace paws {

Park::Park(std::string name, GridB mask)
    : name_(std::move(name)), mask_(std::move(mask)) {
  IndexCells();
}

void Park::IndexCells() {
  cell_indices_.clear();
  dense_id_.assign(mask_.size(), -1);
  for (int i = 0; i < mask_.size(); ++i) {
    if (mask_.AtIndex(i)) {
      dense_id_[i] = static_cast<int>(cell_indices_.size());
      cell_indices_.push_back(i);
    }
  }
  CheckOrDie(!cell_indices_.empty(), "Park has no in-park cells");
}

int Park::DenseId(int grid_index) const {
  CheckOrDie(grid_index >= 0 && grid_index < mask_.size(),
             "Park::DenseId out of bounds");
  return dense_id_[grid_index];
}

Cell Park::CellOf(int id) const {
  CheckOrDie(id >= 0 && id < num_cells(), "Park::CellOf out of bounds");
  return mask_.CellAt(cell_indices_[id]);
}

int Park::AddFeature(std::string feature_name, GridD raster) {
  CheckOrDie(CheckRaster(raster).ok(),
             "Park::AddFeature raster shape mismatch");
  features_.push_back({std::move(feature_name), std::move(raster)});
  return static_cast<int>(features_.size()) - 1;
}

std::vector<std::string> Park::feature_names() const {
  std::vector<std::string> names;
  for (const Feature& f : features_) names.push_back(f.name);
  return names;
}

StatusOr<int> Park::FeatureIndex(const std::string& feature_name) const {
  for (size_t i = 0; i < features_.size(); ++i) {
    if (features_[i].name == feature_name) return static_cast<int>(i);
  }
  return Status::NotFound("no feature named " + feature_name);
}

void Park::AddPatrolPost(const Cell& c) {
  CheckOrDie(CheckPost(c).ok(), "Park::AddPatrolPost outside the park");
  patrol_posts_.push_back(c);
}

Status Park::CheckMask() const {
  for (uint8_t m : mask_.data()) {
    if (m != 0) return Status::OK();
  }
  return Status::InvalidArgument("Park: mask has no in-park cells");
}

Status Park::CheckRaster(const GridD& raster) const {
  if (raster.width() != width() || raster.height() != height()) {
    return Status::InvalidArgument("Park: feature raster shape mismatch");
  }
  return Status::OK();
}

Status Park::CheckPost(const Cell& c) const {
  if (!mask_.InBounds(c) || !mask_.At(c)) {
    return Status::InvalidArgument("Park: patrol post outside the park");
  }
  return Status::OK();
}

Status Park::CheckFinite() const {
  for (const Feature& f : features_) {
    for (const int index : cell_indices_) {
      if (!std::isfinite(f.raster.data()[index])) {
        return Status::InvalidArgument("Park: feature '" + f.name +
                                       "' is not finite inside the park");
      }
    }
  }
  return Status::OK();
}

}  // namespace paws

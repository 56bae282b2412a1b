#ifndef PAWS_GEO_GRID_H_
#define PAWS_GEO_GRID_H_

#include <cstdint>
#include <vector>

#include "util/archive.h"
#include "util/status.h"

namespace paws {

/// Integer cell coordinate on a park grid. Each cell represents a
/// 1x1 km region, matching the paper's discretization.
struct Cell {
  int x = 0;
  int y = 0;

  friend bool operator==(const Cell& a, const Cell& b) {
    return a.x == b.x && a.y == b.y;
  }
};

template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, Cell> c) { io(c.x, c.y); }

/// Dense 2-D raster stored row-major (y-major). Used for every per-cell
/// layer in the system: elevation, distances, patrol effort, risk maps.
template <typename T>
class Grid2D {
 public:
  Grid2D() : width_(0), height_(0) {}
  Grid2D(int width, int height, T fill = T())
      : width_(width),
        height_(height),
        data_(static_cast<size_t>(width) * height, fill) {
    CheckOrDie(width >= 0 && height >= 0, "Grid2D dimensions must be >= 0");
  }

  int width() const { return width_; }
  int height() const { return height_; }
  int size() const { return width_ * height_; }

  bool InBounds(int x, int y) const {
    return x >= 0 && x < width_ && y >= 0 && y < height_;
  }
  bool InBounds(const Cell& c) const { return InBounds(c.x, c.y); }

  /// Flat index of a cell; the inverse of CellAt.
  int Index(int x, int y) const {
    CheckOrDie(InBounds(x, y), "Grid2D::Index out of bounds");
    return y * width_ + x;
  }
  int Index(const Cell& c) const { return Index(c.x, c.y); }

  Cell CellAt(int index) const {
    CheckOrDie(index >= 0 && index < size(), "Grid2D::CellAt out of bounds");
    return Cell{index % width_, index / width_};
  }

  T& At(int x, int y) { return data_[Index(x, y)]; }
  const T& At(int x, int y) const { return data_[Index(x, y)]; }
  T& At(const Cell& c) { return At(c.x, c.y); }
  const T& At(const Cell& c) const { return At(c.x, c.y); }
  T& AtIndex(int i) {
    CheckOrDie(i >= 0 && i < size(), "Grid2D::AtIndex out of bounds");
    return data_[i];
  }
  const T& AtIndex(int i) const {
    CheckOrDie(i >= 0 && i < size(), "Grid2D::AtIndex out of bounds");
    return data_[i];
  }

  void Fill(T value) { data_.assign(data_.size(), value); }

  const std::vector<T>& data() const { return data_; }
  std::vector<T>& data() { return data_; }

  /// Archived as width, height, then the flat payload; a read validates
  /// the shape, so a corrupt archive cannot build an inconsistent grid.
  template <typename Io>
  friend void ArchiveFields(Io& io, ArchiveRef<Io, Grid2D> g) {
    io(g.width_, g.height_, g.data_);
  }
  friend Status ArchiveLoaded(Grid2D& g) {
    if (g.width_ < 0 || g.height_ < 0 ||
        g.data_.size() != static_cast<size_t>(g.width_) * g.height_) {
      return Status::InvalidArgument("grid: payload/shape mismatch");
    }
    return Status::OK();
  }

 private:
  int width_;
  int height_;
  std::vector<T> data_;
};

using GridD = Grid2D<double>;
using GridI = Grid2D<int>;
// Note: uint8_t rather than bool to avoid the std::vector<bool> proxy.
using GridB = Grid2D<uint8_t>;

/// 4-neighborhood of a cell clipped to grid bounds.
std::vector<Cell> Neighbors4(const Grid2D<double>& grid, const Cell& c);

/// Euclidean distance between cell centers, in km (1 cell = 1 km).
double CellDistance(const Cell& a, const Cell& b);

}  // namespace paws

#endif  // PAWS_GEO_GRID_H_

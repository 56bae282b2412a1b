#include "ml/effort_curve.h"

#include <algorithm>

namespace paws {

namespace {

// Clamped grid-segment lookup shared by every tabulated evaluation:
// returns the bracketing indices and interpolation weight for `x` (both
// indices equal at the clamped ends, t = 0). Mirrors
// PiecewiseLinear::Eval so tabulated and PWL evaluations agree.
struct GridSegment {
  size_t lo = 0;
  size_t hi = 0;
  double t = 0.0;
};

GridSegment FindSegment(const std::vector<double>& grid, double x) {
  const size_t m = grid.size();
  if (x <= grid.front()) return {0, 0, 0.0};
  if (x >= grid.back()) return {m - 1, m - 1, 0.0};
  const auto it = std::upper_bound(grid.begin(), grid.end(), x);
  const size_t hi = it - grid.begin();
  const size_t lo = hi - 1;
  return {lo, hi, (x - grid[lo]) / (grid[hi] - grid[lo])};
}

double Interp(const GridSegment& seg, const double* y) {
  if (seg.lo == seg.hi) return y[seg.lo];  // clamped at a grid end
  return y[seg.lo] + seg.t * (y[seg.hi] - y[seg.lo]);
}

}  // namespace

double EffortCurveTable::EvalProb(int cell, double effort) const {
  CheckOrDie(cell >= 0 && cell < num_cells && num_points() > 0,
             "EffortCurveTable::EvalProb out of bounds");
  return Interp(FindSegment(effort_grid, effort),
                prob.data() + static_cast<size_t>(cell) * effort_grid.size());
}

double EffortCurveTable::EvalVariance(int cell, double effort) const {
  CheckOrDie(cell >= 0 && cell < num_cells && num_points() > 0,
             "EffortCurveTable::EvalVariance out of bounds");
  return Interp(
      FindSegment(effort_grid, effort),
      variance.data() + static_cast<size_t>(cell) * effort_grid.size());
}

void EffortCurveTable::Eval(int cell, double effort, double* prob_out,
                            double* variance_out) const {
  CheckOrDie(cell >= 0 && cell < num_cells && num_points() > 0,
             "EffortCurveTable::Eval out of bounds");
  const size_t m = effort_grid.size();
  const GridSegment seg = FindSegment(effort_grid, effort);
  *prob_out = Interp(seg, prob.data() + static_cast<size_t>(cell) * m);
  *variance_out = Interp(seg, variance.data() + static_cast<size_t>(cell) * m);
}

std::vector<double> UniformEffortGrid(double lo, double hi, int segments) {
  CheckOrDie(segments >= 1, "UniformEffortGrid: need >= 1 segment");
  CheckOrDie(hi > lo, "UniformEffortGrid: hi must exceed lo");
  std::vector<double> grid(segments + 1);
  for (int i = 0; i <= segments; ++i) {
    grid[i] = lo + (hi - lo) * i / segments;
  }
  return grid;
}

EffortCurveTable ResampleEffortCurves(const EffortCurveTable& in,
                                      std::vector<double> new_grid) {
  CheckOrDie(new_grid.size() >= 2, "ResampleEffortCurves: need >= 2 points");
  for (size_t k = 1; k < new_grid.size(); ++k) {
    CheckOrDie(new_grid[k] > new_grid[k - 1],
               "ResampleEffortCurves: grid must be strictly increasing");
  }
  EffortCurveTable out;
  out.num_cells = in.num_cells;
  const int m = static_cast<int>(new_grid.size());
  out.prob.resize(static_cast<size_t>(in.num_cells) * m);
  out.variance.resize(static_cast<size_t>(in.num_cells) * m);
  for (int v = 0; v < in.num_cells; ++v) {
    for (int k = 0; k < m; ++k) {
      out.prob[static_cast<size_t>(v) * m + k] = in.EvalProb(v, new_grid[k]);
      out.variance[static_cast<size_t>(v) * m + k] =
          in.EvalVariance(v, new_grid[k]);
    }
  }
  out.effort_grid = std::move(new_grid);
  return out;
}

Status ArchiveLoaded(EffortCurveTable& table) {
  for (size_t k = 1; k < table.effort_grid.size(); ++k) {
    if (!(table.effort_grid[k] > table.effort_grid[k - 1])) {
      return Status::InvalidArgument(
          "EffortCurveTable: effort grid not strictly increasing");
    }
  }
  const size_t expect =
      static_cast<size_t>(table.num_cells) * table.effort_grid.size();
  if (table.num_cells < 0 || table.prob.size() != expect ||
      table.variance.size() != expect ||
      (!table.qualified_count.empty() &&
       table.qualified_count.size() != table.effort_grid.size())) {
    return Status::InvalidArgument("EffortCurveTable: shape mismatch");
  }
  return Status::OK();
}

}  // namespace paws

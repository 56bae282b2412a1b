#ifndef PAWS_ML_EFFORT_CURVE_H_
#define PAWS_ML_EFFORT_CURVE_H_

#include <vector>

#include "util/archive.h"
#include "util/status.h"

namespace paws {

/// Tabulated prediction curves over hypothetical patrol effort: for each of
/// `num_cells` feature rows, the ensemble's detection probability g_v(c)
/// and predictive variance nu_v(c) sampled at every point of a shared,
/// strictly increasing `effort_grid`. One batched tabulation evaluates
/// every qualified weak learner once per cell and the whole effort grid
/// reuses those evaluations; the planner's PWL utilities and the risk-map
/// renderers consume these arrays directly.
struct EffortCurveTable {
  std::vector<double> effort_grid;  // m points, strictly increasing
  /// Number of qualified weak learners at each grid point (non-decreasing
  /// along the grid; empty for resampled tables).
  std::vector<int> qualified_count;
  int num_cells = 0;
  std::vector<double> prob;      // row-major [cell * m + k]
  std::vector<double> variance;  // row-major [cell * m + k]

  int num_points() const { return static_cast<int>(effort_grid.size()); }

  double ProbAt(int cell, int k) const {
    return prob[Index(cell, k)];
  }
  double VarianceAt(int cell, int k) const {
    return variance[Index(cell, k)];
  }

  /// g_v(effort) by linear interpolation along the grid, clamped outside it.
  double EvalProb(int cell, double effort) const;
  /// nu_v(effort) by linear interpolation along the grid, clamped outside.
  double EvalVariance(int cell, double effort) const;
  /// Both curves at once with a single grid search — bit-identical to
  /// EvalProb + EvalVariance; the RobustObjective hot loop uses this so
  /// it doesn't pay two binary searches per cell.
  void Eval(int cell, double effort, double* prob_out,
            double* variance_out) const;

  /// Archived bit-exact as an "ECRV" section — lets a snapshot ship
  /// pre-tabulated planner inputs, and is the kCellCurves wire body.
  static constexpr ArchiveSection kArchiveSection{FourCc("ECRV"), 1};

 private:
  size_t Index(int cell, int k) const {
    CheckOrDie(cell >= 0 && cell < num_cells &&
                   k >= 0 && k < num_points(),
               "EffortCurveTable: index out of bounds");
    return static_cast<size_t>(cell) * effort_grid.size() + k;
  }
};

/// `segments` + 1 equally spaced grid points on [lo, hi] — bit for bit the
/// breakpoints PiecewiseLinear::FromFunction samples on the same range.
std::vector<double> UniformEffortGrid(double lo, double hi, int segments);

/// Resamples a table onto a new effort grid by linear interpolation — one
/// expensive model tabulation can feed several PWL resolutions. The
/// resampled table has no qualified_count (it no longer aligns with learner
/// thresholds).
EffortCurveTable ResampleEffortCurves(const EffortCurveTable& in,
                                      std::vector<double> new_grid);

template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, EffortCurveTable> t) {
  io(t.effort_grid, t.qualified_count, t.num_cells, t.prob, t.variance);
}
Status ArchiveLoaded(EffortCurveTable& table);

}  // namespace paws

#endif  // PAWS_ML_EFFORT_CURVE_H_

#ifndef PAWS_SOLVER_PWL_H_
#define PAWS_SOLVER_PWL_H_

#include <functional>
#include <vector>

#include "solver/lp.h"

namespace paws {

/// Continuous piecewise-linear function on [x_front, x_back] defined by
/// breakpoints. This is the paper's device for optimizing the black-box
/// prediction functions g_v and nu_v inside a MILP (Sec. VI-B):
/// "piecewise linear (PWL) approximations to these functions g_v are
/// constructed using m x N sampled points".
class PiecewiseLinear {
 public:
  /// Breakpoints must be strictly increasing in x; at least 2.
  PiecewiseLinear(std::vector<double> x, std::vector<double> y);

  /// Samples `fn` at `segments`+1 equally spaced breakpoints on [lo, hi].
  static PiecewiseLinear FromFunction(const std::function<double(double)>& fn,
                                      double lo, double hi, int segments);

  /// Linear interpolation; clamps outside the breakpoint range.
  double Eval(double x) const;

  int num_segments() const { return static_cast<int>(x_.size()) - 1; }
  const std::vector<double>& breakpoints_x() const { return x_; }
  const std::vector<double>& breakpoints_y() const { return y_; }
  double x_front() const { return x_.front(); }
  double x_back() const { return x_.back(); }

  /// True if successive segment slopes are non-increasing (within tol).
  /// Concave maximization objectives need no SOS2 set.
  bool IsConcave(double tol = 1e-9) const;

  /// Max |Eval(x) - fn(x)| over a dense sample; approximation-quality probe.
  double MaxAbsError(const std::function<double(double)>& fn,
                     int samples = 200) const;

 private:
  std::vector<double> x_, y_;
};

/// Builds one PWL per row from tabulated y-values on a shared breakpoint
/// grid (row-major, `num_rows` x `x_grid.size()`), e.g. per-cell utility
/// curves assembled from an EffortCurveTable. No function evaluations: the
/// tables become the planner's black boxes directly.
std::vector<PiecewiseLinear> PwlFromGrid(const std::vector<double>& x_grid,
                                         const std::vector<double>& y_values,
                                         int num_rows);

/// Adds `weight * f(value_of(var_x))` to the maximized objective of `lp`
/// via the lambda (convex-combination) formulation, two rows per term:
///   sum lambda_i = 1,  var_x = sum lambda_i * x_i,
///   objective += weight * sum lambda_i * y_i.
/// For concave f (with weight >= 0) the LP relaxation is exact; otherwise
/// the lambdas are declared one SOS2 set weighted by the breakpoints, and
/// SolveMilp branches on it. `var_x` must already be bounded within
/// [f.x_front(), f.x_back()].
void AddPwlObjectiveTerm(LinearProgram* lp, int var_x,
                         const PiecewiseLinear& f, double weight);

}  // namespace paws

#endif  // PAWS_SOLVER_PWL_H_

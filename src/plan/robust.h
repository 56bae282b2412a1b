#ifndef PAWS_PLAN_ROBUST_H_
#define PAWS_PLAN_ROBUST_H_

#include <vector>

#include "ml/effort_curve.h"
#include "solver/pwl.h"
#include "util/status.h"

namespace paws {

/// Parameters of the paper's robust (risk-averse) patrol objective, Eq. 4:
///   U_v(c) = g_v(c) - beta * g_v(c) * nu_v(c)
/// where g is detection probability, nu the squashed uncertainty score, and
/// beta in [0, 1] tunes robustness (beta = 0: ignore uncertainty; beta = 1:
/// fully robust).
struct RobustParams {
  double beta = 1.0;
  /// Scale of the logistic squashing that maps raw GP variances to [0, 1):
  /// squash(v) = 2 * sigmoid(v / scale) - 1.
  double squash_scale = 0.5;
};

/// Maps a raw (non-negative) uncertainty score to [0, 1) via the logistic
/// squashing function the paper describes.
double SquashUncertainty(double raw_variance, double scale);

/// Applies Eq. 4 to every grid point of an EffortCurveTable, yielding one
/// PWL utility per cell for the planner: U_v(c) = g_v(c) * (1 - beta *
/// squash(nu_v(c))), non-negative wherever g is. Dies unless beta lies in
/// [0, 1].
std::vector<PiecewiseLinear> MakeRobustUtilityTables(
    const EffortCurveTable& curves, const RobustParams& params);

/// The evaluation functional of Fig. 8: U_beta(C) = sum_v g_v(c_v) *
/// (1 - beta * squash(nu_v(c_v))) for a coverage vector C, with g and nu
/// interpolated linearly between grid points and clamped outside the grid.
double RobustObjective(const std::vector<double>& coverage,
                       const EffortCurveTable& curves,
                       const RobustParams& params);

}  // namespace paws

#endif  // PAWS_PLAN_ROBUST_H_

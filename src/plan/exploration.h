#ifndef PAWS_PLAN_EXPLORATION_H_
#define PAWS_PLAN_EXPLORATION_H_

#include <vector>

#include "ml/effort_curve.h"
#include "solver/pwl.h"
#include "util/status.h"

namespace paws {

/// Exploration-mode patrol objectives. The paper (Sec. V-B) points out that
/// the uncertainty maps "could also be used to plan patrol routes that
/// explicitly target areas with high model uncertainty in order to reduce
/// the existing data bias". This is the optimistic mirror image of the
/// robust objective in plan/robust.h:
///   U_v(c) = g_v(c) + bonus * squash(nu_v(c))
/// sends patrols where the model knows least (bonus > 0), trading
/// immediate detections for future data quality.
struct ExplorationParams {
  /// Weight of the uncertainty bonus relative to detection probability.
  double bonus = 1.0;
  /// Logistic squashing scale, as in RobustParams.
  double squash_scale = 0.5;
};

/// Applies U(c) = g(c) + bonus * squash(nu(c)) to every grid point of an
/// EffortCurveTable, yielding one PWL utility per cell for the planner.
/// Dies if bonus is negative.
std::vector<PiecewiseLinear> MakeExplorationUtilityTables(
    const EffortCurveTable& curves, const ExplorationParams& params);

/// Coverage-weighted mean raw uncertainty of a plan, with one uncertainty
/// score per cell (e.g. tabulated at a reference effort) — the quantity
/// exploration maximizes and robustness minimizes; used to verify the two
/// modes pull in opposite directions.
double MeanPatrolledUncertainty(const std::vector<double>& coverage,
                                const std::vector<double>& nu);

}  // namespace paws

#endif  // PAWS_PLAN_EXPLORATION_H_

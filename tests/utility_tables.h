// Puts analytic test utilities on the planner's only input path: PWL tables,
// either sampled straight from a function or built from a hand-made
// EffortCurveTable the way a served plan builds them from the ensemble;
// plus the solver options a planner must refuse.
#ifndef PAWS_TESTS_UTILITY_TABLES_H_
#define PAWS_TESTS_UTILITY_TABLES_H_

#include <functional>
#include <limits>
#include <vector>

#include "ml/effort_curve.h"
#include "plan/planner.h"
#include "solver/pwl.h"

namespace paws {

using Curve = std::function<double(double)>;

/// Edits that each make a MilpOptions invalid for ValidatePlannerConfig.
inline std::vector<std::function<void(MilpOptions*)>> BadSolverOptions() {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {
      [](MilpOptions* m) { m->integrality_tolerance = 0.9; },
      [](MilpOptions* m) { m->integrality_tolerance = kNan; },
      [](MilpOptions* m) { m->integrality_tolerance = -1e-9; },
      [](MilpOptions* m) { m->simplex.feasibility_tolerance = kNan; },
      [](MilpOptions* m) { m->simplex.feasibility_tolerance = 0.5; },
      [](MilpOptions* m) { m->simplex.optimality_tolerance = kNan; },
      [](MilpOptions* m) { m->simplex.optimality_tolerance = -1e-7; },
      [](MilpOptions* m) { m->absolute_gap_tolerance = kNan; },
      [](MilpOptions* m) { m->absolute_gap_tolerance = -1e-6; },
      [](MilpOptions* m) { m->absolute_gap_tolerance = kInf; },
      [](MilpOptions* m) { m->simplex.max_iterations = -1; },
  };
}

/// One PWL per function on [0, PlannerEffortCap(config)] with
/// config.pwl_segments segments — the breakpoints the planner plans on.
inline std::vector<PiecewiseLinear> Tabulate(const std::vector<Curve>& fns,
                                             const PlannerConfig& config) {
  std::vector<PiecewiseLinear> tables;
  tables.reserve(fns.size());
  for (const Curve& fn : fns) {
    tables.push_back(PiecewiseLinear::FromFunction(
        fn, 0.0, PlannerEffortCap(config), config.pwl_segments));
  }
  return tables;
}

/// An EffortCurveTable holding g[v] and nu[v] sampled at every grid point.
inline EffortCurveTable Curves(const std::vector<double>& grid,
                               const std::vector<Curve>& g,
                               const std::vector<Curve>& nu) {
  CheckOrDie(g.size() == nu.size(), "Curves: size mismatch");
  EffortCurveTable curves;
  curves.effort_grid = grid;
  curves.num_cells = static_cast<int>(g.size());
  for (size_t v = 0; v < g.size(); ++v) {
    for (double c : grid) {
      curves.prob.push_back(g[v](c));
      curves.variance.push_back(nu[v](c));
    }
  }
  return curves;
}

}  // namespace paws

#endif  // PAWS_TESTS_UTILITY_TABLES_H_

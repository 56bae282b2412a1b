// Puts analytic test utilities on the planner's only input path: PWL tables,
// either sampled straight from a function or built from a hand-made
// EffortCurveTable the way a served plan builds them from the ensemble.
#ifndef PAWS_TESTS_UTILITY_TABLES_H_
#define PAWS_TESTS_UTILITY_TABLES_H_

#include <functional>
#include <vector>

#include "ml/effort_curve.h"
#include "plan/planner.h"
#include "solver/pwl.h"

namespace paws {

using Curve = std::function<double(double)>;

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

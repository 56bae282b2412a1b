#include "plan/exploration.h"

#include "plan/robust.h"
#include "util/status.h"

namespace paws {

std::vector<PiecewiseLinear> MakeExplorationUtilityTables(
    const EffortCurveTable& curves, const ExplorationParams& params) {
  CheckOrDie(params.bonus >= 0.0, "ExplorationParams: bonus must be >= 0");
  const int m = curves.num_points();
  std::vector<double> utility(static_cast<size_t>(curves.num_cells) * m);
  for (size_t i = 0; i < utility.size(); ++i) {
    utility[i] = curves.prob[i] +
                 params.bonus * SquashUncertainty(curves.variance[i],
                                                  params.squash_scale);
  }
  return PwlFromGrid(curves.effort_grid, utility, curves.num_cells);
}

double MeanPatrolledUncertainty(const std::vector<double>& coverage,
                                const std::vector<double>& nu) {
  CheckOrDie(coverage.size() == nu.size(),
             "MeanPatrolledUncertainty: size mismatch");
  double weighted = 0.0, total = 0.0;
  for (size_t v = 0; v < coverage.size(); ++v) {
    weighted += coverage[v] * nu[v];
    total += coverage[v];
  }
  return total > 0.0 ? weighted / total : 0.0;
}

}  // namespace paws

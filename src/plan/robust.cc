#include "plan/robust.h"

#include "util/special.h"

namespace paws {

double SquashUncertainty(double raw_variance, double scale) {
  CheckOrDie(scale > 0.0, "SquashUncertainty: scale must be positive");
  if (raw_variance <= 0.0) return 0.0;
  return 2.0 * Sigmoid(raw_variance / scale) - 1.0;
}

std::vector<PiecewiseLinear> MakeRobustUtilityTables(
    const EffortCurveTable& curves, const RobustParams& params) {
  CheckOrDie(params.beta >= 0.0 && params.beta <= 1.0,
             "RobustParams: beta must lie in [0, 1]");
  const int m = curves.num_points();
  std::vector<double> utility(static_cast<size_t>(curves.num_cells) * m);
  for (size_t i = 0; i < utility.size(); ++i) {
    const double gv = curves.prob[i];
    const double squashed =
        SquashUncertainty(curves.variance[i], params.squash_scale);
    utility[i] = gv - params.beta * gv * squashed;
  }
  return PwlFromGrid(curves.effort_grid, utility, curves.num_cells);
}

double RobustObjective(const std::vector<double>& coverage,
                       const EffortCurveTable& curves,
                       const RobustParams& params) {
  CheckOrDie(static_cast<int>(coverage.size()) == curves.num_cells,
             "RobustObjective: size mismatch");
  double total = 0.0;
  for (size_t v = 0; v < coverage.size(); ++v) {
    double gv = 0.0, nuv = 0.0;
    curves.Eval(static_cast<int>(v), coverage[v], &gv, &nuv);
    total += gv - params.beta * gv *
                      SquashUncertainty(nuv, params.squash_scale);
  }
  return total;
}

}  // namespace paws

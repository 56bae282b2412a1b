#include "solver/pwl.h"

#include <algorithm>
#include <cmath>

namespace paws {

PiecewiseLinear::PiecewiseLinear(std::vector<double> x, std::vector<double> y)
    : x_(std::move(x)), y_(std::move(y)) {
  CheckOrDie(x_.size() == y_.size(), "PiecewiseLinear: size mismatch");
  CheckOrDie(x_.size() >= 2, "PiecewiseLinear: need at least 2 breakpoints");
  for (size_t i = 1; i < x_.size(); ++i) {
    CheckOrDie(x_[i] > x_[i - 1],
               "PiecewiseLinear: breakpoints must be strictly increasing");
  }
}

PiecewiseLinear PiecewiseLinear::FromFunction(
    const std::function<double(double)>& fn, double lo, double hi,
    int segments) {
  CheckOrDie(segments >= 1, "FromFunction: need >= 1 segment");
  CheckOrDie(hi > lo, "FromFunction: hi must exceed lo");
  std::vector<double> x(segments + 1), y(segments + 1);
  for (int i = 0; i <= segments; ++i) {
    x[i] = lo + (hi - lo) * i / segments;
    y[i] = fn(x[i]);
  }
  return PiecewiseLinear(std::move(x), std::move(y));
}

double PiecewiseLinear::Eval(double x) const {
  if (x <= x_.front()) return y_.front();
  if (x >= x_.back()) return y_.back();
  const auto it = std::upper_bound(x_.begin(), x_.end(), x);
  const size_t hi = it - x_.begin();
  const size_t lo = hi - 1;
  const double t = (x - x_[lo]) / (x_[hi] - x_[lo]);
  return y_[lo] + t * (y_[hi] - y_[lo]);
}

bool PiecewiseLinear::IsConcave(double tol) const {
  double prev_slope = kLpInfinity;
  for (size_t i = 1; i < x_.size(); ++i) {
    const double slope = (y_[i] - y_[i - 1]) / (x_[i] - x_[i - 1]);
    if (slope > prev_slope + tol) return false;
    prev_slope = slope;
  }
  return true;
}

double PiecewiseLinear::MaxAbsError(const std::function<double(double)>& fn,
                                    int samples) const {
  double worst = 0.0;
  for (int i = 0; i <= samples; ++i) {
    const double x =
        x_front() + (x_back() - x_front()) * i / std::max(1, samples);
    worst = std::max(worst, std::fabs(Eval(x) - fn(x)));
  }
  return worst;
}

std::vector<PiecewiseLinear> PwlFromGrid(const std::vector<double>& x_grid,
                                         const std::vector<double>& y_values,
                                         int num_rows) {
  const size_t m = x_grid.size();
  CheckOrDie(num_rows >= 0 && y_values.size() == num_rows * m,
             "PwlFromGrid: y_values shape mismatch");
  std::vector<PiecewiseLinear> out;
  out.reserve(num_rows);
  for (int v = 0; v < num_rows; ++v) {
    out.emplace_back(
        x_grid, std::vector<double>(y_values.begin() + v * m,
                                    y_values.begin() + (v + 1) * m));
  }
  return out;
}

void AddPwlObjectiveTerm(LinearProgram* lp, int var_x,
                         const PiecewiseLinear& f, double weight) {
  CheckOrDie(lp != nullptr, "AddPwlObjectiveTerm: null model");
  const auto& bx = f.breakpoints_x();
  const auto& by = f.breakpoints_y();
  const int num_points = static_cast<int>(bx.size());

  std::vector<int> lambdas;
  std::vector<std::pair<int, double>> convexity, link;
  for (int i = 0; i < num_points; ++i) {
    const int lam = lp->AddVariable(0.0, 1.0, weight * by[i]);
    lambdas.push_back(lam);
    convexity.emplace_back(lam, 1.0);
    link.emplace_back(lam, bx[i]);
  }
  lp->AddConstraint(convexity, Relation::kEqual, 1.0);
  link.emplace_back(var_x, -1.0);
  lp->AddConstraint(link, Relation::kEqual, 0.0);

  // Non-concave terms (or negative weights on concave ones) need SOS2
  // adjacency; the LP would otherwise cherry-pick the upper envelope.
  const bool relaxation_exact = weight >= 0.0 && f.IsConcave();
  if (!relaxation_exact) lp->AddSos2(std::move(lambdas), bx);
}

}  // namespace paws

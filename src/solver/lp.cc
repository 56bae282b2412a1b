#include "solver/lp.h"

#include <algorithm>
#include <cmath>

namespace paws {

int LinearProgram::AddVariable(double lower, double upper, double objective) {
  CheckOrDie(lower <= upper, "LinearProgram: lower bound exceeds upper");
  lower_.push_back(lower);
  upper_.push_back(upper);
  objective_.push_back(objective);
  return num_variables() - 1;
}

void LinearProgram::AddConstraint(
    const std::vector<std::pair<int, double>>& terms, Relation relation,
    double rhs) {
  // Accumulate duplicate variable terms so downstream solvers see each
  // variable at most once per row.
  std::vector<std::pair<int, double>> merged = terms;
  std::sort(merged.begin(), merged.end());
  std::vector<std::pair<int, double>> out;
  for (const auto& [var, coef] : merged) {
    CheckOrDie(var >= 0 && var < num_variables(),
               "LinearProgram: constraint references unknown variable");
    if (!out.empty() && out.back().first == var) {
      out.back().second += coef;
    } else {
      out.emplace_back(var, coef);
    }
  }
  rows_.push_back(std::move(out));
  relations_.push_back(relation);
  rhs_.push_back(rhs);
}

void LinearProgram::SetBounds(int j, double lower, double upper) {
  CheckOrDie(j >= 0 && j < num_variables(), "SetBounds: bad variable");
  CheckOrDie(lower <= upper, "SetBounds: crossing bounds");
  lower_[j] = lower;
  upper_[j] = upper;
}

void LinearProgram::AddSos2(std::vector<int> vars,
                            std::vector<double> weights) {
  CheckOrDie(vars.size() == weights.size(), "AddSos2: size mismatch");
  for (size_t i = 0; i < vars.size(); ++i) {
    CheckOrDie(vars[i] >= 0 && vars[i] < num_variables(),
               "AddSos2: unknown variable");
    CheckOrDie(i == 0 || weights[i] > weights[i - 1],
               "AddSos2: weights must be strictly increasing");
  }
  sos2_.push_back({std::move(vars), std::move(weights)});
}

double LinearProgram::ObjectiveValue(const std::vector<double>& x) const {
  CheckOrDie(static_cast<int>(x.size()) == num_variables(),
             "ObjectiveValue: size mismatch");
  double v = 0.0;
  for (int j = 0; j < num_variables(); ++j) v += objective_[j] * x[j];
  return v;
}

double LinearProgram::MaxViolation(const std::vector<double>& x) const {
  CheckOrDie(static_cast<int>(x.size()) == num_variables(),
             "MaxViolation: size mismatch");
  double worst = 0.0;
  for (int j = 0; j < num_variables(); ++j) {
    worst = std::max(worst, lower_[j] - x[j]);
    worst = std::max(worst, x[j] - upper_[j]);
  }
  for (int i = 0; i < num_constraints(); ++i) {
    double lhs = 0.0;
    for (const auto& [var, coef] : rows_[i]) lhs += coef * x[var];
    switch (relations_[i]) {
      case Relation::kLessEqual:
        worst = std::max(worst, lhs - rhs_[i]);
        break;
      case Relation::kGreaterEqual:
        worst = std::max(worst, rhs_[i] - lhs);
        break;
      case Relation::kEqual:
        worst = std::max(worst, std::fabs(lhs - rhs_[i]));
        break;
    }
  }
  return worst;
}

}  // namespace paws

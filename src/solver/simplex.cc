#include "solver/simplex.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/matrix.h"

namespace paws {

namespace {

constexpr double kPivotEps = 1e-9;

bool IsFinite(double bound) { return std::fabs(bound) < kLpInfinity * 0.99; }

/// Dense bounded-variable primal simplex over the standard-form system
///   A x = b,   l <= x <= u
/// built from the model by adding one slack per inequality row and one
/// artificial per row (phase 1 basis). The tableau holds B^{-1} A.
class SimplexSolver {
 public:
  SimplexSolver(const LinearProgram& lp, const SimplexOptions& options)
      : lp_(lp), options_(options) {}

  StatusOr<LpSolution> Solve();

 private:
  enum class StepResult { kOptimal, kUnbounded, kPivoted };

  Status BuildStandardForm();
  void SetupInitialBasis();
  StepResult Step(const std::vector<double>& cost, bool use_bland);
  StatusOr<SolveStatus> RunPhase(const std::vector<double>& cost,
                                 bool is_phase_one);
  double VarValue(int j) const;

  const LinearProgram& lp_;
  SimplexOptions options_;

  int m_ = 0;            // rows
  int n_ = 0;            // total columns (struct + slack + artificial)
  int n_struct_ = 0;
  int first_artificial_ = 0;
  Matrix tableau_;       // m x n, equals B^{-1} A
  std::vector<double> rhs_;  // original b (after slack insertion)
  std::vector<double> lower_, upper_;
  std::vector<int> basis_;       // var basic in each row
  std::vector<int> basis_row_;   // var -> row or -1
  std::vector<double> xb_;       // values of basic variables per row
  // Nonbasic state: 'L' at lower, 'U' at upper, 'F' free at 0.
  std::vector<char> nb_state_;
  long iterations_ = 0;
};

Status SimplexSolver::BuildStandardForm() {
  m_ = lp_.num_constraints();
  n_struct_ = lp_.num_variables();
  // Count slacks.
  int n_slack = 0;
  for (int i = 0; i < m_; ++i) {
    if (lp_.relation(i) != Relation::kEqual) ++n_slack;
  }
  first_artificial_ = n_struct_ + n_slack;
  n_ = first_artificial_ + m_;
  if (static_cast<uint64_t>(m_) * static_cast<uint64_t>(n_) >
      kMaxTableauBytes / sizeof(double)) {
    return Status::ResourceExhausted(
        "SolveLp: a " + std::to_string(m_) + " x " + std::to_string(n_) +
        " tableau passes the " + std::to_string(kMaxTableauBytes >> 20) +
        " MiB cap");
  }

  tableau_ = Matrix(m_, n_);
  rhs_.assign(m_, 0.0);
  lower_.assign(n_, 0.0);
  upper_.assign(n_, kLpInfinity);
  for (int j = 0; j < n_struct_; ++j) {
    lower_[j] = lp_.lower(j);
    upper_[j] = lp_.upper(j);
  }

  int slack = n_struct_;
  for (int i = 0; i < m_; ++i) {
    for (const auto& [var, coef] : lp_.constraint_terms(i)) {
      tableau_(i, var) += coef;
    }
    rhs_[i] = lp_.rhs(i);
    switch (lp_.relation(i)) {
      case Relation::kLessEqual:
        tableau_(i, slack++) = 1.0;
        break;
      case Relation::kGreaterEqual:
        tableau_(i, slack++) = -1.0;
        break;
      case Relation::kEqual:
        break;
    }
  }
  // Artificial columns are filled in SetupInitialBasis (sign depends on the
  // initial residual).
  return Status::OK();
}

void SimplexSolver::SetupInitialBasis() {
  basis_.assign(m_, -1);
  basis_row_.assign(n_, -1);
  xb_.assign(m_, 0.0);
  nb_state_.assign(n_, 'L');

  // Nonbasic structural/slack variables start at a finite bound (preferring
  // the one of smaller magnitude) or 0 if free.
  for (int j = 0; j < first_artificial_; ++j) {
    if (IsFinite(lower_[j]) && IsFinite(upper_[j])) {
      nb_state_[j] =
          std::fabs(lower_[j]) <= std::fabs(upper_[j]) ? 'L' : 'U';
    } else if (IsFinite(lower_[j])) {
      nb_state_[j] = 'L';
    } else if (IsFinite(upper_[j])) {
      nb_state_[j] = 'U';
    } else {
      nb_state_[j] = 'F';
    }
  }

  // Residual r = b - A x_N decides each artificial's sign so its initial
  // value is non-negative.
  for (int i = 0; i < m_; ++i) {
    double r = rhs_[i];
    for (int j = 0; j < first_artificial_; ++j) {
      const double a = tableau_(i, j);
      if (a == 0.0) continue;
      double v = 0.0;
      if (nb_state_[j] == 'L') v = lower_[j];
      if (nb_state_[j] == 'U') v = upper_[j];
      r -= a * v;
    }
    const int art = first_artificial_ + i;
    tableau_(i, art) = r >= 0.0 ? 1.0 : -1.0;
    basis_[i] = art;
    basis_row_[art] = i;
    xb_[i] = std::fabs(r);
    lower_[art] = 0.0;
    upper_[art] = kLpInfinity;
  }

  // Normalize each row so the basic (artificial) column has coefficient +1.
  for (int i = 0; i < m_; ++i) {
    if (tableau_(i, first_artificial_ + i) < 0.0) {
      double* row = tableau_.Row(i);
      for (int j = 0; j < n_; ++j) row[j] = -row[j];
    }
  }
}

double SimplexSolver::VarValue(int j) const {
  if (basis_row_[j] >= 0) return xb_[basis_row_[j]];
  switch (nb_state_[j]) {
    case 'L':
      return lower_[j];
    case 'U':
      return upper_[j];
    default:
      return 0.0;
  }
}

SimplexSolver::StepResult SimplexSolver::Step(const std::vector<double>& cost,
                                              bool use_bland) {
  const double tol = options_.optimality_tolerance;

  // Precompute c_B once per iteration; reduced costs in one sweep, O(mn).
  std::vector<double> cb(m_);
  for (int i = 0; i < m_; ++i) cb[i] = cost[basis_[i]];
  std::vector<double> z(n_, 0.0);
  for (int i = 0; i < m_; ++i) {
    const double c = cb[i];
    if (c == 0.0) continue;
    const double* row = tableau_.Row(i);
    for (int j = 0; j < n_; ++j) z[j] += c * row[j];
  }

  int entering = -1;
  int direction = +1;  // +1: increase entering var; -1: decrease
  double best_score = tol;
  for (int j = 0; j < n_; ++j) {
    if (basis_row_[j] >= 0) continue;
    if (lower_[j] == upper_[j]) continue;  // fixed variable
    const double rc = cost[j] - z[j];
    const char state = nb_state_[j];
    // Improving directions for a maximization problem.
    const bool can_increase = (state == 'L' || state == 'F') && rc > tol;
    const bool can_decrease = (state == 'U' || state == 'F') && rc < -tol;
    if (!can_increase && !can_decrease) continue;
    if (use_bland) {
      entering = j;
      direction = can_increase ? +1 : -1;
      break;
    }
    const double score = std::fabs(rc);
    if (score > best_score) {
      best_score = score;
      entering = j;
      direction = can_increase ? +1 : -1;
    }
  }
  if (entering < 0) return StepResult::kOptimal;

  // Ratio test: entering moves by `direction * t`, basic variable i moves
  // by -direction * T(i, entering) * t and must stay within its bounds.
  double t_max = kLpInfinity;
  // Bound flip limit from the entering variable's own range.
  if (IsFinite(lower_[entering]) && IsFinite(upper_[entering])) {
    t_max = upper_[entering] - lower_[entering];
  }
  int leave_row = -1;
  char leave_to = 'L';
  double best_pivot_mag = 0.0;
  for (int i = 0; i < m_; ++i) {
    const double coef = direction * tableau_(i, entering);
    if (std::fabs(coef) < kPivotEps) continue;
    const int bvar = basis_[i];
    double limit;
    char to;
    if (coef > 0.0) {
      if (!IsFinite(lower_[bvar])) continue;
      limit = (xb_[i] - lower_[bvar]) / coef;
      to = 'L';
    } else {
      if (!IsFinite(upper_[bvar])) continue;
      limit = (upper_[bvar] - xb_[i]) / (-coef);
      to = 'U';
    }
    limit = std::max(0.0, limit);
    if (limit > t_max + 1e-12) continue;
    const double mag = std::fabs(tableau_(i, entering));
    const bool strictly_smaller = limit < t_max - 1e-12;
    // Ties: Bland's rule picks the smallest basic variable index
    // (anti-cycling); otherwise prefer the largest pivot magnitude
    // (numerical stability).
    bool take = strictly_smaller || leave_row < 0;
    if (!take) {
      take = use_bland ? basis_[i] < basis_[leave_row]
                       : mag > best_pivot_mag;
    }
    if (take) {
      t_max = std::min(t_max, limit);
      leave_row = i;
      leave_to = to;
      best_pivot_mag = mag;
    }
  }

  if (!IsFinite(t_max) && leave_row < 0) return StepResult::kUnbounded;

  const double t = std::max(0.0, t_max);
  // Update basic values.
  for (int i = 0; i < m_; ++i) {
    const double coef = direction * tableau_(i, entering);
    if (coef != 0.0) xb_[i] -= coef * t;
  }

  if (leave_row < 0) {
    // Pure bound flip: the entering variable jumps to its other bound.
    nb_state_[entering] = direction > 0 ? 'U' : 'L';
    return StepResult::kPivoted;
  }

  // Pivot: entering becomes basic in leave_row.
  const double entering_start = VarValue(entering);
  const double entering_value = entering_start + direction * t;
  const int leaving = basis_[leave_row];

  const double pivot = tableau_(leave_row, entering);
  CheckOrDie(std::fabs(pivot) > kPivotEps * 0.5, "simplex: zero pivot");
  double* prow = tableau_.Row(leave_row);
  const double inv = 1.0 / pivot;
  for (int j = 0; j < n_; ++j) prow[j] *= inv;
  for (int i = 0; i < m_; ++i) {
    if (i == leave_row) continue;
    const double f = tableau_(i, entering);
    if (f == 0.0) continue;
    double* row = tableau_.Row(i);
    for (int j = 0; j < n_; ++j) row[j] -= f * prow[j];
    row[entering] = 0.0;  // exact zero against drift
  }
  prow[entering] = 1.0;

  basis_[leave_row] = entering;
  basis_row_[entering] = leave_row;
  basis_row_[leaving] = -1;
  nb_state_[leaving] = leave_to;
  xb_[leave_row] = entering_value;
  return StepResult::kPivoted;
}

StatusOr<SolveStatus> SimplexSolver::RunPhase(const std::vector<double>& cost,
                                              bool is_phase_one) {
  const long cap = options_.max_iterations > 0
                       ? options_.max_iterations
                       : 200L * (m_ + n_) + 5000L;
  const long bland_after = cap / 2;
  for (long it = 0; it < cap; ++it) {
    ++iterations_;
    const StepResult r = Step(cost, /*use_bland=*/it > bland_after);
    if (r == StepResult::kOptimal) return SolveStatus::kOptimal;
    if (r == StepResult::kUnbounded) {
      if (is_phase_one) {
        return Status::Internal("simplex: phase-1 objective unbounded");
      }
      return SolveStatus::kUnbounded;
    }
  }
  return Status::Internal("simplex: iteration limit reached");
}

StatusOr<LpSolution> SimplexSolver::Solve() {
  PAWS_RETURN_IF_ERROR(BuildStandardForm());
  SetupInitialBasis();

  // Phase 1: maximize -(sum of artificials).
  std::vector<double> phase1_cost(n_, 0.0);
  for (int i = 0; i < m_; ++i) phase1_cost[first_artificial_ + i] = -1.0;
  {
    PAWS_ASSIGN_OR_RETURN(const SolveStatus st, RunPhase(phase1_cost, true));
    (void)st;  // phase 1 is bounded, so the status is always kOptimal
  }
  double artificial_sum = 0.0;
  for (int i = 0; i < m_; ++i) {
    if (basis_[i] >= first_artificial_) artificial_sum += xb_[i];
  }
  LpSolution solution;
  if (artificial_sum > options_.feasibility_tolerance * (1.0 + m_)) {
    solution.status = SolveStatus::kInfeasible;
    solution.simplex_iterations = iterations_;
    return solution;
  }
  // Pin artificials to zero for phase 2.
  for (int i = 0; i < m_; ++i) {
    const int art = first_artificial_ + i;
    lower_[art] = 0.0;
    upper_[art] = 0.0;
    if (basis_row_[art] < 0) nb_state_[art] = 'L';
  }

  // Phase 2: the true objective.
  std::vector<double> cost(n_, 0.0);
  for (int j = 0; j < n_struct_; ++j) cost[j] = lp_.objective(j);
  PAWS_ASSIGN_OR_RETURN(const SolveStatus st, RunPhase(cost, false));
  if (st == SolveStatus::kUnbounded) {
    solution.status = SolveStatus::kUnbounded;
    solution.simplex_iterations = iterations_;
    return solution;
  }

  solution.status = SolveStatus::kOptimal;
  solution.values.resize(n_struct_);
  for (int j = 0; j < n_struct_; ++j) {
    double v = VarValue(j);
    // Clamp tiny numerical drift back into the box.
    if (IsFinite(lower_[j])) v = std::max(v, lp_.lower(j));
    if (IsFinite(upper_[j])) v = std::min(v, lp_.upper(j));
    solution.values[j] = v;
  }
  solution.objective = lp_.ObjectiveValue(solution.values);
  solution.simplex_iterations = iterations_;
  return solution;
}

}  // namespace

StatusOr<LpSolution> SolveLp(const LinearProgram& lp,
                             const SimplexOptions& options) {
  if (lp.num_variables() == 0) {
    return Status::InvalidArgument("SolveLp: no variables");
  }
  SimplexSolver solver(lp, options);
  return solver.Solve();
}

}  // namespace paws

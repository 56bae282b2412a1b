#ifndef PAWS_SOLVER_LP_H_
#define PAWS_SOLVER_LP_H_

#include <limits>
#include <utility>
#include <vector>

#include "util/status.h"

namespace paws {

/// Relation of a linear constraint to its right-hand side.
enum class Relation {
  kLessEqual,
  kEqual,
  kGreaterEqual,
};

/// Value treated as +infinity for variable bounds.
inline constexpr double kLpInfinity = 1e30;

/// A linear program in model form:
///   maximize  c . x
///   subject to A x (<=, =, >=) b,   l <= x <= u,
/// plus optional SOS2 sets ("special ordered sets of type 2": at most two
/// members nonzero, and those two adjacent). Minimization is expressed by
/// negating the objective at the call site (the planner only maximizes).
/// The model is solver-agnostic: SolveLp ignores the sets, SolveMilp
/// branches on them.
class LinearProgram {
 public:
  /// Adds a variable and returns its index. `objective` is the
  /// coefficient of the variable in the maximized objective.
  int AddVariable(double lower, double upper, double objective);

  /// Adds the constraint sum(coef * var) relation rhs. Terms with the same
  /// variable are accumulated.
  void AddConstraint(const std::vector<std::pair<int, double>>& terms,
                     Relation relation, double rhs);

  int num_variables() const { return static_cast<int>(lower_.size()); }
  int num_constraints() const { return static_cast<int>(rhs_.size()); }

  double lower(int j) const { return lower_[j]; }
  double upper(int j) const { return upper_[j]; }
  double objective(int j) const { return objective_[j]; }

  /// Mutator used by branch-and-bound to tighten bounds on a copy.
  void SetBounds(int j, double lower, double upper);

  /// One SOS2 set: member variables in order, with strictly increasing
  /// weights that fix the order and locate the set's weight-space centre.
  struct Sos2Set {
    std::vector<int> vars;
    std::vector<double> weights;
  };

  /// Declares `vars` (nonnegative variables) as one SOS2 set ordered by
  /// `weights`, which must be strictly increasing and one per member.
  void AddSos2(std::vector<int> vars, std::vector<double> weights);
  const std::vector<Sos2Set>& sos2_sets() const { return sos2_; }

  const std::vector<std::pair<int, double>>& constraint_terms(int i) const {
    return rows_[i];
  }
  Relation relation(int i) const { return relations_[i]; }
  double rhs(int i) const { return rhs_[i]; }

  /// Objective value of an assignment (no feasibility check).
  double ObjectiveValue(const std::vector<double>& x) const;

  /// Maximum constraint/bound violation of an assignment; 0 means feasible.
  double MaxViolation(const std::vector<double>& x) const;

 private:
  std::vector<double> lower_, upper_, objective_;
  std::vector<std::vector<std::pair<int, double>>> rows_;
  std::vector<Relation> relations_;
  std::vector<double> rhs_;
  std::vector<Sos2Set> sos2_;
};

/// Termination state of an LP/MILP solve.
enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  /// MILP only: node or iteration limit hit; `solution` holds the best
  /// incumbent and `gap` bounds its suboptimality.
  kFeasibleLimit,
};

struct LpSolution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;
  /// MILP: |best bound - incumbent| (0 when proven optimal); LP: 0.
  double gap = 0.0;
  /// Statistics.
  long simplex_iterations = 0;
  int nodes_explored = 0;
};

}  // namespace paws

#endif  // PAWS_SOLVER_LP_H_

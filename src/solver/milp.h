#ifndef PAWS_SOLVER_MILP_H_
#define PAWS_SOLVER_MILP_H_

#include "solver/lp.h"
#include "solver/simplex.h"

namespace paws {

/// Options for the SOS2 branch-and-bound solver.
struct MilpOptions {
  /// Node budget. When exhausted with an incumbent, the solve returns
  /// kFeasibleLimit and reports the optimality gap.
  int max_nodes = 20000;
  /// Prune nodes whose LP bound improves the incumbent by less than this.
  double absolute_gap_tolerance = 1e-6;
  /// SOS2 tolerance: a set member above it counts as nonzero, and a set is
  /// satisfied when its mass outside its heaviest adjacent pair is at most
  /// this value.
  double integrality_tolerance = 1e-6;
  /// Seed the incumbent with one segment-rounding LP at the root: every
  /// set keeps only the two members whose weights bracket its centre.
  bool use_rounding_heuristic = true;
  SimplexOptions simplex;
};

/// Solves a maximization LP with SOS2 sets by best-first branch and bound,
/// with the dense simplex as the relaxation solver. A branch splits the
/// most violated set (the most mass outside its heaviest adjacent pair)
/// at the member nearest below its weight-space centre; one child zeroes
/// the members after the split, the other those before it. If `lp` has no
/// SOS2 sets this reduces to a single LP solve.
StatusOr<LpSolution> SolveMilp(const LinearProgram& lp,
                               const MilpOptions& options = {});

}  // namespace paws

#endif  // PAWS_SOLVER_MILP_H_

#ifndef PAWS_SOLVER_SIMPLEX_H_
#define PAWS_SOLVER_SIMPLEX_H_

#include "solver/lp.h"

namespace paws {

/// Options for the LP solver.
struct SimplexOptions {
  /// Hard cap on simplex iterations per phase (0 = automatic, scaled by
  /// problem size). The solver switches from Dantzig to Bland's rule after
  /// sustained degeneracy, so the cap should never bind on sane inputs.
  long max_iterations = 0;
  double feasibility_tolerance = 1e-7;
  double optimality_tolerance = 1e-7;
};

/// Solves the LP relaxation of `lp` (SOS2 sets ignored) with a
/// dense two-phase primal simplex supporting variable bounds. Returns
/// kOptimal / kInfeasible / kUnbounded; Status errors indicate internal
/// failures (iteration cap) rather than problem status.
StatusOr<LpSolution> SolveLp(const LinearProgram& lp,
                             const SimplexOptions& options = {});

}  // namespace paws

#endif  // PAWS_SOLVER_SIMPLEX_H_

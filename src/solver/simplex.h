#ifndef PAWS_SOLVER_SIMPLEX_H_
#define PAWS_SOLVER_SIMPLEX_H_

#include <cstdint>

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

/// Largest dense tableau SolveLp allocates: 1 GiB. The biggest LP a
/// planner here has been measured on (horizon 32, 644 x 2,412) needs under
/// 20 MB.
inline constexpr uint64_t kMaxTableauBytes = uint64_t{1} << 30;

/// Solves the LP relaxation of `lp` (SOS2 sets ignored) with a
/// dense two-phase primal simplex supporting variable bounds. Returns
/// kOptimal / kInfeasible / kUnbounded; Status errors indicate internal
/// failures (iteration cap) rather than problem status, or
/// ResourceExhausted, before the tableau is allocated, for an LP whose
/// tableau would pass kMaxTableauBytes.
StatusOr<LpSolution> SolveLp(const LinearProgram& lp,
                             const SimplexOptions& options = {});

}  // namespace paws

#endif  // PAWS_SOLVER_SIMPLEX_H_

#ifndef PAWS_PLAN_PLANNER_H_
#define PAWS_PLAN_PLANNER_H_

#include <functional>
#include <vector>

#include "plan/graph.h"
#include "solver/milp.h"
#include "solver/pwl.h"
#include "util/archive.h"

namespace paws {

/// Configuration of the prescriptive patrol-planning MILP (paper problem P,
/// Sec. VI-B). A patrol is a path of `horizon` time steps on the
/// time-unrolled planning graph, beginning and ending at the patrol post;
/// the defender runs `num_patrols` (K) such patrols, so per-cell effort is
/// c_v = K * (expected visits of v).
struct PlannerConfig {
  int horizon = 8;       // T: time steps per patrol (km walked)
  int num_patrols = 4;   // K
  /// m: segments of the effort grid callers tabulate utilities on
  /// (UniformEffortGrid, PiecewiseLinear::FromFunction). PlanPatrols takes
  /// its resolution from the tables it is given, not from this field.
  int pwl_segments = 10;
  /// Domain cap for per-cell effort; 0 means horizon * num_patrols (no
  /// artificial cap). Smaller caps concentrate PWL resolution where the
  /// model is most accurate.
  double max_cell_effort = 0.0;
  MilpOptions milp;
};

/// The prescriptive output: per-cell coverage (effort, km) plus solver
/// metadata.
struct PatrolPlan {
  /// Effort per local planning-graph cell (c_v in the paper).
  std::vector<double> coverage;
  /// Objective value sum_v U_v^PWL(c_v).
  double objective = 0.0;
  /// Whether the MILP was solved to optimality (vs. node-limit incumbent).
  bool proven_optimal = true;
  double mip_gap = 0.0;
  long simplex_iterations = 0;
  int nodes_explored = 0;

  /// Archived bit-exact as a "PLAN" section — how the serving front end
  /// ships a solved plan over the wire, and how field devices can archive
  /// the plans they executed.
  static constexpr ArchiveSection kArchiveSection{FourCc("PLAN"), 1};
};

template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, PatrolPlan> p) {
  io(p.coverage, p.objective, p.proven_optimal, p.mip_gap,
     p.simplex_iterations, p.nodes_explored);
}

/// One weighted patrol route from a flow decomposition of the plan.
struct PatrolRoute {
  double weight = 0.0;            // fraction of patrols using this route
  std::vector<int> cells;         // local cell per time step (size = horizon)
};

/// Upper bounds ValidatePlannerConfig puts on a config, which also arrives
/// over the wire. Fig. 9b converges at 20-25 segments and every planner
/// here runs horizon <= 8, so the caps do not bind on a real plan; they
/// keep a request from sizing the effort grid and the time-unrolled graph
/// by itself. SolveLp bounds the LP that results on its own.
inline constexpr int kMaxPlannerHorizon = 64;
inline constexpr int kMaxPwlSegments = 256;

/// Validates horizon in [2, kMaxPlannerHorizon], num_patrols >= 1,
/// pwl_segments in [1, kMaxPwlSegments] and the solver tolerances (each in
/// [0, 1e-2]; the gap finite and >= 0; simplex max_iterations >= 0) — the
/// single source of truth for config rules, shared by the planner entry
/// points and callers that build effort grids from the config before
/// planning.
Status ValidatePlannerConfig(const PlannerConfig& config);

/// Domain cap for per-cell effort the planner applies to coverage variables
/// and PWL tables: horizon * num_patrols, tightened by max_cell_effort.
double PlannerEffortCap(const PlannerConfig& config);

/// Plans patrols that maximize sum_v U_v(c_v), where `utility[v]` is the
/// PWL utility of planning cell v — built from one EffortCurveTable via
/// MakeRobustUtilityTables, or from an analytic function with
/// PiecewiseLinear::FromFunction(fn, 0.0, PlannerEffortCap(config),
/// config.pwl_segments). Each table must span [0, PlannerEffortCap]; its
/// breakpoints set the PWL resolution. Fails with InvalidArgument on shape
/// mismatches; propagates solver failures.
StatusOr<PatrolPlan> PlanPatrols(const PlanningGraph& graph,
                                 const std::vector<PiecewiseLinear>& utility,
                                 const PlannerConfig& config);

/// As PlanPatrols but also returns the flow decomposition of the defender
/// mixed strategy into explicit routes (at most |E'| routes).
StatusOr<PatrolPlan> PlanPatrolsWithRoutes(
    const PlanningGraph& graph, const std::vector<PiecewiseLinear>& utility,
    const PlannerConfig& config, std::vector<PatrolRoute>* routes);

/// Evaluates a coverage vector under arbitrary per-cell utilities — used to
/// score a plan on the true utilities its PWL tables approximate, and by
/// GreedyPlan, which walks those utilities directly (ablation A4).
double EvaluateCoverage(const std::vector<double>& coverage,
                        const std::vector<std::function<double(double)>>& utility);

}  // namespace paws

#endif  // PAWS_PLAN_PLANNER_H_

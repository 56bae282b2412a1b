#include "plan/planner.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace paws {

namespace {

// Sparse handle on one time-layer edge of the time-unrolled graph.
struct EdgeVar {
  int from = 0;  // local cell at time t
  int to = 0;    // local cell at time t + 1
  int var = -1;  // LP variable index
};

struct UnrolledModel {
  LinearProgram lp;
  std::vector<std::vector<EdgeVar>> edges;  // per time layer t -> t+1
  std::vector<int> coverage_vars;           // per local cell
};

// A cell can carry flow at time t only if it is reachable from the source
// in t steps and can return within the remaining steps.
bool Active(const std::vector<int>& dist, int v, int t, int horizon) {
  return dist[v] >= 0 && dist[v] <= t && dist[v] <= horizon - 1 - t;
}

StatusOr<UnrolledModel> BuildModel(
    const PlanningGraph& graph, const std::vector<PiecewiseLinear>& utility,
    const PlannerConfig& config) {
  if (static_cast<int>(utility.size()) != graph.num_cells()) {
    return Status::InvalidArgument(
        "PlanPatrols: one utility function required per planning cell");
  }
  PAWS_RETURN_IF_ERROR(ValidatePlannerConfig(config));

  const int num_cells = graph.num_cells();
  const int horizon = config.horizon;
  const double k_patrols = config.num_patrols;
  const std::vector<int> dist = DistancesFromSource(graph);

  UnrolledModel model;
  model.edges.resize(horizon - 1);

  // Edge flow variables (time-unrolled, reachability-pruned). At the last
  // layer only edges into the source are allowed: patrols must return to
  // the post.
  for (int t = 0; t + 1 < horizon; ++t) {
    for (int u = 0; u < num_cells; ++u) {
      if (!Active(dist, u, t, horizon)) continue;
      if (t == 0 && u != graph.source) continue;
      for (int v : graph.neighbors[u]) {
        if (!Active(dist, v, t + 1, horizon)) continue;
        if (t + 1 == horizon - 1 && v != graph.source) continue;
        EdgeVar e;
        e.from = u;
        e.to = v;
        e.var = model.lp.AddVariable(0.0, 1.0, 0.0);
        model.edges[t].push_back(e);
      }
    }
  }

  // Unit flow out of the source at t = 0 and into it at t = horizon - 1.
  {
    std::vector<std::pair<int, double>> out0;
    for (const EdgeVar& e : model.edges[0]) out0.emplace_back(e.var, 1.0);
    if (out0.empty()) {
      return Status::Infeasible("PlanPatrols: source has no outgoing edges");
    }
    model.lp.AddConstraint(out0, Relation::kEqual, 1.0);
    std::vector<std::pair<int, double>> in_last;
    for (const EdgeVar& e : model.edges[horizon - 2]) {
      in_last.emplace_back(e.var, 1.0);
    }
    model.lp.AddConstraint(in_last, Relation::kEqual, 1.0);
  }

  // Flow conservation at interior layers (Eq. 2).
  for (int t = 1; t + 1 < horizon; ++t) {
    for (int v = 0; v < num_cells; ++v) {
      if (!Active(dist, v, t, horizon)) continue;
      std::vector<std::pair<int, double>> terms;
      for (const EdgeVar& e : model.edges[t - 1]) {
        if (e.to == v) terms.emplace_back(e.var, 1.0);
      }
      for (const EdgeVar& e : model.edges[t]) {
        if (e.from == v) terms.emplace_back(e.var, -1.0);
      }
      if (terms.empty()) continue;
      model.lp.AddConstraint(terms, Relation::kEqual, 0.0);
    }
  }

  // Coverage variables: c_v = K * (total visits of v), where visits count
  // the presence at t = 0 (the source) plus inflow at every later step.
  const double cap = PlannerEffortCap(config);
  model.coverage_vars.resize(num_cells, -1);
  for (int v = 0; v < num_cells; ++v) {
    if (dist[v] < 0 || dist[v] > (horizon - 1) / 2) {
      continue;  // unreachable within a round trip; no coverage variable
    }
    const int c_var = model.lp.AddVariable(0.0, cap, 0.0);
    model.coverage_vars[v] = c_var;
    std::vector<std::pair<int, double>> terms = {{c_var, 1.0}};
    for (int t = 0; t + 1 < horizon; ++t) {
      for (const EdgeVar& e : model.edges[t]) {
        if (e.to == v) terms.emplace_back(e.var, -k_patrols);
      }
    }
    const double rhs = v == graph.source ? k_patrols : 0.0;
    model.lp.AddConstraint(terms, Relation::kEqual, rhs);

    // PWL objective term U_v^PWL(c_v).
    AddPwlObjectiveTerm(&model.lp, c_var, utility[v], 1.0);
  }
  return model;
}

}  // namespace

Status ValidatePlannerConfig(const PlannerConfig& config) {
  if (config.horizon < 2 || config.horizon > kMaxPlannerHorizon) {
    return Status::InvalidArgument("PlanPatrols: horizon must be in [2, " +
                                   std::to_string(kMaxPlannerHorizon) + "]");
  }
  if (config.num_patrols < 1) {
    return Status::InvalidArgument("PlanPatrols: num_patrols must be >= 1");
  }
  if (config.pwl_segments < 1 || config.pwl_segments > kMaxPwlSegments) {
    return Status::InvalidArgument("PlanPatrols: pwl_segments must be in [1, " +
                                   std::to_string(kMaxPwlSegments) + "]");
  }
  // The solver options arrive over the wire too: a loose or NaN tolerance
  // accepts the LP envelope as a plan, or calls a feasible model
  // infeasible. Every comparison here is false for NaN.
  const MilpOptions& milp = config.milp;
  const auto tolerance_ok = [](double t) { return t >= 0.0 && t <= 1e-2; };
  if (!tolerance_ok(milp.integrality_tolerance) ||
      !tolerance_ok(milp.simplex.feasibility_tolerance) ||
      !tolerance_ok(milp.simplex.optimality_tolerance) ||
      !(std::isfinite(milp.absolute_gap_tolerance) &&
        milp.absolute_gap_tolerance >= 0.0) ||
      milp.simplex.max_iterations < 0) {
    return Status::InvalidArgument(
        "PlanPatrols: solver tolerances must be in [0, 1e-2], the gap "
        "finite and >= 0, and max_iterations >= 0");
  }
  return Status::OK();
}

double PlannerEffortCap(const PlannerConfig& config) {
  double cap = static_cast<double>(config.horizon) * config.num_patrols;
  if (config.max_cell_effort > 0.0) cap = std::min(cap, config.max_cell_effort);
  return cap;
}

double EvaluateCoverage(
    const std::vector<double>& coverage,
    const std::vector<std::function<double(double)>>& utility) {
  CheckOrDie(coverage.size() == utility.size(),
             "EvaluateCoverage: size mismatch");
  double total = 0.0;
  for (size_t v = 0; v < coverage.size(); ++v) total += utility[v](coverage[v]);
  return total;
}

StatusOr<PatrolPlan> PlanPatrols(const PlanningGraph& graph,
                                 const std::vector<PiecewiseLinear>& utility,
                                 const PlannerConfig& config) {
  return PlanPatrolsWithRoutes(graph, utility, config, nullptr);
}

StatusOr<PatrolPlan> PlanPatrolsWithRoutes(
    const PlanningGraph& graph, const std::vector<PiecewiseLinear>& utility,
    const PlannerConfig& config, std::vector<PatrolRoute>* routes) {
  const double cap = PlannerEffortCap(config);
  for (const PiecewiseLinear& u : utility) {
    if (u.x_front() > 0.0 || u.x_back() + 1e-9 < cap) {
      return Status::InvalidArgument(
          "PlanPatrols: utility table must span [0, PlannerEffortCap]");
    }
  }
  PAWS_ASSIGN_OR_RETURN(UnrolledModel model,
                        BuildModel(graph, utility, config));
  PAWS_ASSIGN_OR_RETURN(LpSolution sol, SolveMilp(model.lp, config.milp));
  if (sol.status == SolveStatus::kInfeasible) {
    return Status::Infeasible("PlanPatrols: model infeasible");
  }
  if (sol.status == SolveStatus::kUnbounded) {
    return Status::Unbounded("PlanPatrols: model unbounded");
  }

  PatrolPlan plan;
  plan.coverage.assign(graph.num_cells(), 0.0);
  for (int v = 0; v < graph.num_cells(); ++v) {
    if (model.coverage_vars[v] >= 0) {
      plan.coverage[v] = sol.values[model.coverage_vars[v]];
    }
  }
  plan.objective = sol.objective;
  plan.proven_optimal = sol.status == SolveStatus::kOptimal;
  plan.mip_gap = sol.gap;
  plan.simplex_iterations = sol.simplex_iterations;
  plan.nodes_explored = sol.nodes_explored;

  if (routes != nullptr) {
    routes->clear();
    // Flow decomposition: repeatedly trace a max-bottleneck positive-flow
    // path through the time-unrolled graph and peel it off.
    const int horizon = config.horizon;
    std::vector<std::vector<double>> residual(model.edges.size());
    for (size_t t = 0; t < model.edges.size(); ++t) {
      residual[t].resize(model.edges[t].size());
      for (size_t e = 0; e < model.edges[t].size(); ++e) {
        residual[t][e] = sol.values[model.edges[t][e].var];
      }
    }
    const double kEps = 1e-6;
    for (int guard = 0; guard < 10000; ++guard) {
      PatrolRoute route;
      route.cells.assign(horizon, graph.source);
      double bottleneck = kLpInfinity;
      int cur = graph.source;
      std::vector<int> picked(model.edges.size(), -1);
      bool complete = true;
      for (size_t t = 0; t < model.edges.size(); ++t) {
        int best = -1;
        for (size_t e = 0; e < model.edges[t].size(); ++e) {
          if (model.edges[t][e].from != cur) continue;
          if (residual[t][e] <= kEps) continue;
          if (best < 0 || residual[t][e] > residual[t][best]) {
            best = static_cast<int>(e);
          }
        }
        if (best < 0) {
          complete = false;
          break;
        }
        picked[t] = best;
        bottleneck = std::min(bottleneck, residual[t][best]);
        cur = model.edges[t][best].to;
        route.cells[t + 1] = cur;
      }
      if (!complete) break;
      for (size_t t = 0; t < picked.size(); ++t) {
        residual[t][picked[t]] -= bottleneck;
      }
      route.weight = bottleneck;
      routes->push_back(std::move(route));
    }
  }
  return plan;
}

}  // namespace paws

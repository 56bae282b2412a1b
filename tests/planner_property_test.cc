// Parameterized property suite for the patrol planner: invariants that
// must hold for every (horizon, num_patrols, segments, seed) combination.
#include <cmath>
#include <functional>

#include "gtest/gtest.h"
#include "geo/synth.h"
#include "plan/graph.h"
#include "plan/greedy.h"
#include "plan/planner.h"
#include "util/rng.h"
#include "utility_tables.h"

namespace paws {
namespace {

struct PlannerCase {
  int horizon;
  int num_patrols;
  int segments;
  uint64_t seed;
};

void PrintTo(const PlannerCase& c, std::ostream* os) {
  *os << "T" << c.horizon << "_K" << c.num_patrols << "_m" << c.segments
      << "_s" << c.seed;
}

class PlannerPropertyTest : public ::testing::TestWithParam<PlannerCase> {
 protected:
  static Park MakePark(uint64_t seed) {
    SynthParkConfig cfg;
    cfg.width = 18;
    cfg.height = 16;
    cfg.seed = seed;
    return GenerateSyntheticPark(cfg);
  }
};

TEST_P(PlannerPropertyTest, BudgetSupportAndDominanceInvariants) {
  const PlannerCase param = GetParam();
  const Park park = MakePark(param.seed);
  const PlanningGraph graph =
      BuildPlanningGraph(park, park.patrol_posts()[0], 4);
  Rng rng(param.seed * 13 + 5);
  std::vector<Curve> utils;
  for (int v = 0; v < graph.num_cells(); ++v) {
    const double w = std::exp(rng.Normal(-0.5, 0.8));
    const double r = rng.Uniform(0.3, 1.5);
    utils.push_back([w, r](double c) { return w * (1.0 - std::exp(-r * c)); });
  }
  PlannerConfig cfg;
  cfg.horizon = param.horizon;
  cfg.num_patrols = param.num_patrols;
  cfg.pwl_segments = param.segments;
  cfg.milp.max_nodes = 100;

  const std::vector<PiecewiseLinear> tables = Tabulate(utils, cfg);
  auto plan = PlanPatrols(graph, tables, cfg);
  ASSERT_TRUE(plan.ok()) << plan.status();

  // Invariant 1: coverage is non-negative and sums to T * K.
  double total = 0.0;
  for (double c : plan->coverage) {
    EXPECT_GE(c, -1e-7);
    total += c;
  }
  EXPECT_NEAR(total, static_cast<double>(param.horizon) * param.num_patrols,
              1e-4);

  // Invariant 2: only cells reachable within a round trip get coverage.
  const std::vector<int> dist = DistancesFromSource(graph);
  for (int v = 0; v < graph.num_cells(); ++v) {
    if (dist[v] > (param.horizon - 1) / 2) {
      EXPECT_NEAR(plan->coverage[v], 0.0, 1e-7) << "cell " << v;
    }
  }

  // Invariant 3: the MILP (concave utilities -> pure LP, exact) dominates
  // the greedy heuristic on the PWL surrogate it optimized.
  auto greedy = GreedyPlan(graph, utils, cfg);
  ASSERT_TRUE(greedy.ok());
  auto pwl_value = [&](const std::vector<double>& coverage) {
    double v = 0.0;
    for (size_t i = 0; i < tables.size(); ++i) {
      v += tables[i].Eval(coverage[i]);
    }
    return v;
  };
  EXPECT_GE(pwl_value(plan->coverage), pwl_value(greedy->coverage) - 1e-6);

  // Invariant 4: the route decomposition reproduces the coverage budget.
  std::vector<PatrolRoute> routes;
  auto plan2 = PlanPatrolsWithRoutes(graph, tables, cfg, &routes);
  ASSERT_TRUE(plan2.ok());
  double weight = 0.0;
  for (const PatrolRoute& r : routes) weight += r.weight;
  EXPECT_NEAR(weight, 1.0, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlannerPropertyTest,
    ::testing::Values(PlannerCase{4, 1, 4, 1}, PlannerCase{4, 3, 8, 2},
                      PlannerCase{6, 2, 6, 3}, PlannerCase{6, 4, 12, 4},
                      PlannerCase{8, 2, 5, 5}, PlannerCase{8, 5, 10, 6},
                      PlannerCase{5, 3, 15, 7}, PlannerCase{7, 1, 7, 8}));

}  // namespace
}  // namespace paws

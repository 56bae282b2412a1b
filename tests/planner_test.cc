#include "plan/planner.h"

#include <climits>
#include <cmath>
#include <utility>

#include "gtest/gtest.h"
#include "geo/synth.h"
#include "utility_tables.h"

namespace paws {
namespace {

Park TestPark() {
  SynthParkConfig cfg;
  cfg.width = 20;
  cfg.height = 16;
  cfg.seed = 14;
  return GenerateSyntheticPark(cfg);
}

// Concave saturating utility with per-cell weight.
Curve Saturating(double weight) {
  return [weight](double c) { return weight * (1.0 - std::exp(-0.8 * c)); };
}

PlannerConfig SmallConfig() {
  PlannerConfig cfg;
  cfg.horizon = 6;
  cfg.num_patrols = 3;
  cfg.pwl_segments = 8;
  return cfg;
}

TEST(PlannerTest, CoverageSumsToHorizonTimesPatrols) {
  const Park park = TestPark();
  const PlanningGraph g = BuildPlanningGraph(park, park.patrol_posts()[0], 3);
  std::vector<Curve> utils(g.num_cells(), Saturating(1.0));
  auto plan = PlanPatrols(g, Tabulate(utils, SmallConfig()), SmallConfig());
  ASSERT_TRUE(plan.ok()) << plan.status();
  double total = 0.0;
  for (double c : plan->coverage) {
    EXPECT_GE(c, -1e-9);
    total += c;
  }
  // sum_v c_v = T * K (last constraint of problem P).
  EXPECT_NEAR(total, 6.0 * 3.0, 1e-5);
}

TEST(PlannerTest, ObjectiveMatchesPwlOfCoverage) {
  const Park park = TestPark();
  const PlanningGraph g = BuildPlanningGraph(park, park.patrol_posts()[0], 3);
  std::vector<Curve> utils(g.num_cells(), Saturating(1.0));
  const PlannerConfig cfg = SmallConfig();
  auto plan = PlanPatrols(g, Tabulate(utils, cfg), cfg);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // The reported objective equals the sum of PWL values at the coverage.
  const double cap = cfg.horizon * cfg.num_patrols;
  double expected = 0.0;
  for (size_t v = 0; v < utils.size(); ++v) {
    const auto pwl = PiecewiseLinear::FromFunction(utils[v], 0.0, cap,
                                                   cfg.pwl_segments);
    expected += pwl.Eval(plan->coverage[v]);
  }
  EXPECT_NEAR(plan->objective, expected, 1e-4);
}

TEST(PlannerTest, PrefersHighValueCells) {
  const Park park = TestPark();
  const PlanningGraph g = BuildPlanningGraph(park, park.patrol_posts()[0], 3);
  const std::vector<int> dist = DistancesFromSource(g);
  // One highly valuable reachable cell; everything else worthless.
  int target = -1;
  for (int v = 0; v < g.num_cells(); ++v) {
    if (v != g.source && dist[v] == 2) {
      target = v;
      break;
    }
  }
  ASSERT_GE(target, 0);
  std::vector<Curve> utils(g.num_cells(), Saturating(0.01));
  utils[target] = Saturating(10.0);
  auto plan = PlanPatrols(g, Tabulate(utils, SmallConfig()), SmallConfig());
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_GT(plan->coverage[target], 1.0);
}

TEST(PlannerTest, UnreachableCellsGetZeroCoverage) {
  const Park park = TestPark();
  const PlanningGraph g = BuildPlanningGraph(park, park.patrol_posts()[0], 8);
  std::vector<Curve> utils(g.num_cells(), Saturating(1.0));
  PlannerConfig cfg = SmallConfig();
  cfg.horizon = 4;  // round trip reaches distance <= 1 ... (4-1)/2 = 1
  auto plan = PlanPatrols(g, Tabulate(utils, cfg), cfg);
  ASSERT_TRUE(plan.ok()) << plan.status();
  const std::vector<int> dist = DistancesFromSource(g);
  for (int v = 0; v < g.num_cells(); ++v) {
    if (dist[v] > (cfg.horizon - 1) / 2) {
      EXPECT_DOUBLE_EQ(plan->coverage[v], 0.0);
    }
  }
}

TEST(PlannerTest, MoreSegmentsNeverHurtsMuch) {
  // Fig. 9b: utility converges as PWL segments grow.
  const Park park = TestPark();
  const PlanningGraph g = BuildPlanningGraph(park, park.patrol_posts()[0], 3);
  std::vector<Curve> utils(g.num_cells(), Saturating(1.0));
  PlannerConfig coarse = SmallConfig();
  coarse.pwl_segments = 2;
  PlannerConfig fine = SmallConfig();
  fine.pwl_segments = 20;
  auto plan_coarse = PlanPatrols(g, Tabulate(utils, coarse), coarse);
  auto plan_fine = PlanPatrols(g, Tabulate(utils, fine), fine);
  ASSERT_TRUE(plan_coarse.ok() && plan_fine.ok());
  // Evaluate both coverages on the *true* utility.
  const double true_coarse = EvaluateCoverage(plan_coarse->coverage, utils);
  const double true_fine = EvaluateCoverage(plan_fine->coverage, utils);
  EXPECT_GE(true_fine, true_coarse - 0.05);
}

TEST(PlannerTest, RouteDecompositionIsConsistent) {
  const Park park = TestPark();
  const PlanningGraph g = BuildPlanningGraph(park, park.patrol_posts()[0], 3);
  std::vector<Curve> utils(g.num_cells(), Saturating(1.0));
  std::vector<PatrolRoute> routes;
  const PlannerConfig cfg = SmallConfig();
  auto plan = PlanPatrolsWithRoutes(g, Tabulate(utils, cfg), cfg, &routes);
  ASSERT_TRUE(plan.ok()) << plan.status();
  ASSERT_FALSE(routes.empty());
  double total_weight = 0.0;
  for (const PatrolRoute& r : routes) {
    total_weight += r.weight;
    ASSERT_EQ(static_cast<int>(r.cells.size()), cfg.horizon);
    // Routes start and end at the post.
    EXPECT_EQ(r.cells.front(), g.source);
    EXPECT_EQ(r.cells.back(), g.source);
    // Consecutive cells are graph neighbors.
    for (size_t t = 0; t + 1 < r.cells.size(); ++t) {
      const auto& nbrs = g.neighbors[r.cells[t]];
      EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), r.cells[t + 1]),
                nbrs.end());
    }
  }
  EXPECT_NEAR(total_weight, 1.0, 1e-5);
}

TEST(PlannerTest, RejectsBadInputs) {
  const Park park = TestPark();
  const PlanningGraph g = BuildPlanningGraph(park, park.patrol_posts()[0], 3);
  const std::vector<Curve> too_few(2, Saturating(1.0));
  EXPECT_FALSE(PlanPatrols(g, Tabulate(too_few, SmallConfig()), SmallConfig())
                   .ok());
  // Tabulated at a good config: FromFunction has no range to sample at
  // num_patrols = 0.
  const std::vector<PiecewiseLinear> utils = Tabulate(
      std::vector<Curve>(g.num_cells(), Saturating(1.0)), SmallConfig());
  PlannerConfig bad = SmallConfig();
  bad.horizon = 1;
  EXPECT_FALSE(PlanPatrols(g, utils, bad).ok());
  bad = SmallConfig();
  bad.num_patrols = 0;
  EXPECT_FALSE(PlanPatrols(g, utils, bad).ok());
  // The config arrives over the wire too: a horizon past 64 or more than
  // 256 segments is refused before it sizes anything (INT_MAX segments
  // would overflow the grid's point count).
  bad = SmallConfig();
  bad.horizon = 65;
  EXPECT_EQ(PlanPatrols(g, utils, bad).status().code(),
            StatusCode::kInvalidArgument);
  for (const int segments : {257, INT_MAX}) {
    bad = SmallConfig();
    bad.pwl_segments = segments;
    EXPECT_EQ(ValidatePlannerConfig(bad).code(), StatusCode::kInvalidArgument)
        << segments;
  }
  bad = SmallConfig();
  bad.horizon = kMaxPlannerHorizon;
  bad.pwl_segments = kMaxPwlSegments;
  EXPECT_TRUE(ValidatePlannerConfig(bad).ok());
  // Solver options arrive over the wire: a tolerance outside [0, 1e-2] or
  // NaN, a negative or non-finite gap, or a negative iteration cap is
  // refused, not planned with.
  for (const auto& corrupt : BadSolverOptions()) {
    bad = SmallConfig();
    corrupt(&bad.milp);
    EXPECT_EQ(PlanPatrols(g, utils, bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  bad = SmallConfig();
  bad.milp.integrality_tolerance = 1e-2;
  bad.milp.simplex.feasibility_tolerance = 0.0;
  bad.milp.simplex.optimality_tolerance = 3e-9;
  EXPECT_TRUE(ValidatePlannerConfig(bad).ok());
}

TEST(PlannerTest, RejectsTablesThatDoNotSpanTheEffortCap) {
  const Park park = TestPark();
  const PlanningGraph g = BuildPlanningGraph(park, park.patrol_posts()[0], 3);
  const PlannerConfig cfg = SmallConfig();
  const double cap = PlannerEffortCap(cfg);
  const std::vector<PiecewiseLinear> good =
      Tabulate(std::vector<Curve>(g.num_cells(), Saturating(1.0)), cfg);
  ASSERT_TRUE(PlanPatrols(g, good, cfg).ok());
  // One short table among good ones is enough to refuse the plan.
  for (const auto& [lo, hi] : {std::pair{0.5, cap}, std::pair{0.0, cap - 1}}) {
    std::vector<PiecewiseLinear> tables = good;
    tables.back() = PiecewiseLinear::FromFunction(Saturating(1.0), lo, hi,
                                                  cfg.pwl_segments);
    EXPECT_EQ(PlanPatrols(g, tables, cfg).status().code(),
              StatusCode::kInvalidArgument)
        << "table on [" << lo << ", " << hi << "]";
  }
}

TEST(PlannerTest, NonConcaveUtilityStillSolved) {
  // Step-like utilities (qualification jumps in iWare-E) make the PWL
  // non-concave; the MILP must still return a valid plan.
  const Park park = TestPark();
  const PlanningGraph g = BuildPlanningGraph(park, park.patrol_posts()[0], 2);
  std::vector<Curve> utils(g.num_cells());
  for (int v = 0; v < g.num_cells(); ++v) {
    utils[v] = [v](double c) {
      // Sigmoid step at a per-cell location: non-concave near 0.
      const double knee = 1.0 + 0.3 * (v % 3);
      return 1.0 / (1.0 + std::exp(-3.0 * (c - knee)));
    };
  }
  PlannerConfig cfg = SmallConfig();
  cfg.horizon = 5;
  cfg.pwl_segments = 6;
  cfg.milp.max_nodes = 500;
  auto plan = PlanPatrols(g, Tabulate(utils, cfg), cfg);
  ASSERT_TRUE(plan.ok()) << plan.status();
  double total = 0.0;
  for (double c : plan->coverage) total += c;
  EXPECT_NEAR(total, 5.0 * 3.0, 1e-4);
}

}  // namespace
}  // namespace paws

#include "plan/exploration.h"

#include <cmath>

#include "gtest/gtest.h"
#include "geo/synth.h"
#include "plan/planner.h"
#include "plan/robust.h"
#include "utility_tables.h"

namespace paws {
namespace {

const std::vector<double> kGrid = {0.0, 1.0, 3.0};

TEST(ExplorationTest, ZeroBonusRecoversG) {
  const auto g = [](double c) { return 0.2 * c; };
  const auto nu = [](double) { return 5.0; };
  ExplorationParams params;
  params.bonus = 0.0;
  const auto u =
      MakeExplorationUtilityTables(Curves(kGrid, {g}, {nu}), params);
  ASSERT_EQ(u.size(), 1u);
  for (double c : kGrid) EXPECT_DOUBLE_EQ(u[0].Eval(c), g(c));
}

TEST(ExplorationTest, BonusRewardsUncertainty) {
  const auto g = [](double) { return 0.3; };
  const auto low_nu = [](double) { return 0.1; };
  const auto high_nu = [](double) { return 2.0; };
  ExplorationParams params;
  params.bonus = 1.0;
  const auto u = MakeExplorationUtilityTables(
      Curves(kGrid, {g, g}, {high_nu, low_nu}), params);
  EXPECT_GT(u[0].Eval(1.0), u[1].Eval(1.0));
}

TEST(ExplorationTest, MeanPatrolledUncertaintyWeightsByCoverage) {
  const std::vector<double> nu = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(MeanPatrolledUncertainty({1.0, 1.0}, nu), 2.0);
  EXPECT_DOUBLE_EQ(MeanPatrolledUncertainty({0.0, 2.0}, nu), 3.0);
  EXPECT_DOUBLE_EQ(MeanPatrolledUncertainty({0.0, 0.0}, nu), 0.0);
}

// Integration: on the same planning instance, exploration plans must visit
// strictly more uncertainty than robust plans — the two modes pull in
// opposite directions around the same model.
TEST(ExplorationTest, ExplorationSeeksWhatRobustnessAvoids) {
  SynthParkConfig park_cfg;
  park_cfg.width = 20;
  park_cfg.height = 16;
  park_cfg.seed = 9;
  const Park park = GenerateSyntheticPark(park_cfg);
  const PlanningGraph graph =
      BuildPlanningGraph(park, park.patrol_posts()[0], 3);
  const std::vector<int> dist = DistancesFromSource(graph);

  // Synthetic model: g uniform; uncertainty grows with distance from the
  // post (like a GP trained on post-anchored data).
  std::vector<Curve> g(graph.num_cells());
  std::vector<double> nu(graph.num_cells());
  for (int v = 0; v < graph.num_cells(); ++v) {
    // Risk concentrated near the post, uncertainty far from it: the
    // regime where the two objectives genuinely disagree.
    const double gain = 0.8 * std::exp(-1.0 * dist[v]);
    g[v] = [gain](double c) { return gain * (1.0 - std::exp(-0.5 * c)); };
    nu[v] = 0.05 + 1.0 * dist[v];
  }

  PlannerConfig planner;
  planner.horizon = 6;
  planner.num_patrols = 2;
  planner.pwl_segments = 6;
  planner.milp.max_nodes = 100;

  std::vector<Curve> nu_curves;
  for (double variance : nu) {
    nu_curves.push_back([variance](double) { return variance; });
  }
  const EffortCurveTable curves =
      Curves(UniformEffortGrid(0.0, PlannerEffortCap(planner),
                               planner.pwl_segments),
             g, nu_curves);

  RobustParams robust;
  robust.beta = 1.0;
  auto robust_plan =
      PlanPatrols(graph, MakeRobustUtilityTables(curves, robust), planner);
  ASSERT_TRUE(robust_plan.ok()) << robust_plan.status();

  ExplorationParams explore;
  explore.bonus = 3.0;
  auto explore_plan = PlanPatrols(
      graph, MakeExplorationUtilityTables(curves, explore), planner);
  ASSERT_TRUE(explore_plan.ok()) << explore_plan.status();

  const double robust_nu =
      MeanPatrolledUncertainty(robust_plan->coverage, nu);
  const double explore_nu =
      MeanPatrolledUncertainty(explore_plan->coverage, nu);
  EXPECT_GT(explore_nu, robust_nu);
}

TEST(ExplorationDeathTest, RejectsNegativeBonus) {
  ExplorationParams params;
  params.bonus = -1.0;
  const EffortCurveTable curves = Curves(
      kGrid, {[](double) { return 0.0; }}, {[](double) { return 0.0; }});
  EXPECT_DEATH(MakeExplorationUtilityTables(curves, params), "bonus");
}

}  // namespace
}  // namespace paws

#include "geo/synth.h"

#include <cmath>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "plan/graph.h"

namespace paws {
namespace {

std::vector<double> FeaturesOf(const Park& park, int id) {
  std::vector<double> x(park.num_features());
  park.CopyFeatures(id, x.data());
  return x;
}

SynthParkConfig SmallConfig() {
  SynthParkConfig cfg;
  cfg.width = 30;
  cfg.height = 24;
  cfg.seed = 5;
  return cfg;
}

TEST(SynthTest, StandardFeatureStackPresent) {
  const Park park = GenerateSyntheticPark(SmallConfig());
  for (const char* name :
       {"elevation", "slope", "forest_cover", "animal_density", "npp",
        "dist_river", "dist_road", "dist_village", "dist_patrol_post",
        "dist_boundary", "water"}) {
    EXPECT_TRUE(park.FeatureIndex(name).ok()) << name;
  }
  EXPECT_EQ(park.num_features(), 11);
}

TEST(SynthTest, ExtraFeaturesRaiseFeatureCount) {
  SynthParkConfig cfg = SmallConfig();
  cfg.num_extra_features = 5;
  const Park park = GenerateSyntheticPark(cfg);
  EXPECT_EQ(park.num_features(), 16);
}

TEST(SynthTest, DeterministicInSeed) {
  const Park a = GenerateSyntheticPark(SmallConfig());
  const Park b = GenerateSyntheticPark(SmallConfig());
  ASSERT_EQ(a.num_cells(), b.num_cells());
  for (int id = 0; id < a.num_cells(); ++id) {
    EXPECT_EQ(FeaturesOf(a, id), FeaturesOf(b, id));
  }
}

TEST(SynthTest, RequestedNumberOfPatrolPosts) {
  SynthParkConfig cfg = SmallConfig();
  cfg.num_patrol_posts = 5;
  const Park park = GenerateSyntheticPark(cfg);
  EXPECT_EQ(park.patrol_posts().size(), 5u);
  // Posts are distinct cells.
  std::set<int> distinct;
  for (const Cell& p : park.patrol_posts()) distinct.insert(park.DenseIdOf(p));
  EXPECT_EQ(distinct.size(), 5u);
}

TEST(SynthTest, ParkIsConnected) {
  // BFS from the first post must reach every in-park cell (the generator
  // keeps only the largest connected component).
  const Park park = GenerateSyntheticPark(SmallConfig());
  const PlanningGraph g = BuildPlanningGraph(
      park, park.patrol_posts()[0], park.width() + park.height());
  EXPECT_EQ(g.num_cells(), park.num_cells());
}

TEST(SynthTest, ElongatedParkIsWiderThanTall) {
  SynthParkConfig cfg = SmallConfig();
  cfg.shape = ParkShape::kElongated;
  cfg.width = 40;
  cfg.height = 20;
  const Park park = GenerateSyntheticPark(cfg);
  int min_x = park.width(), max_x = 0, min_y = park.height(), max_y = 0;
  for (int id = 0; id < park.num_cells(); ++id) {
    const Cell c = park.CellOf(id);
    min_x = std::min(min_x, c.x);
    max_x = std::max(max_x, c.x);
    min_y = std::min(min_y, c.y);
    max_y = std::max(max_y, c.y);
  }
  EXPECT_GT(max_x - min_x, 2 * (max_y - min_y) - 8);
}

TEST(SynthTest, DistancesAreFiniteAndNonNegative) {
  const Park park = GenerateSyntheticPark(SmallConfig());
  for (const char* name : {"dist_river", "dist_road", "dist_village",
                           "dist_patrol_post", "dist_boundary"}) {
    const int f = park.FeatureIndex(name).value();
    for (int id = 0; id < park.num_cells(); ++id) {
      const double d = park.feature(f).At(park.CellOf(id));
      EXPECT_TRUE(std::isfinite(d)) << name;
      EXPECT_GE(d, 0.0) << name;
    }
  }
}

TEST(SynthTest, BoundaryDistanceZeroSomewherePositiveInside) {
  const Park park = GenerateSyntheticPark(SmallConfig());
  const int f = park.FeatureIndex("dist_boundary").value();
  double lo = 1e9, hi = -1e9;
  for (int id = 0; id < park.num_cells(); ++id) {
    const double d = park.feature(f).At(park.CellOf(id));
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_DOUBLE_EQ(lo, 0.0);
  EXPECT_GT(hi, 1.0);
}

TEST(MegaParkTest, HitsTheTargetCellCountWithinAFewPercent) {
  MegaParkConfig cfg;
  cfg.target_cells = 60000;
  cfg.seed = 11;
  const Park park = GenerateMegaPark(cfg);
  const double ratio =
      static_cast<double>(park.num_cells()) / static_cast<double>(
                                                  cfg.target_cells);
  EXPECT_GT(ratio, 0.95);
  EXPECT_LT(ratio, 1.05);
}

TEST(MegaParkTest, FeatureStackMatchesTheStandardSynthParkExactly) {
  // A model trained on a GenerateSyntheticPark park must serve a mega
  // park directly, so the feature names AND their order must agree.
  MegaParkConfig cfg;
  cfg.target_cells = 20000;
  const Park mega = GenerateMegaPark(cfg);
  const Park standard = GenerateSyntheticPark(SynthParkConfig{});
  ASSERT_EQ(mega.num_features(), standard.num_features());
  EXPECT_EQ(mega.feature_names(), standard.feature_names());
}

TEST(MegaParkTest, ValuesAreFiniteAndPostsAreInParkDistinctCells) {
  MegaParkConfig cfg;
  cfg.target_cells = 20000;
  cfg.num_patrol_posts = 6;
  const Park park = GenerateMegaPark(cfg);
  ASSERT_EQ(park.patrol_posts().size(), 6u);
  std::set<int> distinct;
  for (const Cell& p : park.patrol_posts()) {
    EXPECT_GE(park.DenseIdOf(p), 0) << p.x << "," << p.y;
    distinct.insert(park.DenseIdOf(p));
  }
  EXPECT_EQ(distinct.size(), 6u);
  for (int f = 0; f < park.num_features(); ++f) {
    for (int id = 0; id < park.num_cells(); id += 97) {
      EXPECT_TRUE(std::isfinite(park.feature(f).At(park.CellOf(id))))
          << park.feature_names()[f];
    }
  }
}

TEST(MegaParkTest, DeterministicInSeed) {
  MegaParkConfig cfg;
  cfg.target_cells = 20000;
  const Park a = GenerateMegaPark(cfg);
  const Park b = GenerateMegaPark(cfg);
  ASSERT_EQ(a.num_cells(), b.num_cells());
  for (int id = 0; id < a.num_cells(); id += 131) {
    EXPECT_EQ(FeaturesOf(a, id), FeaturesOf(b, id));
  }
}

}  // namespace
}  // namespace paws

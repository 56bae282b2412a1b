#include "geo/park.h"

#include "gtest/gtest.h"

namespace paws {
namespace {

GridB DiamondMask() {
  GridB mask(5, 5, 0);
  // A plus-shaped park.
  for (int i = 0; i < 5; ++i) {
    mask.At(i, 2) = 1;
    mask.At(2, i) = 1;
  }
  return mask;
}

TEST(ParkTest, DenseIdsAreConsecutiveAndInvertible) {
  Park park("test", DiamondMask());
  EXPECT_EQ(park.num_cells(), 9);
  for (int id = 0; id < park.num_cells(); ++id) {
    const Cell c = park.CellOf(id);
    EXPECT_EQ(park.DenseIdOf(c), id);
    EXPECT_TRUE(park.mask().At(c));
  }
}

TEST(ParkTest, OutOfParkCellsHaveNegativeDenseId) {
  Park park("test", DiamondMask());
  EXPECT_EQ(park.DenseIdOf(Cell{0, 0}), -1);
  EXPECT_EQ(park.DenseIdOf(Cell{4, 4}), -1);
}

TEST(ParkTest, FeatureRegistrationAndLookup) {
  Park park("test", DiamondMask());
  GridD elev(5, 5, 0.0);
  elev.At(2, 2) = 3.5;
  const int idx = park.AddFeature("elevation", elev);
  EXPECT_EQ(idx, 0);
  EXPECT_EQ(park.num_features(), 1);
  auto found = park.FeatureIndex("elevation");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), 0);
  EXPECT_FALSE(park.FeatureIndex("missing").ok());
}

TEST(ParkTest, FeatureVectorReadsAllLayers) {
  Park park("test", DiamondMask());
  GridD a(5, 5, 1.0), b(5, 5, 2.0);
  park.AddFeature("a", a);
  park.AddFeature("b", b);
  const int id = park.DenseIdOf(Cell{2, 2});
  double x[3] = {0.0, 0.0, -1.0};
  park.CopyFeatures(id, x);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_DOUBLE_EQ(x[2], -1.0);  // writes num_features() values only
}

TEST(ParkTest, PatrolPosts) {
  Park park("test", DiamondMask());
  park.AddPatrolPost(Cell{2, 0});
  park.AddPatrolPost(Cell{0, 2});
  ASSERT_EQ(park.patrol_posts().size(), 2u);
  EXPECT_EQ(park.patrol_posts()[0].x, 2);
  EXPECT_EQ(park.patrol_posts()[0].y, 0);
}

TEST(ParkDeathTest, CopyFeaturesOutOfRangeDies) {
  Park park("test", DiamondMask());
  park.AddFeature("a", GridD(5, 5, 1.0));
  double x[1];
  EXPECT_DEATH(park.CopyFeatures(park.num_cells(), x), "out of bounds");
  EXPECT_DEATH(park.CopyFeatures(-1, x), "out of bounds");
}

TEST(ParkDeathTest, AddPatrolPostOutsideParkDies) {
  Park park("test", DiamondMask());
  EXPECT_DEATH(park.AddPatrolPost(Cell{0, 0}), "outside the park");
}

}  // namespace
}  // namespace paws

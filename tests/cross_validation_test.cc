#include "ml/cross_validation.h"

#include <algorithm>
#include <set>

#include "gtest/gtest.h"

namespace paws {
namespace {

TEST(StratifiedKFoldTest, PartitionsAllRows) {
  Rng rng(1);
  std::vector<int> labels(100);
  for (int i = 0; i < 20; ++i) labels[i] = 1;
  const auto folds = StratifiedKFold(labels, 5, &rng);
  ASSERT_EQ(folds.size(), 5u);
  std::set<int> seen;
  for (const auto& fold : folds) {
    for (int i : fold) {
      EXPECT_TRUE(seen.insert(i).second) << "row appears twice";
    }
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(StratifiedKFoldTest, PreservesClassRatioPerFold) {
  Rng rng(2);
  std::vector<int> labels(500);
  for (int i = 0; i < 50; ++i) labels[i] = 1;  // 10% positive
  const auto folds = StratifiedKFold(labels, 5, &rng);
  for (const auto& fold : folds) {
    int pos = 0;
    for (int i : fold) pos += labels[i];
    EXPECT_EQ(pos, 10);  // exactly 10% of 100
  }
}

TEST(StratifiedKFoldTest, TinyMinorityClassSpreadAcrossFolds) {
  Rng rng(3);
  std::vector<int> labels(100);
  labels[3] = labels[50] = labels[99] = 1;  // 3 positives, 5 folds
  const auto folds = StratifiedKFold(labels, 5, &rng);
  int folds_with_pos = 0;
  for (const auto& fold : folds) {
    int pos = 0;
    for (int i : fold) pos += labels[i];
    EXPECT_LE(pos, 1);
    folds_with_pos += pos > 0;
  }
  EXPECT_EQ(folds_with_pos, 3);
}

}  // namespace
}  // namespace paws

#include "ml/compiled_forest.h"

#include <algorithm>
#include <cstddef>

#include "ml/bagging.h"
#include "ml/simd_traversal.h"

namespace paws {

// The gathered walks address node words as cursor * 2 (+1) over a flat
// 64-bit array, so the packed layout is a wire-level contract of the SIMD
// tiers, not an implementation detail.
static_assert(sizeof(CompiledForest::Node) == 16,
              "Node must pack to 16 bytes (two 64-bit gather words)");
static_assert(offsetof(CompiledForest::Node, feature) == 0 &&
                  offsetof(CompiledForest::Node, left) == 4 &&
                  offsetof(CompiledForest::Node, value) == 8,
              "Node word layout: feature|left then value");
static_assert(alignof(CompiledForest::Node) == 8,
              "Node alignment must divide the pool's 64-byte alignment");

namespace {

// One traversal step for one interleaved lane: cursor `c`, feature row
// `p`. Tree walking is a dependent-load chain (node -> child ->
// grandchild), so a single row is latency-bound; stepping four lanes with
// independent scalar cursors keeps four chains in flight per tree (named
// scalars, not a lane array — the array form spills to the stack and
// serializes the chains). A cursor parked on a leaf stays put (the
// `feature >= 0` select), and the right-child predicate `!(x <= value)`
// routes NaN features exactly as the reference DecisionTree::PredictRow
// ternary does.
#define PAWS_FOREST_STEP(c, p)                                              \
  {                                                                         \
    const CompiledForest::Node node = nodes[c];                             \
    const int next =                                                        \
        node.left +                                                         \
        static_cast<int>(                                                   \
            !((p)[node.feature >= 0 ? node.feature : 0] <= node.value));    \
    live |= static_cast<int>(node.feature >= 0);                            \
    (c) = node.feature >= 0 ? next : (c);                                   \
  }

// Walks one flattened tree over the block's rows, accumulating each leaf
// value and its square into sum/sum2. The first tree of a learner assigns
// instead (kAssign), so callers never pre-zero the accumulators. Starting
// the sums at the first member's value instead of 0.0 is bit-identical:
// 0.0 + v == v for every leaf probability (v >= 0).
template <bool kAssign>
void WalkTree(const CompiledForest::Node* nodes, int root, int depth,
              const double* rows, int stride, int count, double* sum,
              double* sum2) {
  int i = 0;
  // Interleaved traversal, four lanes per group: every cursor advances one
  // level per iteration, for at most `depth` iterations.
  for (; i + 4 <= count; i += 4) {
    const double* p0 = rows + static_cast<size_t>(i) * stride;
    const double* p1 = rows + static_cast<size_t>(i + 1) * stride;
    const double* p2 = rows + static_cast<size_t>(i + 2) * stride;
    const double* p3 = rows + static_cast<size_t>(i + 3) * stride;
    int c0 = root, c1 = root, c2 = root, c3 = root;
    for (int d = 0; d < depth; ++d) {
      int live = 0;
      PAWS_FOREST_STEP(c0, p0)
      PAWS_FOREST_STEP(c1, p1)
      PAWS_FOREST_STEP(c2, p2)
      PAWS_FOREST_STEP(c3, p3)
      // Every cursor parked on a leaf: done early — imbalanced trees put
      // most rows well short of the max depth.
      if (!live) break;
    }
    const double v0 = nodes[c0].value;
    const double v1 = nodes[c1].value;
    const double v2 = nodes[c2].value;
    const double v3 = nodes[c3].value;
    if (kAssign) {
      sum[i] = v0;
      sum2[i] = v0 * v0;
      sum[i + 1] = v1;
      sum2[i + 1] = v1 * v1;
      sum[i + 2] = v2;
      sum2[i + 2] = v2 * v2;
      sum[i + 3] = v3;
      sum2[i + 3] = v3 * v3;
    } else {
      sum[i] += v0;
      sum2[i] += v0 * v0;
      sum[i + 1] += v1;
      sum2[i + 1] += v1 * v1;
      sum[i + 2] += v2;
      sum2[i + 2] += v2 * v2;
      sum[i + 3] += v3;
      sum2[i + 3] += v3 * v3;
    }
  }
  for (; i < count; ++i) {  // remainder rows: plain serial walk
    const double* row = rows + static_cast<size_t>(i) * stride;
    int c = root;
    for (int f = nodes[c].feature; f >= 0; f = nodes[c].feature) {
      c = nodes[c].left + static_cast<int>(!(row[f] <= nodes[c].value));
    }
    const double p = nodes[c].value;
    if (kAssign) {
      sum[i] = p;
      sum2[i] = p * p;
    } else {
      sum[i] += p;
      sum2[i] += p * p;
    }
  }
}

}  // namespace

bool CompiledForest::FlattenTree(
    const std::vector<DecisionTree::Node>& nodes) {
  // Breadth-first renumbering: children are allocated adjacently in queue
  // order, so each level of the tree occupies one contiguous span — the
  // span the level-synchronous interleaved traversal hits.
  struct Item {
    int src;
    int32_t dst;
    int depth;
  };
  tree_root_.push_back(static_cast<int32_t>(nodes_.size()));
  tree_depth_.push_back(0);
  nodes_.emplace_back();
  std::vector<Item> queue{{0, tree_root_.back(), 0}};
  for (size_t head = 0; head < queue.size(); ++head) {
    const Item item = queue[head];
    if (item.src < 0 || item.src >= static_cast<int>(nodes.size()) ||
        queue.size() > nodes.size()) {
      return false;  // malformed tree: caller abandons compilation
    }
    const DecisionTree::Node& node = nodes[item.src];
    if (node.left < 0) {
      nodes_[item.dst] = Node{-1, 0, node.prob};
      tree_depth_.back() = std::max(tree_depth_.back(), item.depth);
      continue;
    }
    if (node.feature < 0) return false;
    const int32_t kids = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_.emplace_back();
    nodes_[item.dst] = Node{node.feature, kids, node.threshold};
    num_features_ = std::max(num_features_, node.feature + 1);
    queue.push_back({node.left, kids, item.depth + 1});
    queue.push_back({node.right, kids + 1, item.depth + 1});
  }
  return true;
}

std::unique_ptr<CompiledForest> CompiledForest::Compile(
    const std::vector<std::unique_ptr<Classifier>>& learners,
    const std::vector<double>& thresholds,
    const std::vector<double>& weights) {
  return CompileWithTier(learners, thresholds, weights, ActiveSimdTier());
}

std::unique_ptr<CompiledForest> CompiledForest::CompileWithTier(
    const std::vector<std::unique_ptr<Classifier>>& learners,
    const std::vector<double>& thresholds, const std::vector<double>& weights,
    SimdTier tier) {
  if (!ValidEnsembleShape(learners, thresholds, weights)) return nullptr;
  std::unique_ptr<CompiledForest> forest(new CompiledForest());
  tier = std::min(tier, DetectSimdTier());
  forest->simd_walk_ = internal::GetSimdWalker(tier);
  if (forest->simd_walk_ == nullptr) tier = SimdTier::kScalar;
  forest->tier_ = tier;
  switch (tier) {
    case SimdTier::kAvx2:
      forest->name_ = "compiled-dtb-avx2";
      break;
    case SimdTier::kAvx512:
      forest->name_ = "compiled-dtb-avx512";
      break;
    case SimdTier::kScalar:
      forest->name_ = "compiled-dtb";
      break;
  }
  forest->thresholds_ = thresholds;
  forest->weights_ = weights;
  forest->learner_tree_begin_.push_back(0);
  for (const auto& learner : learners) {
    const auto* bag = dynamic_cast<const BaggingClassifier*>(learner.get());
    if (bag == nullptr || bag->num_fitted() == 0) return nullptr;
    for (int b = 0; b < bag->num_fitted(); ++b) {
      const auto* tree = dynamic_cast<const DecisionTree*>(&bag->member(b));
      if (tree == nullptr || tree->NodeCount() == 0) return nullptr;
      if (!forest->FlattenTree(tree->nodes())) return nullptr;
    }
    forest->learner_members_.push_back(bag->num_fitted());
    forest->learner_tree_begin_.push_back(
        static_cast<int32_t>(forest->tree_root_.size()));
  }
  return forest;
}

void CompiledForest::ScoreLearner(int learner, const double* rows, int stride,
                                  int count, double* sum, double* sum2,
                                  double* mean, double* variance) const {
  const Node* nodes = nodes_.data();
  const int tree_begin = learner_tree_begin_[learner];
  const int tree_end = learner_tree_begin_[learner + 1];
  for (int t = tree_begin; t < tree_end; ++t) {
    // Tier dispatch per tree walk: the gathered walkers accumulate each
    // row's leaf value with exactly the scalar arithmetic (same NaN
    // routing, same leaf parking, same add order per row), so every tier
    // is bit-identical — only rows-in-flight differ.
    if (simd_walk_ != nullptr) {
      simd_walk_(nodes, tree_root_[t], tree_depth_[t], rows, stride, count, sum,
                 sum2, /*assign=*/t == tree_begin);
    } else if (t == tree_begin) {
      WalkTree<true>(nodes, tree_root_[t], tree_depth_[t], rows, stride, count,
                     sum, sum2);
    } else {
      WalkTree<false>(nodes, tree_root_[t], tree_depth_[t], rows, stride, count,
                      sum, sum2);
    }
  }
  const int b = learner_members_[learner];
  for (int i = 0; i < count; ++i) {
    const double m = sum[i] / b;
    const double s = sum2[i] / b;
    mean[i] = m;
    variance[i] = std::max(0.0, s - m * m);
  }
}

}  // namespace paws

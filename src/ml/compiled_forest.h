#ifndef PAWS_ML_COMPILED_FOREST_H_
#define PAWS_ML_COMPILED_FOREST_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/classifier.h"
#include "ml/compiled_backend.h"
#include "ml/decision_tree.h"
#include "ml/effort_curve.h"
#include "util/aligned.h"
#include "util/cpu_features.h"
#include "util/feature_matrix.h"
#include "util/thread_pool.h"

namespace paws {

/// Flat structure-of-arrays ScoringBackend for an iWare-E ensemble whose
/// weak learners are all baggings of decision trees (DTB / random forest —
/// the traffic-facing configuration for large parks). Every tree of every
/// threshold learner is flattened into one contiguous node pool laid out
/// children-adjacent (right child = left child + 1), so batch evaluation is
/// a tight loop over plain arrays: no virtual dispatch per learner, no
/// per-call Prediction buffers, and per-tree node data stays cache-hot
/// across a whole row block.
///
/// Bit-exactness contract: evaluation reproduces the reference path
/// (BaggingClassifier::PredictBatchWithVariance mixed by
/// IWareEnsemble::PredictBatch / PredictEffortCurves) bit for bit — member
/// probabilities are accumulated in member order, learner mixtures in
/// learner order, and every divide / clamp is performed exactly where the
/// reference performs it. The shared-mixing harness (qualified prefixes and
/// the score-once effort-curve prefix scan) lives in
/// internal::CompiledBackendBase and is shared with the compiled-SVB and
/// compiled-GP backends; this class contributes the flattened trees and
/// their interleaved traversal.
///
/// Instances are derived state: IWareEnsemble selects its backend at the
/// end of Fit and after Load (never serialized). Ensembles whose learners
/// are not bagged trees compile to another backend or fall back to the
/// reference path.
class CompiledForest : public internal::CompiledBackendBase<CompiledForest> {
 public:
  /// Flattens `learners` (parallel to ascending `thresholds` and mixing
  /// `weights`). Returns nullptr — caller tries the next backend — unless
  /// every learner is a fitted BaggingClassifier whose members are all
  /// fitted DecisionTrees and the thresholds are strictly increasing (the
  /// prefix-scan precondition). The traversal dispatch tier is
  /// ActiveSimdTier(): the strongest gathered walk this CPU executes,
  /// clamped by the PAWS_FORCE_BACKEND override (scalar/avx2/avx512).
  static std::unique_ptr<CompiledForest> Compile(
      const std::vector<std::unique_ptr<Classifier>>& learners,
      const std::vector<double>& thresholds,
      const std::vector<double>& weights);

  /// Compile() pinned to one dispatch tier (still clamped to what this
  /// build/CPU can execute) — benchmarks and the bit-identity tests use it
  /// to compare tiers on one model.
  static std::unique_ptr<CompiledForest> CompileWithTier(
      const std::vector<std::unique_ptr<Classifier>>& learners,
      const std::vector<double>& thresholds,
      const std::vector<double>& weights, SimdTier tier);

  /// "compiled-dtb" for the scalar tier, "compiled-dtb-avx2" /
  /// "compiled-dtb-avx512" for the gathered walks — operators read the
  /// suffix off `paws_serve --stats` to confirm what a daemon dispatches.
  const char* name() const override { return name_; }

  SimdTier simd_tier() const { return tier_; }

  /// One flattened tree node, packed to 16 bytes so a visit touches a
  /// single cache line. Internal node: `feature >= 0`, `value` is the
  /// split threshold, children at `left` (<=) and `left + 1` (>). Leaf:
  /// `feature == -1`, `value` is the leaf probability.
  struct Node {
    int32_t feature = -1;
    int32_t left = 0;
    double value = 0.0;
  };

  int num_trees() const { return static_cast<int>(tree_root_.size()); }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// Base of the flattened node pool — 64-byte aligned so gathered lane
  /// groups and whole-line node quads never straddle cache lines (the
  /// alignment regression test reads this).
  const Node* node_pool() const { return nodes_.data(); }

 private:
  friend class internal::CompiledBackendBase<CompiledForest>;

  CompiledForest() = default;

  bool FlattenTree(const std::vector<DecisionTree::Node>& nodes);

  /// Scores one learner over the block's `count` rows (see
  /// CompiledBackendBase for the exact contract): per row, the
  /// member-order sum of tree outputs and squares in `sum`/`sum2`, then
  /// the bagging mean and clamped ensemble-spread variance in
  /// `mean`/`variance`. Rows are traversed in interleaved groups with
  /// independent cursors so the per-level node loads of several rows
  /// overlap instead of serializing on one pointer-chase chain.
  void ScoreLearner(int learner, const double* rows, int stride, int count,
                    double* sum, double* sum2, double* mean,
                    double* variance) const;

  /// Trees may never split on trailing features, so wider rows are fine.
  void CheckRowWidth(int cols) const {
    CheckOrDie(cols >= num_features_,
               "CompiledForest: feature rows too narrow");
  }

  // One contiguous node pool for every tree, 64-byte aligned (four nodes
  // per cache line, and a gather-friendly base for the SIMD tiers). Each
  // tree's nodes are laid out breadth-first from its root: the interleaved
  // traversal advances all cursors one level at a time, so every in-flight
  // load lands inside one contiguous (and for the top levels, tiny) span
  // of the pool.
  std::vector<Node, AlignedAllocator<Node, 64>> nodes_;
  std::vector<int32_t> tree_root_;   // root node index per tree
  std::vector<int32_t> tree_depth_;  // traversal steps to reach any leaf
  // Trees of learner i: tree_root_[learner_tree_begin_[i] ..
  // learner_tree_begin_[i + 1]).
  std::vector<int32_t> learner_tree_begin_;  // size num_learners + 1
  std::vector<int32_t> learner_members_;     // bagging denominator B

  // Resolved traversal dispatch: the tier, its reported backend name, and
  // the gathered walker (nullptr on the scalar tier). Derived at Compile
  // time, never serialized.
  SimdTier tier_ = SimdTier::kScalar;
  const char* name_ = "compiled-dtb";
  void (*simd_walk_)(const Node* nodes, int root, int depth,
                     const double* rows, int stride, int count, double* sum,
                     double* sum2, bool assign) = nullptr;
};

}  // namespace paws

#endif  // PAWS_ML_COMPILED_FOREST_H_

#ifndef PAWS_ML_SIMD_TRAVERSAL_H_
#define PAWS_ML_SIMD_TRAVERSAL_H_

#include "ml/compiled_forest.h"
#include "util/cpu_features.h"

namespace paws {
namespace internal {

/// Walks one flattened tree over the contiguous block of `count` rows at
/// `rows` (row-major, stride `stride`), accumulating each row's leaf value
/// and its square into `sum`/`sum2` — or assigning them when `assign` is
/// set (the first tree of a learner).
/// Drop-in replacement for CompiledForest's scalar WalkTree: identical
/// NaN routing (`!(x <= value)` sends NaN right, exactly the reference
/// DecisionTree::PredictRow ternary), identical leaf parking, identical
/// per-row accumulation arithmetic — so outputs are bit-identical; only
/// the number of rows in flight per lane group differs.
using SimdWalkTreeFn = void (*)(const CompiledForest::Node* nodes, int root,
                                int depth, const double* rows, int stride,
                                int count, double* sum, double* sum2,
                                bool assign);

/// The gathered walker for `tier`, or nullptr when `tier` is kScalar or
/// this build cannot emit it (non-x86, or a toolchain without target
/// attributes) — the caller keeps its scalar traversal. The caller is
/// responsible for only requesting tiers the hardware executes
/// (ActiveSimdTier / DetectSimdTier already clamp).
SimdWalkTreeFn GetSimdWalker(SimdTier tier);

}  // namespace internal
}  // namespace paws

#endif  // PAWS_ML_SIMD_TRAVERSAL_H_

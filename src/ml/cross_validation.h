#ifndef PAWS_ML_CROSS_VALIDATION_H_
#define PAWS_ML_CROSS_VALIDATION_H_

#include <vector>

#include "util/rng.h"

namespace paws {

/// Stratified k-fold assignment: shuffles positives and negatives
/// separately and deals them round-robin so each fold preserves the class
/// ratio (essential under 1:200 imbalance). Returns, for each fold, the
/// list of validation row indices. Every row appears in exactly one fold.
std::vector<std::vector<int>> StratifiedKFold(const std::vector<int>& labels,
                                              int num_folds, Rng* rng);

}  // namespace paws

#endif  // PAWS_ML_CROSS_VALIDATION_H_

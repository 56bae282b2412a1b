#include "ml/cross_validation.h"

#include <utility>

#include "util/status.h"

namespace paws {

std::vector<std::vector<int>> StratifiedKFold(const std::vector<int>& labels,
                                              int num_folds, Rng* rng) {
  CheckOrDie(num_folds >= 2, "StratifiedKFold requires >= 2 folds");
  CheckOrDie(rng != nullptr, "StratifiedKFold requires an Rng");
  std::vector<int> pos, neg;
  for (size_t i = 0; i < labels.size(); ++i) {
    (labels[i] == 1 ? pos : neg).push_back(static_cast<int>(i));
  }
  auto shuffle = [&](std::vector<int>* v) {
    const std::vector<int> perm = rng->Permutation(static_cast<int>(v->size()));
    std::vector<int> out(v->size());
    for (size_t i = 0; i < v->size(); ++i) out[i] = (*v)[perm[i]];
    *v = std::move(out);
  };
  shuffle(&pos);
  shuffle(&neg);
  std::vector<std::vector<int>> folds(num_folds);
  int next = 0;
  for (int i : pos) folds[next++ % num_folds].push_back(i);
  for (int i : neg) folds[next++ % num_folds].push_back(i);
  return folds;
}

}  // namespace paws

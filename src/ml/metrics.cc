#include "ml/metrics.h"

#include <algorithm>
#include <numeric>

#include "ml/classifier.h"

namespace paws {

std::vector<double> PredictAll(const Classifier& model, const Dataset& data) {
  std::vector<double> out;
  model.PredictBatch(data.FeaturesView(), &out);
  return out;
}

StatusOr<double> AucRoc(const std::vector<double>& scores,
                        const std::vector<int>& labels) {
  if (scores.size() != labels.size()) {
    return Status::InvalidArgument("AucRoc: size mismatch");
  }
  const int n = static_cast<int>(scores.size());
  int n_pos = 0;
  for (int y : labels) n_pos += y;
  const int n_neg = n - n_pos;
  if (n_pos == 0 || n_neg == 0) {
    return Status::InvalidArgument(
        "AucRoc requires both positive and negative labels");
  }
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return scores[a] < scores[b]; });
  // Average ranks over tie groups.
  std::vector<double> rank(n);
  int i = 0;
  while (i < n) {
    int j = i;
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;
    const double avg_rank = 0.5 * (i + j) + 1.0;  // 1-based
    for (int k = i; k <= j; ++k) rank[order[k]] = avg_rank;
    i = j + 1;
  }
  double pos_rank_sum = 0.0;
  for (int k = 0; k < n; ++k) {
    if (labels[k] == 1) pos_rank_sum += rank[k];
  }
  const double auc =
      (pos_rank_sum - 0.5 * n_pos * (n_pos + 1)) /
      (static_cast<double>(n_pos) * static_cast<double>(n_neg));
  return auc;
}

}  // namespace paws

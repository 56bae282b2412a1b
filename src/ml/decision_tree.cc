#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <functional>

namespace paws {

namespace {

double LeafProb(int n_pos, int n) {
  return (n_pos + 1.0) / (n + 2.0);  // Laplace smoothing
}

}  // namespace

Status DecisionTree::Fit(const Dataset& data, Rng* rng) {
  if (data.empty()) return Status::InvalidArgument("DecisionTree: empty data");
  CheckOrDie(rng != nullptr, "DecisionTree::Fit requires an Rng");
  nodes_.clear();
  std::vector<int> indices(data.size());
  for (int i = 0; i < data.size(); ++i) indices[i] = i;
  BuildNode(data, &indices, 0, data.size(), 0, rng);
  return Status::OK();
}

int DecisionTree::BuildNode(const Dataset& data, std::vector<int>* indices,
                            int begin, int end, int depth, Rng* rng) {
  const int n = end - begin;
  int n_pos = 0;
  for (int i = begin; i < end; ++i) n_pos += data.label((*indices)[i]);

  const int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[node_id].prob = LeafProb(n_pos, n);

  const bool pure = (n_pos == 0 || n_pos == n);
  if (depth >= config_.max_depth || n < config_.min_samples_split || pure) {
    return node_id;
  }

  // Candidate features: all, or a random subset (random-forest style).
  const int k = data.num_features();
  std::vector<int> features;
  if (config_.max_features > 0 && config_.max_features < k) {
    features = rng->SampleWithoutReplacement(k, config_.max_features);
  } else {
    features.resize(k);
    for (int f = 0; f < k; ++f) features[f] = f;
  }

  // Find the best Gini split. parent impurity is constant, so we minimize
  // the weighted child impurity n_l*g_l + n_r*g_r.
  double best_score = 1e300;
  int best_feature = -1;
  double best_threshold = 0.0;
  std::vector<std::pair<double, int>> vals(n);  // (feature value, label)
  for (int f : features) {
    for (int i = 0; i < n; ++i) {
      const int row = (*indices)[begin + i];
      vals[i] = {data.Row(row)[f], data.label(row)};
    }
    std::sort(vals.begin(), vals.end());
    int left_pos = 0;
    for (int i = 0; i < n - 1; ++i) {
      left_pos += vals[i].second;
      // Can only split between distinct values.
      if (vals[i].first == vals[i + 1].first) continue;
      const int nl = i + 1;
      const int nr = n - nl;
      if (nl < config_.min_samples_leaf || nr < config_.min_samples_leaf) {
        continue;
      }
      const double pl = static_cast<double>(left_pos) / nl;
      const double pr = static_cast<double>(n_pos - left_pos) / nr;
      const double gini_l = 2.0 * pl * (1.0 - pl);
      const double gini_r = 2.0 * pr * (1.0 - pr);
      const double score = nl * gini_l + nr * gini_r;
      if (score < best_score) {
        best_score = score;
        best_feature = f;
        best_threshold = 0.5 * (vals[i].first + vals[i + 1].first);
      }
    }
  }
  if (best_feature < 0) return node_id;  // no valid split

  // Partition indices in place around the threshold.
  const auto mid_it = std::partition(
      indices->begin() + begin, indices->begin() + end, [&](int row) {
        return data.Row(row)[best_feature] <= best_threshold;
      });
  const int mid = static_cast<int>(mid_it - indices->begin());
  if (mid == begin || mid == end) return node_id;  // degenerate partition

  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = best_threshold;
  const int left = BuildNode(data, indices, begin, mid, depth + 1, rng);
  const int right = BuildNode(data, indices, mid, end, depth + 1, rng);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

double DecisionTree::PredictRow(const double* x, int width) const {
  int cur = 0;
  while (nodes_[cur].left != -1) {
    const Node& node = nodes_[cur];
    CheckOrDie(node.feature < width, "DecisionTree: feature vector too short");
    cur = x[node.feature] <= node.threshold ? node.left : node.right;
  }
  return nodes_[cur].prob;
}

void DecisionTree::PredictBatch(const FeatureMatrixView& x,
                                std::vector<double>* out_probs) const {
  CheckOrDie(!nodes_.empty(), "DecisionTree::PredictBatch before Fit");
  out_probs->resize(x.rows());
  for (int i = 0; i < x.rows(); ++i) {
    (*out_probs)[i] = PredictRow(x.Row(i), x.cols());
  }
}

std::unique_ptr<Classifier> DecisionTree::CloneUntrained() const {
  return std::make_unique<DecisionTree>(config_);
}

// Structural validation, so PredictRow cannot walk out of bounds or loop:
// leaves have both children unset, internal nodes split on a real feature
// and point strictly forward (BuildNode appends children after their
// parent). Each node was checked on its own as it was read; the tree then
// checks every child against its parent's index and the pool size.
Status ArchiveLoaded(DecisionTree& tree) {
  const int n = static_cast<int>(tree.nodes_.size());
  for (int i = 0; i < n; ++i) {
    const DecisionTree::Node& node = tree.nodes_[i];
    if (node.left != -1 && !(node.left > i && node.left < n &&
                             node.right > i && node.right < n)) {
      return Status::InvalidArgument("DecisionTree: malformed node " +
                                     std::to_string(i));
    }
  }
  return Status::OK();
}

Status DecisionTree::CheckRowWidth(int width) const {
  for (const Node& node : nodes_) {
    if (node.feature >= width) {
      return Status::InvalidArgument(
          "a decision tree splits on feature " +
          std::to_string(node.feature) + ", so it needs rows of at least " +
          std::to_string(int64_t{node.feature} + 1) + " columns, not " +
          std::to_string(width));
    }
  }
  return Status::OK();
}

int DecisionTree::Depth() const {
  if (nodes_.empty()) return 0;
  std::function<int(int)> depth_of = [&](int id) -> int {
    if (nodes_[id].left == -1) return 0;
    return 1 + std::max(depth_of(nodes_[id].left), depth_of(nodes_[id].right));
  };
  return depth_of(0);
}

}  // namespace paws

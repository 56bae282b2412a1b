#ifndef PAWS_ML_DECISION_TREE_H_
#define PAWS_ML_DECISION_TREE_H_

#include <limits>
#include <memory>
#include <vector>

#include "ml/classifier.h"

namespace paws {

/// CART configuration.
struct DecisionTreeConfig {
  int max_depth = 10;
  int min_samples_split = 4;
  int min_samples_leaf = 2;
  /// Number of features considered per split; 0 means all (plain CART).
  /// Bagged trees use a random subset, making the ensemble a random forest.
  int max_features = 0;
};

template <typename Io>
void ArchiveFields(Io& io, ArchiveRef<Io, DecisionTreeConfig> c) {
  io(c.max_depth, c.min_samples_split, c.min_samples_leaf, c.max_features);
}

/// Binary CART decision tree with Gini impurity splits. Leaf probabilities
/// are Laplace-smoothed positive fractions, (n_pos + 1) / (n + 2), so pure
/// leaves never emit exactly 0 or 1.
class DecisionTree : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeConfig config = {}) : config_(config) {}

  Status Fit(const Dataset& data, Rng* rng) override;
  void PredictBatch(const FeatureMatrixView& x,
                    std::vector<double>* out_probs) const override;
  std::unique_ptr<Classifier> CloneUntrained() const override;

  /// Archived as a "TREE" section: the config, then the node pool.
  static constexpr ArchiveSection kArchiveSection{FourCc("TREE"), 1};
  void Save(ArchiveWriter* ar) const override { SaveRecord(*this, ar); }
  Status CheckRowWidth(int width) const override;
  template <typename Io>
  friend void ArchiveFields(Io& io, ArchiveRef<Io, DecisionTree> t) {
    io(t.config_, t.nodes_);
  }
  friend Status ArchiveLoaded(DecisionTree& tree);

  /// Number of nodes in the fitted tree (0 before Fit).
  int NodeCount() const { return static_cast<int>(nodes_.size()); }

  /// Depth of the fitted tree (0 for a single leaf).
  int Depth() const;

  struct Node {
    // Internal node: feature/threshold and children; leaf: prob, left == -1.
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    double prob = 0.5;

    template <typename Io>
    friend void ArchiveFields(Io& io, ArchiveRef<Io, Node> n) {
      io(n.feature, n.threshold, n.left, n.right, n.prob);
    }
    /// A node on its own: a leaf, or a split on a real feature whose
    /// children come after the root (see ArchiveLoaded(DecisionTree&)).
    /// A real feature leaves room for the int width, feature + 1, of the
    /// rows that hold it. Fit gives every node a Laplace-smoothed
    /// probability in (0, 1), so one outside [0, 1] (NaN included) is
    /// refused rather than served as risk.
    friend Status ArchiveLoaded(Node& n) {
      if (!(n.prob >= 0.0 && n.prob <= 1.0)) {
        return Status::InvalidArgument(
            "DecisionTree: node probability outside [0, 1]");
      }
      const bool leaf = n.left == -1 && n.right == -1;
      const bool real = n.feature >= 0 &&
                        n.feature < std::numeric_limits<int>::max();
      if (leaf || (real && n.left > 0 && n.right > 0)) {
        return Status::OK();
      }
      return Status::InvalidArgument("DecisionTree: malformed node");
    }
  };

  /// Read-only view of the fitted node pool (node 0 is the root; children
  /// always come after their parent). CompiledForest flattens trees through
  /// this without re-walking the prediction API.
  const std::vector<Node>& nodes() const { return nodes_; }

 private:

  int BuildNode(const Dataset& data, std::vector<int>* indices, int begin,
                int end, int depth, Rng* rng);
  double PredictRow(const double* x, int width) const;

  DecisionTreeConfig config_;
  std::vector<Node> nodes_;
};

}  // namespace paws

#endif  // PAWS_ML_DECISION_TREE_H_

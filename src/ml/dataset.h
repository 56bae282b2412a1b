#ifndef PAWS_ML_DATASET_H_
#define PAWS_ML_DATASET_H_

#include <vector>

#include "util/archive.h"
#include "util/feature_matrix.h"
#include "util/status.h"

namespace paws {

/// A supervised dataset for the poaching-prediction task. Each row is one
/// (time step, cell) data point: feature vector x, binary label y (1 if
/// illegal activity was detected), and the *current* patrol effort spent on
/// the cell during that time step. The effort channel is not a feature
/// (rangers cannot know future effort when predicting); it drives the
/// iWare-E negative-label filtering and qualification logic.
class Dataset {
 public:
  explicit Dataset(int num_features) : num_features_(num_features) {
    CheckOrDie(num_features > 0, "Dataset requires num_features > 0");
  }

  int num_features() const { return num_features_; }
  int size() const { return static_cast<int>(y_.size()); }
  bool empty() const { return y_.empty(); }

  /// Appends a row. `time_step` and `cell_id` are optional provenance used
  /// by dataset builders and evaluation (-1 when not applicable).
  void AddRow(const std::vector<double>& x, int y, double effort,
              int time_step = -1, int cell_id = -1);

  /// Pointer to the i-th feature vector (num_features() doubles).
  const double* Row(int i) const;
  std::vector<double> RowVector(int i) const;

  /// Zero-copy view of all feature rows for batch prediction. Valid until
  /// the next AddRow (the backing buffer may reallocate).
  FeatureMatrixView FeaturesView() const {
    return FeatureMatrixView(x_.data(), size(), num_features_);
  }

  int label(int i) const { return y_[i]; }
  double effort(int i) const { return effort_[i]; }
  int time_step(int i) const { return time_step_[i]; }
  int cell_id(int i) const { return cell_id_[i]; }

  const std::vector<int>& labels() const { return y_; }
  const std::vector<double>& efforts() const { return effort_; }

  int CountPositives() const;
  double PositiveFraction() const;

  /// New dataset containing the given rows (in order, duplicates allowed —
  /// this is how bootstrap resamples are expressed).
  Dataset Subset(const std::vector<int>& indices) const;

  /// iWare-E filtering: keeps ALL positive rows and only those negative rows
  /// whose patrol effort exceeds `theta`. (Paper Sec. IV: negatives recorded
  /// under low effort are unreliable; positives are always reliable.)
  Dataset FilterNegativesBelowEffort(double theta) const;

  /// Indices of rows whose time step lies in [t_begin, t_end).
  std::vector<int> RowsInTimeRange(int t_begin, int t_end) const;

  /// The q-th percentile (q in [0,100]) of the effort channel.
  double EffortPercentile(double q) const;

 private:
  int num_features_;
  std::vector<double> x_;  // flattened row-major
  std::vector<int> y_;
  std::vector<double> effort_;
  std::vector<int> time_step_;
  std::vector<int> cell_id_;
};

/// Per-feature affine standardization (z-scoring) fit on a training set and
/// applied to any vector. Constant features map to 0.
class Standardizer {
 public:
  Standardizer() = default;

  /// Computes per-feature mean and standard deviation from `data`.
  static Standardizer Fit(const Dataset& data);

  /// Standardizes a feature vector in place.
  void Apply(std::vector<double>* x) const;
  std::vector<double> Transform(const std::vector<double>& x) const;

  int num_features() const { return static_cast<int>(mean_.size()); }
  const std::vector<double>& mean() const { return mean_; }
  const std::vector<double>& stddev() const { return stddev_; }

  /// Archived bit-exact: the fitted moments.
  template <typename Io>
  friend void ArchiveFields(Io& io, ArchiveRef<Io, Standardizer> s) {
    io(s.mean_, s.stddev_);
  }
  friend Status ArchiveLoaded(Standardizer& s);

 private:
  std::vector<double> mean_;
  std::vector<double> stddev_;
};

}  // namespace paws

#endif  // PAWS_ML_DATASET_H_

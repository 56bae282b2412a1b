#include "ml/dataset.h"

#include <algorithm>
#include <cmath>

#include "util/stats.h"

namespace paws {

void Dataset::AddRow(const std::vector<double>& x, int y, double effort,
                     int time_step, int cell_id) {
  CheckOrDie(static_cast<int>(x.size()) == num_features_,
             "Dataset::AddRow feature width mismatch");
  CheckOrDie(y == 0 || y == 1, "Dataset labels must be binary");
  CheckOrDie(effort >= 0.0, "Dataset effort must be non-negative");
  x_.insert(x_.end(), x.begin(), x.end());
  y_.push_back(y);
  effort_.push_back(effort);
  time_step_.push_back(time_step);
  cell_id_.push_back(cell_id);
}

const double* Dataset::Row(int i) const {
  CheckOrDie(i >= 0 && i < size(), "Dataset::Row out of bounds");
  return x_.data() + static_cast<size_t>(i) * num_features_;
}

std::vector<double> Dataset::RowVector(int i) const {
  const double* r = Row(i);
  return std::vector<double>(r, r + num_features_);
}

int Dataset::CountPositives() const {
  int n = 0;
  for (int y : y_) n += y;
  return n;
}

double Dataset::PositiveFraction() const {
  if (empty()) return 0.0;
  return static_cast<double>(CountPositives()) / size();
}

Dataset Dataset::Subset(const std::vector<int>& indices) const {
  Dataset out(num_features_);
  for (int i : indices) {
    CheckOrDie(i >= 0 && i < size(), "Dataset::Subset index out of bounds");
    out.AddRow(RowVector(i), y_[i], effort_[i], time_step_[i], cell_id_[i]);
  }
  return out;
}

Dataset Dataset::FilterNegativesBelowEffort(double theta) const {
  std::vector<int> keep;
  for (int i = 0; i < size(); ++i) {
    if (y_[i] == 1 || effort_[i] > theta) keep.push_back(i);
  }
  return Subset(keep);
}

std::vector<int> Dataset::RowsInTimeRange(int t_begin, int t_end) const {
  std::vector<int> out;
  for (int i = 0; i < size(); ++i) {
    if (time_step_[i] >= t_begin && time_step_[i] < t_end) out.push_back(i);
  }
  return out;
}

double Dataset::EffortPercentile(double q) const {
  CheckOrDie(!empty(), "EffortPercentile on empty dataset");
  return Percentile(effort_, q);
}

Standardizer Standardizer::Fit(const Dataset& data) {
  CheckOrDie(!data.empty(), "Standardizer::Fit on empty dataset");
  const int k = data.num_features();
  const int n = data.size();
  Standardizer s;
  s.mean_.assign(k, 0.0);
  s.stddev_.assign(k, 0.0);
  for (int i = 0; i < n; ++i) {
    const double* row = data.Row(i);
    for (int f = 0; f < k; ++f) s.mean_[f] += row[f];
  }
  for (int f = 0; f < k; ++f) s.mean_[f] /= n;
  for (int i = 0; i < n; ++i) {
    const double* row = data.Row(i);
    for (int f = 0; f < k; ++f) {
      const double d = row[f] - s.mean_[f];
      s.stddev_[f] += d * d;
    }
  }
  for (int f = 0; f < k; ++f) {
    s.stddev_[f] = std::sqrt(s.stddev_[f] / std::max(1, n - 1));
    if (s.stddev_[f] < 1e-12) s.stddev_[f] = 1.0;  // constant feature -> 0
  }
  return s;
}

void Standardizer::Apply(std::vector<double>* x) const {
  CheckOrDie(x != nullptr && x->size() == mean_.size(),
             "Standardizer::Apply width mismatch");
  for (size_t f = 0; f < mean_.size(); ++f) {
    (*x)[f] = ((*x)[f] - mean_[f]) / stddev_[f];
  }
}

std::vector<double> Standardizer::Transform(
    const std::vector<double>& x) const {
  std::vector<double> out = x;
  Apply(&out);
  return out;
}

Status ArchiveLoaded(Standardizer& s) {
  if (s.mean_.size() != s.stddev_.size()) {
    return Status::InvalidArgument("Standardizer: mean/stddev width mismatch");
  }
  if (!AllFinite(s.mean_) || !AllFinite(s.stddev_)) {
    return Status::InvalidArgument("Standardizer: mean or stddev not finite");
  }
  for (double sd : s.stddev_) {
    if (!(sd > 0.0)) {
      return Status::InvalidArgument("Standardizer: non-positive stddev");
    }
  }
  return Status::OK();
}

}  // namespace paws

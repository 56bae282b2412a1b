#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/special.h"

namespace paws {

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.count = static_cast<int>(values.size());
  if (values.empty()) return s;
  s.min = values[0];
  s.max = values[0];
  double sum = 0.0;
  for (double v : values) {
    sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = sum / s.count;
  if (s.count >= 2) {
    double ss = 0.0;
    for (double v : values) ss += (v - s.mean) * (v - s.mean);
    s.variance = ss / (s.count - 1);
  }
  return s;
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  CheckOrDie(x.size() == y.size(), "PearsonCorrelation: size mismatch");
  CheckOrDie(x.size() >= 2, "PearsonCorrelation: need at least 2 points");
  const int n = static_cast<int>(x.size());
  double mx = 0.0, my = 0.0;
  for (int i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (int i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

StatusOr<ChiSquaredResult> ChiSquaredIndependence(
    const std::vector<std::vector<double>>& table) {
  if (table.empty() || table[0].empty()) {
    return Status::InvalidArgument("chi-squared: empty table");
  }
  const size_t cols = table[0].size();
  for (const auto& row : table) {
    if (row.size() != cols) {
      return Status::InvalidArgument("chi-squared: ragged table");
    }
    for (double v : row) {
      if (v < 0.0) {
        return Status::InvalidArgument("chi-squared: negative count");
      }
    }
  }

  // Drop all-zero rows and columns: they contribute no information and
  // would produce zero expected counts.
  std::vector<double> row_sums, col_sums;
  std::vector<std::vector<double>> kept;
  std::vector<double> col_total(cols, 0.0);
  for (const auto& row : table) {
    double rs = 0.0;
    for (size_t j = 0; j < cols; ++j) rs += row[j];
    if (rs > 0.0) {
      kept.push_back(row);
      row_sums.push_back(rs);
      for (size_t j = 0; j < cols; ++j) col_total[j] += row[j];
    }
  }
  std::vector<int> kept_cols;
  for (size_t j = 0; j < cols; ++j) {
    if (col_total[j] > 0.0) kept_cols.push_back(static_cast<int>(j));
  }
  if (kept.size() < 2 || kept_cols.size() < 2) {
    return Status::InvalidArgument(
        "chi-squared: table must be at least 2x2 after dropping empty "
        "rows/columns");
  }

  double total = 0.0;
  for (double rs : row_sums) total += rs;

  ChiSquaredResult result;
  for (size_t i = 0; i < kept.size(); ++i) {
    for (int j : kept_cols) {
      const double expected = row_sums[i] * col_total[j] / total;
      const double diff = kept[i][j] - expected;
      result.statistic += diff * diff / expected;
    }
  }
  result.degrees_of_freedom = static_cast<int>(kept.size() - 1) *
                              static_cast<int>(kept_cols.size() - 1);
  result.p_value =
      ChiSquaredSurvival(result.statistic, result.degrees_of_freedom);
  return result;
}

double Percentile(std::vector<double> values, double q) {
  CheckOrDie(!values.empty(), "Percentile of empty sample");
  CheckOrDie(q >= 0.0 && q <= 100.0, "Percentile q must be in [0, 100]");
  std::sort(values.begin(), values.end());
  const double pos = q / 100.0 * (values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = static_cast<size_t>(std::ceil(pos));
  if (lo == hi) return values[lo];
  const double frac = pos - lo;
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace paws

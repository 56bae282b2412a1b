#ifndef PAWS_UTIL_STATS_H_
#define PAWS_UTIL_STATS_H_

#include <vector>

#include "util/status.h"

namespace paws {

/// Summary statistics of a sample.
struct Summary {
  int count = 0;
  double mean = 0.0;
  double variance = 0.0;  // unbiased (n-1 denominator); 0 for n < 2
  double min = 0.0;
  double max = 0.0;
};

/// Computes count/mean/variance/min/max of `values` in one pass.
Summary Summarize(const std::vector<double>& values);

/// Pearson correlation coefficient of paired samples. Returns 0 when either
/// sample has zero variance. Requires x.size() == y.size() >= 2.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

/// Result of a Pearson chi-squared test of independence on a contingency
/// table.
struct ChiSquaredResult {
  double statistic = 0.0;
  int degrees_of_freedom = 0;
  double p_value = 1.0;
};

/// Pearson chi-squared test of independence. `table[i][j]` is the observed
/// count in row i, column j. All rows must have the same number of columns,
/// every row/column sum should be positive (rows or columns with zero totals
/// are dropped), and the table must end up at least 2x2.
StatusOr<ChiSquaredResult> ChiSquaredIndependence(
    const std::vector<std::vector<double>>& table);

/// Value at the q-th percentile (q in [0, 100]) of `values` using linear
/// interpolation between order statistics. Requires a non-empty sample.
double Percentile(std::vector<double> values, double q);

}  // namespace paws

#endif  // PAWS_UTIL_STATS_H_

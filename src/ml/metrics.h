#ifndef PAWS_ML_METRICS_H_
#define PAWS_ML_METRICS_H_

#include <vector>

#include "util/status.h"

namespace paws {

/// Area under the ROC curve via the rank-sum (Mann-Whitney) formulation,
/// with the standard tie correction. Requires at least one positive and one
/// negative label; returns InvalidArgument otherwise.
StatusOr<double> AucRoc(const std::vector<double>& scores,
                        const std::vector<int>& labels);

}  // namespace paws

#endif  // PAWS_ML_METRICS_H_

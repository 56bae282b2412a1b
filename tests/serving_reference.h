// The independent reference for serving-path bit-identity tests: the
// history-based per-request paths (BuildCellFeatureRows + one batched
// model call) over a one-step PatrolHistory that carries a coverage
// layer. No tile pool, no tile fan-out, no served cache — so comparing a
// served result against it never compares the tiled code with itself.
#ifndef PAWS_TESTS_SERVING_REFERENCE_H_
#define PAWS_TESTS_SERVING_REFERENCE_H_

#include <utility>
#include <vector>

#include "core/risk_map.h"
#include "core/snapshot.h"

namespace paws {

/// A history whose only step carries `lagged_effort`: at t = 1 the
/// per-request assembly reads exactly that coverage layer.
inline PatrolHistory OneStepHistory(std::vector<double> lagged_effort) {
  PatrolHistory history;
  history.steps.emplace_back();
  history.steps.back().effort = std::move(lagged_effort);
  return history;
}

inline RiskMaps ReferenceRiskMap(const ModelSnapshot& snapshot,
                                 double assumed_effort) {
  return PredictRiskMap(snapshot.model(), snapshot.park(),
                        OneStepHistory(snapshot.lagged_effort()), /*t=*/1,
                        assumed_effort);
}

inline EffortCurveTable ReferenceCurves(const ModelSnapshot& snapshot,
                                        const std::vector<int>& cell_ids,
                                        std::vector<double> effort_grid) {
  return PredictCellEffortCurves(snapshot.model(), snapshot.park(),
                                 OneStepHistory(snapshot.lagged_effort()),
                                 /*t=*/1, cell_ids, std::move(effort_grid));
}

inline StatusOr<PatrolPlan> ReferencePlan(const ModelSnapshot& snapshot,
                                          int post_index,
                                          const PlannerConfig& config,
                                          const RobustParams& robust) {
  return PlanForPostWithModel(snapshot.model(), snapshot.park(),
                              OneStepHistory(snapshot.lagged_effort()),
                              /*t=*/1, post_index, config, robust);
}

}  // namespace paws

#endif  // PAWS_TESTS_SERVING_REFERENCE_H_

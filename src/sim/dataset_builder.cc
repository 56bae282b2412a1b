#include "sim/dataset_builder.h"

#include <algorithm>

#include "geo/tiled_feature_plane.h"
#include "util/stats.h"

namespace paws {

Dataset BuildDataset(const Park& park, const PatrolHistory& history,
                     const DatasetBuilderOptions& options) {
  CheckOrDie(history.num_cells() == park.num_cells(),
             "BuildDataset: history/park mismatch");
  const int t_end =
      options.t_end < 0 ? history.num_steps() : options.t_end;
  CheckOrDie(options.t_begin >= 0 && t_end <= history.num_steps() &&
                 options.t_begin < t_end,
             "BuildDataset: bad time range");
  const int k = park.num_features() + 1;  // + lagged coverage
  Dataset data(k);
  std::vector<double> x(k);
  for (int t = options.t_begin; t < t_end; ++t) {
    const StepRecord& rec = history.steps[t];
    const std::vector<double>* prev =
        t > 0 ? &history.steps[t - 1].effort : nullptr;
    for (int id = 0; id < park.num_cells(); ++id) {
      const double effort = rec.effort[id];
      if (effort <= 0.0 && !options.include_unpatrolled) continue;
      park.CopyFeatures(id, x.data());
      x[k - 1] = prev != nullptr ? (*prev)[id] : 0.0;
      // One-sided noise: label is what rangers *saw*, not the truth.
      data.AddRow(x, rec.detected[id] ? 1 : 0, effort, t, id);
    }
  }
  return data;
}

Dataset BuildPredictionRows(const Park& park, const PatrolHistory& history,
                            int t, double assumed_effort,
                            const std::vector<uint8_t>* attacked) {
  CheckOrDie(assumed_effort >= 0.0, "assumed_effort must be >= 0");
  const int k = park.num_features() + 1;
  const std::vector<double> rows = BuildCellFeatureRows(park, history, t);
  Dataset data(k);
  std::vector<double> x(k);
  for (int id = 0; id < park.num_cells(); ++id) {
    std::copy(rows.begin() + static_cast<size_t>(id) * k,
              rows.begin() + static_cast<size_t>(id + 1) * k, x.begin());
    const int label = (attacked != nullptr && (*attacked)[id]) ? 1 : 0;
    data.AddRow(x, label, assumed_effort, t, id);
  }
  return data;
}

std::vector<double> BuildCellFeatureRows(const Park& park,
                                         const PatrolHistory& history, int t,
                                         const std::vector<int>& cell_ids) {
  const std::vector<double>* prev =
      (t > 0 && t - 1 < history.num_steps()) ? &history.steps[t - 1].effort
                                             : nullptr;
  // One shared assembly loop with the serving-side tile pool, so served
  // and per-request rows are byte-identical by construction.
  std::vector<double> rows;
  AppendCellFeatureRows(park, prev, cell_ids, &rows);
  return rows;
}

std::vector<double> BuildCellFeatureRows(const Park& park,
                                         const PatrolHistory& history,
                                         int t) {
  std::vector<int> cell_ids(park.num_cells());
  for (int id = 0; id < park.num_cells(); ++id) cell_ids[id] = id;
  return BuildCellFeatureRows(park, history, t, cell_ids);
}

double PositiveRateAboveEffortPercentile(const Dataset& data, double q) {
  CheckOrDie(!data.empty(), "PositiveRateAboveEffortPercentile: empty data");
  const double theta = data.EffortPercentile(q);
  int num = 0, den = 0;
  for (int i = 0; i < data.size(); ++i) {
    if (data.effort(i) >= theta) {
      ++den;
      num += data.label(i);
    }
  }
  return den > 0 ? 100.0 * num / den : 0.0;
}

}  // namespace paws

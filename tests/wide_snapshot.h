// A snapshot artifact whose model does not fit its park: the ensemble was
// fitted to rows wider than the park's served rows (its features plus the
// lagged-effort column). Every byte and every field of it is valid, so only
// the load-time width check stands between it and the first read.
#ifndef PAWS_TESTS_WIDE_SNAPSHOT_H_
#define PAWS_TESTS_WIDE_SNAPSHOT_H_

#include <string>
#include <vector>

#include "core/snapshot.h"
#include "util/rng.h"

namespace paws {

/// Archive of a `kind` ensemble fitted to rows `extra_columns` wider than
/// `park` serves, saved against `park`. The label depends only on the last
/// column, so DTB trees split on a column a served row does not have.
inline std::string WideModelSnapshot(const Park& park, int extra_columns,
                                     WeakLearnerKind kind) {
  const int width = park.num_features() + 1 + extra_columns;
  Rng rng(13);
  Dataset train(width);
  std::vector<double> x(width);
  for (int i = 0; i < 200; ++i) {
    for (double& v : x) v = rng.Uniform(0.0, 1.0);
    train.AddRow(x, x.back() > 0.5 ? 1 : 0, rng.Uniform(0.0, 4.0));
  }
  IWareConfig cfg;
  cfg.num_thresholds = 2;
  cfg.cv_folds = 2;
  cfg.weak_learner = kind;
  cfg.bagging.num_estimators = 2;
  cfg.gp.max_points = 20;
  IWareEnsemble model(cfg);
  CheckOrDie(model.Fit(train, &rng).ok(), "wide model fit failed");
  ArchiveWriter writer;
  SaveModelSnapshotParts(model, park,
                         std::vector<double>(park.num_cells(), 0.0), &writer);
  return writer.Bytes();
}

}  // namespace paws

#endif  // PAWS_TESTS_WIDE_SNAPSHOT_H_

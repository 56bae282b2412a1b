#include "core/pipeline.h"

#include <algorithm>
#include <utility>

namespace paws {

ScenarioData SimulateScenario(const Scenario& scenario, uint64_t sim_seed) {
  Park park = GenerateSyntheticPark(scenario.park);
  AttackModel attacks(park, scenario.behavior);
  Rng rng(sim_seed);
  const int steps = scenario.steps_per_year * scenario.num_years;
  PatrolHistory history = SimulateHistory(park, attacks, scenario.detection,
                                          scenario.patrol, steps, &rng);
  return ScenarioData{scenario, std::move(park), std::move(attacks),
                      scenario.detection, std::move(history)};
}

StatusOr<YearSplit> SplitByYear(const ScenarioData& data, int test_year,
                                int train_years) {
  const int spy = data.steps_per_year();
  const int total_years = data.scenario.num_years;
  if (test_year < 1 || test_year >= total_years) {
    return Status::InvalidArgument("SplitByYear: test_year out of range");
  }
  const int first_train_year = std::max(0, test_year - train_years);
  const Dataset all = BuildDataset(data.park, data.history);
  YearSplit split{Dataset(all.num_features()), Dataset(all.num_features()),
                  test_year * spy};
  const std::vector<int> train_rows =
      all.RowsInTimeRange(first_train_year * spy, test_year * spy);
  const std::vector<int> test_rows =
      all.RowsInTimeRange(test_year * spy, (test_year + 1) * spy);
  if (train_rows.empty() || test_rows.empty()) {
    return Status::FailedPrecondition("SplitByYear: empty split");
  }
  split.train = all.Subset(train_rows);
  split.test = all.Subset(test_rows);
  return split;
}

StatusOr<AucResult> EvaluateIWareAuc(const IWareConfig& config,
                                     const YearSplit& split, Rng* rng) {
  IWareEnsemble model(config);
  PAWS_RETURN_IF_ERROR(model.Fit(split.train, rng));
  const std::vector<double> scores = model.PredictDataset(split.test);
  PAWS_ASSIGN_OR_RETURN(const double auc,
                        AucRoc(scores, split.test.labels()));
  return AucResult{auc, split.test.size(), split.test.CountPositives()};
}

StatusOr<AucResult> EvaluateBaselineAuc(const IWareConfig& config,
                                        const YearSplit& split, Rng* rng) {
  auto model = MakeWeakLearner(config);
  PAWS_RETURN_IF_ERROR(model->Fit(split.train, rng));
  const std::vector<double> scores = PredictAll(*model, split.test);
  PAWS_ASSIGN_OR_RETURN(const double auc,
                        AucRoc(scores, split.test.labels()));
  return AucResult{auc, split.test.size(), split.test.CountPositives()};
}

Status PawsPipeline::Train(Rng* rng) {
  PAWS_ASSIGN_OR_RETURN(YearSplit split,
                        SplitByYear(data_, data_.scenario.num_years - 1));
  model_ = std::make_unique<IWareEnsemble>(model_config_);
  PAWS_RETURN_IF_ERROR(model_->Fit(split.train, rng));
  split_.emplace(std::move(split));
  return Status::OK();
}

StatusOr<double> PawsPipeline::TestAuc() const {
  if (model_ == nullptr) {
    return Status::FailedPrecondition("PawsPipeline: Train first");
  }
  const std::vector<double> scores = model_->PredictDataset(split_->test);
  PAWS_ASSIGN_OR_RETURN(const double auc,
                        AucRoc(scores, split_->test.labels()));
  return auc;
}

RiskMaps PawsPipeline::PredictRisk(double assumed_effort) const {
  CheckOrDie(model_ != nullptr, "PawsPipeline: Train first");
  return PredictRiskMap(*model_, data_.park, data_.history,
                        split_->test_t_begin, assumed_effort);
}

StatusOr<PatrolPlan> PawsPipeline::PlanForPost(int post_index,
                                               const PlannerConfig& config,
                                               const RobustParams& robust) const {
  if (model_ == nullptr) {
    return Status::FailedPrecondition("PawsPipeline: Train first");
  }
  return PlanForPostWithModel(*model_, data_.park, data_.history,
                              split_->test_t_begin, post_index, config,
                              robust);
}

void PawsPipeline::SaveModel(ArchiveWriter* ar) const {
  CheckOrDie(model_ != nullptr, "PawsPipeline::SaveModel: Train first");
  const int t = split_->test_t_begin;
  // The serving-side rows carry the lagged coverage from the step before
  // the test year — exactly what PredictRisk / PlanForPost read here.
  const std::vector<double> lagged =
      t > 0 ? data_.history.steps[t - 1].effort
            : std::vector<double>(data_.park.num_cells(), 0.0);
  SaveModelSnapshotParts(*model_, data_.park, lagged, ar);
}

Status PawsPipeline::SaveModel(const std::string& path) const {
  if (model_ == nullptr) {
    return Status::FailedPrecondition("PawsPipeline: Train first");
  }
  ArchiveWriter writer;
  SaveModel(&writer);
  return WriteStringToFile(writer.Bytes(), path);
}

StatusOr<FieldTestResult> PawsPipeline::RunFieldTestTrial(
    const FieldTestConfig& config, Rng* rng) const {
  if (model_ == nullptr) {
    return Status::FailedPrecondition("PawsPipeline: Train first");
  }
  const int t = split_->test_t_begin;
  const RiskMaps maps = PredictRisk(config.nominal_effort_km);
  const std::vector<double> block_risk =
      ConvolveRisk(data_.park, maps.risk, std::max(1, config.block_size / 2),
                   model_config_.parallelism);
  const std::vector<double> historical = data_.history.TotalEffort();
  const std::vector<double>& prev_effort =
      t > 0 ? data_.history.steps[t - 1].effort : historical;
  return RunFieldTest(data_.park, block_risk, historical, data_.attacks,
                      data_.detection, config, t, prev_effort, rng);
}

}  // namespace paws

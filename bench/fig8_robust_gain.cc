// Reproduces Fig. 8: improvement in solution quality from uncertainty-aware
// (robust) patrol planning. For each park and planning site we compute
//   C_beta   = argmax_C sum_v g_v(c_v) - beta * g_v(c_v) * nu_v(c_v)
// and report U_beta(C_beta) / U_beta(C_{beta=0}) as a function of beta
// (Fig. 8a-c) and of PWL segments (Fig. 8d-f), with average and max over
// sites. Planning sites are the park's patrol posts plus two remote
// "mobile camp" locations: the paper plans across entire parks whose
// outskirts are unexplored, and the remote sites reproduce that regime at
// our reduced scale. Also prints the expected-detection improvement against
// the ground-truth attack layer (the paper's "30% more snares").
#include <cstdio>
#include <functional>

#include "core/pipeline.h"
#include "plan/game.h"
#include "solver/pwl.h"
#include "util/csv.h"

namespace {

using namespace paws;

struct SiteContext {
  PlanningGraph graph;
  // Tabulated g / nu per cell (the paper's m x N sampled points): the
  // planner treats this table as its black box. One batched
  // PredictEffortCurves call evaluates the expensive GP ensemble once per
  // (cell, weak learner) and the whole 24-point grid reuses those votes.
  EffortCurveTable curves;
  std::vector<double> true_attack;
};

SiteContext BuildSite(const PawsPipeline& pipeline, const Cell& site,
                      const PlannerConfig& planner) {
  const Park& park = pipeline.data().park;
  const int t = pipeline.test_t_begin();
  SiteContext ctx{BuildPlanningGraph(park, site, 3), {}, {}};
  const double cap = PlannerEffortCap(planner);
  ctx.curves = PredictCellEffortCurves(pipeline.model(), park,
                                       pipeline.data().history, t,
                                       ctx.graph.park_cell_ids,
                                       UniformEffortGrid(0.0, cap, 24));
  for (int id : ctx.graph.park_cell_ids) {
    ctx.true_attack.push_back(
        pipeline.data().attacks.AttackProbability(id, t, 0.0));
  }
  return ctx;
}

// Cells on the frontier between well-patrolled and unexplored territory:
// planning windows there straddle low- and high-uncertainty cells, the
// regime where risk-averse planning changes decisions. (The paper plans
// over whole parks, which contain this frontier by construction.)
std::vector<Cell> FrontierSites(const Park& park, int count) {
  const auto idx = park.FeatureIndex("dist_patrol_post");
  std::vector<Cell> out;
  if (!idx.ok()) return out;
  const GridD& dist = park.feature(idx.value());
  std::vector<std::pair<double, int>> ranked;
  for (int id = 0; id < park.num_cells(); ++id) {
    ranked.emplace_back(dist.At(park.CellOf(id)), id);
  }
  std::sort(ranked.begin(), ranked.end());
  // Walk the 60th-80th percentile band, keeping sites spread apart.
  const size_t lo = ranked.size() * 60 / 100;
  const size_t hi = ranked.size() * 80 / 100;
  for (size_t i = lo; i < hi; ++i) {
    const Cell c = park.CellOf(ranked[i].second);
    bool close = false;
    for (const Cell& s : out) close = close || CellDistance(c, s) < 6.0;
    if (!close) out.push_back(c);
    if (static_cast<int>(out.size()) >= count) break;
  }
  return out;
}

}  // namespace

int main() {
  std::printf("=== Fig. 8: gain from uncertainty-aware planning ===\n");
  CsvWriter csv({"park", "site", "sweep", "x", "ratio"});

  const ParkPreset presets[] = {ParkPreset::kQenp, ParkPreset::kMfnp,
                                ParkPreset::kSws};
  DetectionModel detect_model;

  PlannerConfig planner;
  planner.horizon = 6;
  planner.num_patrols = 3;
  planner.pwl_segments = 10;
  // Non-concave PWL tables become SOS2 sets; a small node budget keeps
  // each solve interactive while segment rounding at the root supplies a
  // good incumbent (gaps are reported in the plan).
  planner.milp.max_nodes = 8;

  for (const ParkPreset preset : presets) {
    const Scenario scenario = MakeScenario(preset, 42);
    ScenarioData data = SimulateScenario(scenario, 7);
    IWareConfig cfg;
    cfg.weak_learner = WeakLearnerKind::kGaussianProcessBagging;
    cfg.num_thresholds = 8;
    cfg.cv_folds = 2;
    cfg.bagging.num_estimators = 5;
    cfg.gp.max_points = 100;
    cfg.bagging.balanced = preset == ParkPreset::kSws;
    PawsPipeline pipeline(std::move(data), cfg);
    Rng rng(11);
    if (!pipeline.Train(&rng).ok()) {
      std::fprintf(stderr, "train failed for %s\n", scenario.name.c_str());
      continue;
    }
    const Park& park = pipeline.data().park;

    std::vector<Cell> sites = park.patrol_posts();
    for (const Cell& remote : FrontierSites(park, 2)) sites.push_back(remote);
    std::vector<SiteContext> contexts;
    for (const Cell& site : sites) {
      contexts.push_back(BuildSite(pipeline, site, planner));
    }

    auto plan_for = [&](const SiteContext& ctx, double beta, int segments) {
      RobustParams params;
      params.beta = beta;
      PlannerConfig p = planner;
      p.pwl_segments = segments;
      // Resample the master 24-point table onto the sweep's PWL grid; no
      // further model evaluations are needed.
      const auto utils = MakeRobustUtilityTables(
          ResampleEffortCurves(ctx.curves,
                               UniformEffortGrid(0.0, PlannerEffortCap(p),
                                                 segments)),
          params);
      return PlanPatrols(ctx.graph, utils, p);
    };
    auto robust_value = [&](const SiteContext& ctx,
                            const std::vector<double>& coverage, double beta) {
      RobustParams params;
      params.beta = beta;
      return RobustObjective(coverage, ctx.curves, params);
    };

    // Baseline plans (beta = 0) per site, reused across both sweeps.
    std::vector<std::vector<double>> c0;
    for (const SiteContext& ctx : contexts) {
      auto plan = plan_for(ctx, 0.0, planner.pwl_segments);
      c0.push_back(plan.ok() ? plan->coverage
                             : std::vector<double>(ctx.graph.num_cells(), 0.0));
    }

    // --- Sweep (a)-(c): beta. ---
    std::printf("\n%s: ratio U_b(C_b)/U_b(C_0) vs beta (avg / max over %d "
                "sites)\n",
                scenario.name.c_str(), static_cast<int>(contexts.size()));
    std::printf("%6s %8s %8s\n", "beta", "avg", "max");
    double snares_gain_sum = 0.0;
    int snares_gain_n = 0;
    for (const double beta : {0.8, 0.9, 1.0}) {  // paper sweeps [0.8, 1.0]
      double sum = 0.0, best = 0.0;
      int n = 0;
      for (size_t si = 0; si < contexts.size(); ++si) {
        auto plan = plan_for(contexts[si], beta, planner.pwl_segments);
        if (!plan.ok()) continue;
        const double u_base = robust_value(contexts[si], c0[si], beta);
        if (u_base <= 1e-9) continue;
        const double ratio =
            robust_value(contexts[si], plan->coverage, beta) / u_base;
        sum += ratio;
        best = std::max(best, ratio);
        ++n;
        csv.AddTextRow({scenario.name, std::to_string(si), "beta",
                        FormatDouble(beta), FormatDouble(ratio)});
        if (beta == 1.0) {
          const auto detect = [&](double c) {
            return detect_model.DetectProbability(c);
          };
          const double snares_robust = ExpectedDetections(
              plan->coverage, contexts[si].true_attack, detect);
          const double snares_base =
              ExpectedDetections(c0[si], contexts[si].true_attack, detect);
          if (snares_base > 1e-9) {
            snares_gain_sum += snares_robust / snares_base;
            ++snares_gain_n;
          }
        }
      }
      if (n > 0) std::printf("%6.2f %8.3f %8.3f\n", beta, sum / n, best);
    }
    if (snares_gain_n > 0) {
      std::printf(
          "ground-truth snare-detection ratio (robust/baseline) at beta=1: "
          "%.2f over %d sites (paper: +30%% detections on average)\n",
          snares_gain_sum / snares_gain_n, snares_gain_n);
    }

    // --- Sweep (d)-(f): PWL segments at beta = 1. ---
    std::printf("%s: ratio vs PWL segments at beta=1 (avg / max)\n",
                scenario.name.c_str());
    std::printf("%6s %8s %8s\n", "segs", "avg", "max");
    for (const int segments : {5, 10, 15}) {
      double sum = 0.0, best = 0.0;
      int n = 0;
      for (size_t si = 0; si < contexts.size(); ++si) {
        auto plan = plan_for(contexts[si], 1.0, segments);
        if (!plan.ok()) continue;
        const double u_base = robust_value(contexts[si], c0[si], 1.0);
        if (u_base <= 1e-9) continue;
        const double ratio =
            robust_value(contexts[si], plan->coverage, 1.0) / u_base;
        sum += ratio;
        best = std::max(best, ratio);
        ++n;
        csv.AddTextRow({scenario.name, std::to_string(si), "segments",
                        std::to_string(segments), FormatDouble(ratio)});
      }
      if (n > 0) std::printf("%6d %8.3f %8.3f\n", segments, sum / n, best);
    }
  }
  std::printf(
      "\nShape check: ratios >= 1 and generally growing with beta — robust\n"
      "plans dominate when the world penalizes uncertainty.\n");
  const auto st = csv.WriteFile("fig8_robust_gain.csv");
  if (!st.ok()) std::fprintf(stderr, "csv: %s\n", st.ToString().c_str());
  return 0;
}

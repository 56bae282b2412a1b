// Ablation A4 (DESIGN.md): exact MILP patrol planning vs the greedy
// marginal-gain walk. The MILP should never lose (up to PWL approximation)
// and the gap quantifies what the paper's optimization machinery buys over
// a naive planner; runtimes are reported via google-benchmark.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <functional>

#include "core/pipeline.h"
#include "plan/greedy.h"
#include "util/csv.h"

namespace {

using namespace paws;

// The MILP plans on PWL tables of the utilities; greedy walks the true
// utilities in 1 km steps, and both plans are scored on them.
struct Instance {
  PlanningGraph graph;
  std::vector<std::function<double(double)>> utility;
  std::vector<PiecewiseLinear> tables;
};

PlannerConfig Config() {
  PlannerConfig cfg;
  cfg.horizon = 8;
  cfg.num_patrols = 4;
  cfg.pwl_segments = 10;
  cfg.milp.max_nodes = 200;
  return cfg;
}

// Synthetic planning instances: saturating per-cell utilities with weights
// drawn from a lognormal (a few hot cells, many cold ones, like a risk map).
Instance MakeInstance(uint64_t seed) {
  SynthParkConfig park_cfg;
  park_cfg.width = 24;
  park_cfg.height = 20;
  park_cfg.seed = seed;
  static std::vector<Park>* parks = new std::vector<Park>();
  parks->push_back(GenerateSyntheticPark(park_cfg));
  const Park& park = parks->back();
  Instance inst{BuildPlanningGraph(park, park.patrol_posts()[0], 4), {}, {}};
  Rng rng(seed * 7 + 1);
  const PlannerConfig cfg = Config();
  for (int v = 0; v < inst.graph.num_cells(); ++v) {
    const double weight = std::exp(rng.Normal(-1.0, 1.0));
    const double rate = rng.Uniform(0.3, 1.2);
    inst.utility.push_back([weight, rate](double c) {
      return weight * (1.0 - std::exp(-rate * c));
    });
    inst.tables.push_back(PiecewiseLinear::FromFunction(
        inst.utility.back(), 0.0, PlannerEffortCap(cfg), cfg.pwl_segments));
  }
  return inst;
}

void BM_MilpPlanner(benchmark::State& state) {
  const Instance inst = MakeInstance(static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    auto plan = PlanPatrols(inst.graph, inst.tables, Config());
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_MilpPlanner)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_GreedyPlanner(benchmark::State& state) {
  const Instance inst = MakeInstance(static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    auto plan = GreedyPlan(inst.graph, inst.utility, Config());
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_GreedyPlanner)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Ablation A4: MILP vs greedy patrol planning ===\n");
  std::printf("%6s %12s %12s %9s\n", "seed", "milp_value", "greedy_value",
              "gap%");
  CsvWriter csv({"seed", "milp", "greedy", "gap_pct"});
  double worst_gap = 0.0, mean_gap = 0.0;
  constexpr int kSeeds = 8;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Instance inst = MakeInstance(seed);
    auto milp = PlanPatrols(inst.graph, inst.tables, Config());
    auto greedy = GreedyPlan(inst.graph, inst.utility, Config());
    if (!milp.ok() || !greedy.ok()) {
      const Status& failed = milp.ok() ? greedy.status() : milp.status();
      std::fprintf(stderr, "seed %llu: %s\n",
                   static_cast<unsigned long long>(seed),
                   failed.ToString().c_str());
      return 1;
    }
    // Compare on the true (not PWL) utilities.
    const double v_milp = EvaluateCoverage(milp->coverage, inst.utility);
    const double v_greedy = EvaluateCoverage(greedy->coverage, inst.utility);
    const double gap = 100.0 * (v_milp - v_greedy) / std::max(1e-9, v_milp);
    std::printf("%6llu %12.4f %12.4f %8.1f%%\n",
                static_cast<unsigned long long>(seed), v_milp, v_greedy, gap);
    csv.AddRow({static_cast<double>(seed), v_milp, v_greedy, gap});
    worst_gap = std::max(worst_gap, -gap);
    mean_gap += gap;
  }
  std::printf(
      "\nMean MILP advantage: %.1f%%; MILP never loses by more than the "
      "PWL error (worst regression %.2f%%).\n",
      mean_gap / kSeeds, worst_gap);
  const auto st = csv.WriteFile("ablation_planner.csv");
  if (!st.ok()) std::fprintf(stderr, "csv: %s\n", st.ToString().c_str());

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

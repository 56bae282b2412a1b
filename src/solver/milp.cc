#include "solver/milp.h"

#include <algorithm>
#include <queue>
#include <vector>

namespace paws {

namespace {

using Sos2Set = LinearProgram::Sos2Set;

// A branch-and-bound node: the set members it fixes at zero.
struct Node {
  std::vector<int> zeroed;
  double lp_bound = 0.0;

  bool operator<(const Node& other) const {
    return lp_bound < other.lp_bound;  // max-heap: best bound first
  }
};

// One set at an LP point. Members at or below the tolerance count as zero
// for the violation and the span; the centre uses every member's value.
struct SetState {
  double outside = 0.0;       // mass outside the heaviest adjacent pair
  int below = 0;              // member nearest at or below the centre
  int first = -1, last = -1;  // nonzero span
};

SetState Inspect(const Sos2Set& set, const std::vector<double>& x,
                 double tol) {
  SetState st;
  double mass = 0.0, pair = 0.0, prev = 0.0, raw_mass = 0.0, moment = 0.0;
  for (int i = 0; i < static_cast<int>(set.vars.size()); ++i) {
    const double raw = std::max(0.0, x[set.vars[i]]);
    const double v = raw > tol ? raw : 0.0;
    if (v > 0.0) {
      if (st.first < 0) st.first = i;
      st.last = i;
    }
    mass += v;
    pair = std::max(pair, prev + v);
    prev = v;
    raw_mass += raw;
    moment += raw * set.weights[i];
  }
  st.outside = mass - pair;
  if (raw_mass > 0.0) {  // centre = sum(x_i * w_i) / sum(x_i)
    st.below = static_cast<int>(std::upper_bound(set.weights.begin(),
                                                 set.weights.end(),
                                                 moment / raw_mass) -
                                set.weights.begin()) -
               1;
  }
  return st;
}

// The set to branch on: the most mass outside its heaviest adjacent pair,
// the first on a tie; -1 when every set is satisfied.
int MostViolated(const std::vector<Sos2Set>& sets,
                 const std::vector<double>& x, double tol,
                 SetState* state = nullptr) {
  int pick = -1;
  double worst = tol;
  for (int s = 0; s < static_cast<int>(sets.size()); ++s) {
    const SetState st = Inspect(sets[s], x, tol);
    if (st.outside > worst) {
      pick = s;
      worst = st.outside;
      if (state != nullptr) *state = st;
    }
  }
  return pick;
}

// Appends to `zeroed` the members [begin, end) of `set` that `lp` still
// leaves free; false when one of them cannot be zero (a positive lower
// bound).
bool ZeroRange(const LinearProgram& lp, const Sos2Set& set, int begin,
               int end, std::vector<int>* zeroed) {
  for (int i = begin; i < end; ++i) {
    const int j = set.vars[i];
    if (lp.lower(j) > 0.0) return false;
    if (lp.upper(j) > 0.0) zeroed->push_back(j);
  }
  return true;
}

}  // namespace

StatusOr<LpSolution> SolveMilp(const LinearProgram& lp,
                               const MilpOptions& options) {
  const std::vector<Sos2Set>& sets = lp.sos2_sets();
  if (sets.empty()) return SolveLp(lp, options.simplex);

  const double tol = options.integrality_tolerance;
  LinearProgram work = lp;  // node bounds are applied here, then restored
  long total_iterations = 0;
  int nodes = 1;
  LpSolution incumbent;  // kInfeasible until a solution satisfies every set
  double best = -kLpInfinity;
  std::priority_queue<Node> open;

  // Solves with `zeroed` fixed at zero. The bounds stay on `work` until
  // restore(), so branching sees which members are still free.
  auto solve = [&](const std::vector<int>& zeroed) {
    for (int j : zeroed) work.SetBounds(j, lp.lower(j), 0.0);
    StatusOr<LpSolution> sol = SolveLp(work, options.simplex);
    if (sol.ok()) total_iterations += sol->simplex_iterations;
    return sol;
  };
  auto restore = [&](const std::vector<int>& zeroed) {
    for (int j : zeroed) work.SetBounds(j, lp.lower(j), lp.upper(j));
  };
  auto accept = [&](const LpSolution& sol) {
    if (sol.objective > best) {
      incumbent = sol;
      best = sol.objective;
    }
  };
  // Takes `sol` as an incumbent if every set is satisfied; otherwise
  // splits the most violated set strictly inside its nonzero span, so both
  // children cut `sol` off. Both keep the split member.
  auto branch = [&](const LpSolution& sol, const Node& node) {
    SetState st;
    const int s = MostViolated(sets, sol.values, tol, &st);
    if (s < 0) {
      accept(sol);
      return;
    }
    const Sos2Set& set = sets[s];
    const int split = std::clamp(st.below, st.first + 1, st.last - 1);
    Node left{node.zeroed, sol.objective};
    Node right = left;
    const int size = static_cast<int>(set.vars.size());
    if (ZeroRange(work, set, split + 1, size, &left.zeroed)) {
      open.push(std::move(left));
    }
    if (ZeroRange(work, set, 0, split, &right.zeroed)) {
      open.push(std::move(right));
    }
  };

  PAWS_ASSIGN_OR_RETURN(LpSolution root, solve({}));
  if (root.status != SolveStatus::kOptimal) return root;

  // Segment rounding: each set keeps the two members bracketing its
  // centre. For a PWL term the centre is the linked variable's value,
  // which those two can still represent, so the rounded LP is feasible.
  if (options.use_rounding_heuristic &&
      MostViolated(sets, root.values, tol) >= 0) {
    std::vector<int> zeroed;
    bool can_round = true;
    for (const Sos2Set& set : sets) {
      const int size = static_cast<int>(set.vars.size());
      const int keep =
          std::max(0, std::min(Inspect(set, root.values, tol).below, size - 2));
      can_round = can_round && ZeroRange(work, set, 0, keep, &zeroed) &&
                  ZeroRange(work, set, keep + 2, size, &zeroed);
    }
    if (can_round) {
      const StatusOr<LpSolution> rounded = solve(zeroed);
      restore(zeroed);
      if (rounded.ok() && rounded->status == SolveStatus::kOptimal &&
          MostViolated(sets, rounded->values, tol) < 0) {
        accept(*rounded);
      }
    }
  }
  branch(root, Node{});

  while (!open.empty() && nodes < options.max_nodes) {
    if (open.top().lp_bound <= best + options.absolute_gap_tolerance) {
      break;  // best-first: every remaining node is dominated
    }
    const Node node = open.top();
    open.pop();
    StatusOr<LpSolution> solved = solve(node.zeroed);
    PAWS_RETURN_IF_ERROR(solved.status());
    ++nodes;
    if (solved->status == SolveStatus::kOptimal &&
        solved->objective > best + options.absolute_gap_tolerance) {
      branch(*solved, node);
    }
    restore(node.zeroed);
  }

  if (incumbent.status != SolveStatus::kOptimal && !open.empty()) {
    return Status::ResourceExhausted(
        "SolveMilp: node limit reached without an incumbent");
  }
  incumbent.simplex_iterations = total_iterations;
  incumbent.nodes_explored = nodes;
  if (!open.empty() &&
      open.top().lp_bound > best + options.absolute_gap_tolerance) {
    incumbent.status = SolveStatus::kFeasibleLimit;
    incumbent.gap = open.top().lp_bound - best;
  }
  return incumbent;
}

}  // namespace paws

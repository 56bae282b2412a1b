#include "plan/graph.h"

#include <deque>
#include <unordered_map>

namespace paws {

namespace {

// The 4-neighbourhood, in the order neighbour lists are built.
constexpr int kDx[4] = {1, -1, 0, 0};
constexpr int kDy[4] = {0, 0, 1, -1};

}  // namespace

PlanningGraph BuildPlanningGraph(const Park& park, const Cell& post,
                                 int radius) {
  CheckOrDie(park.mask().InBounds(post) && park.mask().At(post),
             "BuildPlanningGraph: post outside park");
  CheckOrDie(radius >= 1, "BuildPlanningGraph: radius must be >= 1");

  // BFS from the post collecting cells within the radius. Cells are
  // numbered in visit order, so `park_cell_ids` is the BFS queue itself,
  // and every scratch structure is sized by the graph, not by the park.
  // The post is local cell 0, the graph's source.
  PlanningGraph graph;
  graph.park_cell_ids = {park.DenseIdOf(post)};
  std::unordered_map<int, int> local_of = {{graph.park_cell_ids[0], 0}};
  std::vector<int> dist = {0};
  for (size_t head = 0; head < graph.park_cell_ids.size(); ++head) {
    if (dist[head] >= radius) continue;
    const Cell c = park.CellOf(graph.park_cell_ids[head]);
    for (int k = 0; k < 4; ++k) {
      const Cell n{c.x + kDx[k], c.y + kDy[k]};
      if (!park.mask().InBounds(n) || !park.mask().At(n)) continue;
      const int id = park.DenseIdOf(n);
      const int local = static_cast<int>(graph.park_cell_ids.size());
      if (!local_of.emplace(id, local).second) continue;
      graph.park_cell_ids.push_back(id);
      dist.push_back(dist[head] + 1);
    }
  }

  graph.neighbors.resize(graph.park_cell_ids.size());
  for (size_t i = 0; i < graph.park_cell_ids.size(); ++i) {
    graph.neighbors[i].push_back(static_cast<int>(i));  // waiting allowed
    const Cell c = park.CellOf(graph.park_cell_ids[i]);
    for (int k = 0; k < 4; ++k) {
      const Cell n{c.x + kDx[k], c.y + kDy[k]};
      if (!park.mask().InBounds(n) || !park.mask().At(n)) continue;
      const auto found = local_of.find(park.DenseIdOf(n));
      if (found != local_of.end()) graph.neighbors[i].push_back(found->second);
    }
  }
  return graph;
}

std::vector<int> DistancesFromSource(const PlanningGraph& graph) {
  std::vector<int> dist(graph.num_cells(), -1);
  std::deque<int> queue = {graph.source};
  dist[graph.source] = 0;
  while (!queue.empty()) {
    const int cur = queue.front();
    queue.pop_front();
    for (int n : graph.neighbors[cur]) {
      if (dist[n] == -1) {
        dist[n] = dist[cur] + 1;
        queue.push_back(n);
      }
    }
  }
  return dist;
}

}  // namespace paws

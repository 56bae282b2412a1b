#include "plan/game.h"

namespace paws {

double ExpectedDetections(const std::vector<double>& coverage,
                          const std::vector<double>& attack_prob,
                          const std::function<double(double)>& detect_prob) {
  CheckOrDie(coverage.size() == attack_prob.size(),
             "ExpectedDetections: size mismatch");
  double u = 0.0;
  for (size_t v = 0; v < coverage.size(); ++v) {
    u += detect_prob(coverage[v]) * attack_prob[v];
  }
  return u;
}

}  // namespace paws

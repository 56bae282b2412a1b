#ifndef PAWS_PLAN_GAME_H_
#define PAWS_PLAN_GAME_H_

#include <functional>
#include <vector>

#include "util/status.h"

namespace paws {

/// Green Security Game utilities (paper Sec. VI-A). The defender (rangers)
/// plays a mixed strategy x over patrol paths, inducing per-cell coverage;
/// each cell hosts one boundedly rational adversary (poacher) who may place
/// snares. The defender earns 1 per detected attack, so her expected
/// utility is Eq. 3: U_d = sum_v Pr[o_v = O | a_v = A] Pr[a_v = A].

/// Expected number of detected attacks (snares found), the defender
/// expected utility of Eq. 3. `attack_prob[v]` is Pr[a_v = A];
/// `detect_prob(c)` maps effort to Pr[o = O | a = A]. With the true attack
/// probabilities this is the ground-truth score used to claim the paper's
/// "30% more snares".
double ExpectedDetections(const std::vector<double>& coverage,
                          const std::vector<double>& attack_prob,
                          const std::function<double(double)>& detect_prob);

}  // namespace paws

#endif  // PAWS_PLAN_GAME_H_

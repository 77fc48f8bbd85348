#include "p2pdmt/byzantine.h"

#include <algorithm>

#include "common/rng.h"

namespace p2pdt {

FaultPlanSpec MakeAdversaryPlan(std::size_t num_peers,
                                AdversaryBehavior behavior, double fraction,
                                uint64_t seed) {
  FaultPlanSpec plan;
  if (num_peers == 0 || fraction <= 0.0 ||
      behavior == AdversaryBehavior::kHonest) {
    return plan;
  }
  fraction = std::min(fraction, 1.0);
  std::size_t count = static_cast<std::size_t>(fraction *
                                               static_cast<double>(num_peers));
  if (count == 0) count = 1;  // a positive fraction poisons at least one peer
  Rng rng(DeriveSeed(seed, static_cast<uint64_t>(behavior)));
  std::vector<std::size_t> picks = rng.SampleWithoutReplacement(num_peers,
                                                                count);
  std::sort(picks.begin(), picks.end());
  for (std::size_t p : picks) {
    FaultPlanSpec::Adversary adv;
    adv.node = static_cast<NodeId>(p);
    adv.behavior = behavior;
    plan.adversaries.push_back(adv);
  }
  return plan;
}

}  // namespace p2pdt

#ifndef P2PDT_P2PDMT_BYZANTINE_H_
#define P2PDT_P2PDMT_BYZANTINE_H_

#include <cstddef>
#include <cstdint>

#include "p2psim/fault.h"

namespace p2pdt {

/// Builds a fault plan that turns `fraction` of the peers malicious with
/// the given behavior for the whole run. Victims are a deterministic sample
/// keyed by (seed, behavior), so the same scenario seed always poisons the
/// same peers — and two behaviors at the same fraction poison *different*
/// subsets, which keeps sweep points independent.
FaultPlanSpec MakeAdversaryPlan(std::size_t num_peers,
                                AdversaryBehavior behavior, double fraction,
                                uint64_t seed);

}  // namespace p2pdt

#endif  // P2PDT_P2PDMT_BYZANTINE_H_

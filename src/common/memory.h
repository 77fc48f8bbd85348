#ifndef P2PDT_COMMON_MEMORY_H_
#define P2PDT_COMMON_MEMORY_H_

#include <cstdint>

namespace p2pdt {

/// Peak resident set size of this process in bytes (getrusage ru_maxrss).
/// Monotone over the process lifetime — it never decreases, so per-phase
/// deltas only make sense for phases that grow the footprint. Returns 0 on
/// platforms without the counter.
uint64_t PeakRssBytes();

}  // namespace p2pdt

#endif  // P2PDT_COMMON_MEMORY_H_

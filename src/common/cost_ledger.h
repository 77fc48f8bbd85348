#ifndef P2PDT_COMMON_COST_LEDGER_H_
#define P2PDT_COMMON_COST_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace p2pdt {

/// Scalar operation counters the hot paths charge. X-macro so the struct,
/// arithmetic, and exporters never drift apart when a counter is added.
#define P2PDT_COST_SCALAR_FIELDS(X) \
  X(sparse_dot_calls)               \
  X(sparse_dot_ops)                 \
  X(sparse_dist_calls)              \
  X(sparse_dist_ops)                \
  X(sparse_axpy_ops)                \
  X(kernel_evals)                   \
  X(smo_iterations)                 \
  X(lsh_signature_dots)             \
  X(lsh_probes)                     \
  X(lsh_candidates)                 \
  X(kmeans_distance_evals)          \
  X(serialized_bytes)               \
  X(deserialized_bytes)

/// One block of deterministic operation counts. Every field is a plain
/// uint64 total: integers are additive and commutative, so per-thread
/// blocks summed at a quiesce point are bit-identical for any work
/// partition (serial == parallel) — the property the scale-determinism
/// tests assert. Wire messages and bytes are not here: NetworkStats counts
/// every simulated send once.
struct CostCounts {
#define P2PDT_COST_DECLARE(name) uint64_t name = 0;
  P2PDT_COST_SCALAR_FIELDS(P2PDT_COST_DECLARE)
#undef P2PDT_COST_DECLARE

  CostCounts operator-(const CostCounts& o) const;
  CostCounts& operator+=(const CostCounts& o);
  bool operator==(const CostCounts& o) const = default;

  /// (name, value) pairs for the scalar fields, in declaration order —
  /// the one enumeration exporters and tests iterate.
  std::vector<std::pair<const char*, uint64_t>> Scalars() const;

  /// Canonical `name=value` lines — a cheap bit-exact fingerprint.
  std::string ToString() const;
};

/// Process-wide deterministic cost ledger.
///
/// Counting sites follow the observability null-pointer idiom: disabled
/// (the default) costs one relaxed atomic load per site and charges
/// nothing, so the ledger is behavior- and allocation-neutral. Enabled,
/// each thread charges a thread-local block with plain (non-atomic)
/// increments; Collect() sums every block under the registry mutex.
///
/// Determinism contract: Collect() is only meaningful at a quiesce point —
/// after ParallelFor / ComputeCommitPhase joins — where the pool's
/// completion handshake gives the driver a happens-before edge over every
/// worker charge. Counters are cumulative and never reset; callers diff two
/// Collect() snapshots to cost a phase, exactly like MetricsSnapshot.
class CostLedger {
 public:
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Returns the previous state so scopes can restore it.
  static bool SetEnabled(bool on);

  /// This thread's block; callers gate on enabled() first so the TLS
  /// registration cost is only ever paid by instrumented runs.
  static CostCounts& Tls();

  /// Sum of every thread's block since process start (see class comment
  /// for when this is deterministic).
  static CostCounts Collect();

 private:
  static std::atomic<bool> enabled_;
};

/// Enables the ledger for a scope and restores the prior state on exit.
class ScopedCostLedger {
 public:
  explicit ScopedCostLedger(bool on) : prev_(CostLedger::SetEnabled(on)) {}
  ~ScopedCostLedger() { CostLedger::SetEnabled(prev_); }
  ScopedCostLedger(const ScopedCostLedger&) = delete;
  ScopedCostLedger& operator=(const ScopedCostLedger&) = delete;

 private:
  bool prev_;
};

}  // namespace p2pdt

#endif  // P2PDT_COMMON_COST_LEDGER_H_

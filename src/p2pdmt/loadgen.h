#ifndef P2PDT_P2PDMT_LOADGEN_H_
#define P2PDT_P2PDMT_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "ml/dataset.h"
#include "p2pml/p2p_classifier.h"
#include "p2psim/simulator.h"

namespace p2pdt {

/// The shared per-request tagging-latency histogram family. bench_latency
/// and the overload SLO harness both observe into (and quote percentiles
/// from) this exact path, so LAT and OVER1 rows are directly comparable.
Histogram& TaggingLatencyHistogram(MetricsRegistry& metrics,
                                   const std::string& classifier);

/// A scripted arrival-rate spike concentrated on a hot document region —
/// the flash crowd. While active, the offered rate is multiplied by
/// `rate_multiplier` and `hot_fraction` of requests target a Zipf draw over
/// the `hot_docs` most popular documents instead of the full catalog.
struct FlashCrowdBurst {
  double start = 0.0;     // sim seconds after the replay starts
  double duration = 0.0;  // sim seconds
  double rate_multiplier = 1.0;
  double hot_fraction = 0.8;
  std::size_t hot_docs = 8;
};

/// Mean think time (sim seconds) between a closed-loop session's answer and
/// its next request.
inline constexpr double kThinkTime = 0.05;

struct LoadGenOptions {
  bool enabled = false;
  /// Concurrent user sessions replayed.
  std::size_t sessions = 64;
  /// Documents tagged per session, drawn uniformly from [min, max] per
  /// session (paper-scale: a user tags 50-200 docs).
  std::size_t min_docs = 50;
  std::size_t max_docs = 200;
  /// Closed loop: each session waits for the previous answer plus a think
  /// time (kThinkTime) before issuing the next request. Open loop
  /// (default): requests arrive on a Poisson schedule regardless of
  /// completions — the mode that actually overloads a server.
  bool closed_loop = false;
  /// Aggregate offered request rate across all sessions (requests per sim
  /// second), split evenly between sessions; bursts multiply it.
  double arrival_rate = 50.0;
  /// Zipf exponent of document popularity (Golder & Huberman's tag law).
  double zipf_s = 1.1;
  std::vector<FlashCrowdBurst> bursts;
  /// Per-request latency SLO (sim seconds): answers beyond it do not count
  /// toward goodput.
  double slo_latency = 1.0;
  /// Client retries after a typed overload reject (with backoff).
  std::size_t max_retries = 1;
  double retry_backoff = 0.5;
  uint64_t seed = 0xF1A5;
};

/// Aggregate outcome of one load-generation run.
struct LoadGenResult {
  uint64_t offered = 0;    // requests issued (excluding retries)
  uint64_t completed = 0;  // requests that got a final answer
  uint64_t ok = 0;         // full-quality successes
  uint64_t cached = 0;     // answered from the prediction cache
  uint64_t degraded = 0;   // degraded local-model fallback answers
  uint64_t failed = 0;     // no answer (give-up / unreachable)
  uint64_t shed = 0;       // typed overload rejects observed (pre-retry)
  uint64_t retries = 0;    // retries issued after overload rejects
  uint64_t within_slo = 0; // successes inside the latency SLO
  double p50_latency = 0.0;
  double p95_latency = 0.0;
  double p99_latency = 0.0;
  double max_latency = 0.0;
  /// Sim-time span from first issue to last completion.
  double makespan = 0.0;
  /// Successful answers within SLO per sim second of makespan — the
  /// headline "goodput within SLO" the defended arm must sustain.
  double goodput_within_slo = 0.0;
  /// Order-independent digest over (tags, scores, outcome, latency) of
  /// every completed request — the determinism witness.
  uint64_t fingerprint = 0;
};

// ---------------------------------------------------------------------------
// Schedule primitives. Every random choice is keyed by
// DeriveSeed(seed, session, request), so the schedule is a pure function of
// the options — the in-sim SessionLoadGenerator and the real-socket
// SocketLoadGenerator draw the *same* sessions, arrivals, documents and
// retry jitter from these, which is what makes service-mode results
// comparable to OVER1 rows.

/// Per-session request counts: UniformInt[min_docs, max_docs] keyed by
/// DeriveSeed(seed, session).
std::vector<std::size_t> LoadGenSessionLengths(const LoadGenOptions& options);

/// Burst rate multiplier in effect `t` seconds after replay start.
double LoadGenBurstMultiplier(const LoadGenOptions& options, double t);

/// Burst active at `t` (redirects a fraction of picks to the hot set), or
/// nullptr.
const FlashCrowdBurst* LoadGenActiveBurst(const LoadGenOptions& options,
                                          double t);

/// The Zipf samplers document picks draw from: one over the whole catalog
/// and one per burst over its hot set (`hot[b]` for `options.bursts[b]`).
/// Each is an O(catalog) inverse-CDF table, so a replay builds them once and
/// every pick is an O(log n) draw. A catalog of 0 documents builds
/// one-document tables that are never drawn from.
struct LoadGenDocSamplers {
  LoadGenDocSamplers(const LoadGenOptions& options, std::size_t catalog_size);

  ZipfSampler catalog;
  std::vector<ZipfSampler> hot;
};

/// Document index (into a popularity-ordered catalog) for request
/// (session, idx) issued `t` seconds into the replay. `samplers` must have
/// been built from these `options`.
std::size_t LoadGenPickDoc(const LoadGenOptions& options,
                           const LoadGenDocSamplers& samplers,
                           std::size_t session, std::size_t idx, double t);

/// The whole open-loop Poisson arrival schedule for one session: offset (in
/// seconds after replay start) of each of its `session_len` requests. The
/// gap before request i shrinks by the burst multiplier in effect at the
/// previous arrival.
std::vector<double> LoadGenOpenLoopOffsets(const LoadGenOptions& options,
                                           std::size_t session,
                                           std::size_t session_len);

/// Jittered client backoff after the attempt-th overload reject of
/// (session, idx).
double LoadGenRetryDelay(const LoadGenOptions& options, std::size_t session,
                         std::size_t idx, std::size_t attempt);

/// Replays user tagging sessions against a trained classifier inside the
/// simulator. Deterministic: every random choice (session length, arrival
/// gap, document pick, retry jitter) draws from the schedule primitives
/// above, so two runs with the same options produce bit-identical request
/// schedules and fingerprints at any thread count.
class SessionLoadGenerator {
 public:
  /// `docs` is the request catalog in popularity order (index 0 = most
  /// popular); `requesters` are the peers sessions issue from (session s
  /// uses requesters[s % size]). Both must outlive Run's completion.
  SessionLoadGenerator(Simulator& sim, P2PClassifier& algo,
                       LoadGenOptions options,
                       std::vector<const SparseVector*> docs,
                       std::vector<NodeId> requesters,
                       MetricsRegistry& metrics);

  /// Schedules every session and fires `on_complete` (in sim time) when
  /// all requests have completed. Call once.
  void Run(std::function<void(const LoadGenResult&)> on_complete);

 private:
  /// Burst rate multiplier in effect `t` seconds after the replay started.
  double BurstMultiplier(double t) const;
  /// Document index for request (session, idx) issued `t` seconds into the
  /// replay.
  std::size_t PickDoc(std::size_t session, std::size_t idx, double t) const;
  /// `issued_at` is the absolute sim time the request FIRST issued at; it is
  /// ignored (re-stamped from the clock) when attempt == 0.
  void IssueRequest(std::size_t session, std::size_t idx, double issued_at,
                    std::size_t attempt);
  void OnOutcome(std::size_t session, std::size_t idx, double first_issued,
                 std::size_t attempt, P2PPrediction p);
  void FinishIfDone();

  Simulator& sim_;
  P2PClassifier& algo_;
  LoadGenOptions options_;
  std::vector<const SparseVector*> docs_;
  LoadGenDocSamplers doc_samplers_;
  std::vector<NodeId> requesters_;
  Histogram& latency_hist_;
  std::vector<std::size_t> session_len_;
  std::size_t outstanding_ = 0;
  bool all_scheduled_ = false;
  /// Sim time Run() was called; schedule offsets and burst windows are
  /// relative to it.
  double start_ = 0.0;
  double first_issue_ = 0.0;
  double last_complete_ = 0.0;
  LoadGenResult result_;
  std::function<void(const LoadGenResult&)> on_complete_;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PDMT_LOADGEN_H_

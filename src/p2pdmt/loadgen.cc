#include "p2pdmt/loadgen.h"

#include <algorithm>
#include <utility>

#include "common/fnv.h"
#include "common/rng.h"

namespace p2pdt {

namespace {

// Distinct DeriveSeed domains so the arrival, document, and retry streams
// never alias even for the same (session, request) pair.
constexpr uint64_t kDocStream = 0xD0Cull;
constexpr uint64_t kRetryStream = 0x7E7ull;

}  // namespace

Histogram& TaggingLatencyHistogram(MetricsRegistry& metrics,
                                   const std::string& classifier) {
  return metrics.GetHistogram("tagging_latency_seconds",
                              {{"classifier", classifier}});
}

std::vector<std::size_t> LoadGenSessionLengths(const LoadGenOptions& options) {
  std::vector<std::size_t> lengths(options.sessions);
  for (std::size_t s = 0; s < options.sessions; ++s) {
    Rng rng(DeriveSeed(options.seed, s));
    lengths[s] = static_cast<std::size_t>(rng.UniformInt(
        static_cast<int64_t>(options.min_docs),
        static_cast<int64_t>(std::max(options.max_docs, options.min_docs))));
  }
  return lengths;
}

double LoadGenBurstMultiplier(const LoadGenOptions& options, double t) {
  double mult = 1.0;
  for (const FlashCrowdBurst& b : options.bursts) {
    if (t >= b.start && t < b.start + b.duration) mult *= b.rate_multiplier;
  }
  return mult;
}

const FlashCrowdBurst* LoadGenActiveBurst(const LoadGenOptions& options,
                                          double t) {
  for (const FlashCrowdBurst& b : options.bursts) {
    if (t >= b.start && t < b.start + b.duration) return &b;
  }
  return nullptr;
}

LoadGenDocSamplers::LoadGenDocSamplers(const LoadGenOptions& options,
                                       std::size_t catalog_size)
    : catalog(std::max<std::size_t>(catalog_size, 1), options.zipf_s) {
  hot.reserve(options.bursts.size());
  for (const FlashCrowdBurst& b : options.bursts) {
    hot.emplace_back(std::clamp<std::size_t>(b.hot_docs, 1,
                                             std::max<std::size_t>(
                                                 catalog_size, 1)),
                     options.zipf_s);
  }
}

std::size_t LoadGenPickDoc(const LoadGenOptions& options,
                           const LoadGenDocSamplers& samplers,
                           std::size_t session, std::size_t idx, double t) {
  Rng rng(DeriveSeed(options.seed ^ kDocStream, session, idx));
  if (const FlashCrowdBurst* burst = LoadGenActiveBurst(options, t)) {
    if (rng.Bernoulli(burst->hot_fraction)) {
      const std::size_t b =
          static_cast<std::size_t>(burst - options.bursts.data());
      return static_cast<std::size_t>(samplers.hot[b].Sample(rng));
    }
  }
  return static_cast<std::size_t>(samplers.catalog.Sample(rng));
}

std::vector<double> LoadGenOpenLoopOffsets(const LoadGenOptions& options,
                                           std::size_t session,
                                           std::size_t session_len) {
  const double per_session_rate =
      options.arrival_rate / static_cast<double>(options.sessions);
  std::vector<double> offsets;
  offsets.reserve(session_len);
  double t = 0.0;
  for (std::size_t i = 0; i < session_len; ++i) {
    Rng rng(DeriveSeed(options.seed, session, i));
    const double rate = per_session_rate * LoadGenBurstMultiplier(options, t);
    t += rng.Exponential(1.0 / std::max(rate, 1e-9));
    offsets.push_back(t);
  }
  return offsets;
}

double LoadGenRetryDelay(const LoadGenOptions& options, std::size_t session,
                         std::size_t idx, std::size_t attempt) {
  Rng rng(DeriveSeed(options.seed ^ kRetryStream, session,
                     idx * 16 + attempt));
  return options.retry_backoff * rng.Uniform(1.0, 1.5);
}

SessionLoadGenerator::SessionLoadGenerator(
    Simulator& sim, P2PClassifier& algo, LoadGenOptions options,
    std::vector<const SparseVector*> docs, std::vector<NodeId> requesters,
    MetricsRegistry& metrics)
    : sim_(sim),
      algo_(algo),
      options_(std::move(options)),
      docs_(std::move(docs)),
      doc_samplers_(options_, docs_.size()),
      requesters_(std::move(requesters)),
      latency_hist_(TaggingLatencyHistogram(metrics, algo.name())) {}

double SessionLoadGenerator::BurstMultiplier(double t) const {
  return LoadGenBurstMultiplier(options_, t);
}

std::size_t SessionLoadGenerator::PickDoc(std::size_t session, std::size_t idx,
                                          double t) const {
  return LoadGenPickDoc(options_, doc_samplers_, session, idx, t);
}

void SessionLoadGenerator::Run(
    std::function<void(const LoadGenResult&)> on_complete) {
  on_complete_ = std::move(on_complete);
  start_ = sim_.Now();  // burst windows are relative to load start
  if (docs_.empty() || requesters_.empty() || options_.sessions == 0) {
    all_scheduled_ = true;
    FinishIfDone();
    return;
  }

  session_len_ = LoadGenSessionLengths(options_);
  std::size_t total = 0;
  for (std::size_t len : session_len_) total += len;
  outstanding_ = total;
  result_.offered = total;
  first_issue_ = -1.0;

  for (std::size_t s = 0; s < options_.sessions; ++s) {
    if (options_.closed_loop) {
      // First request after one think interval; the chain continues from
      // OnOutcome as each answer lands.
      Rng rng(DeriveSeed(options_.seed, s, 0));
      const double t0 = rng.Exponential(kThinkTime);
      sim_.Schedule(t0, [this, s] { IssueRequest(s, 0, /*issued_at=*/0.0, 0); });
    } else {
      // Open loop: the whole Poisson schedule is computed up front, so a
      // flash crowd compresses arrivals without making the schedule depend
      // on completions.
      const std::vector<double> offsets =
          LoadGenOpenLoopOffsets(options_, s, session_len_[s]);
      for (std::size_t i = 0; i < session_len_[s]; ++i) {
        sim_.Schedule(offsets[i],
                      [this, s, i] { IssueRequest(s, i, /*issued_at=*/0.0, 0); });
      }
    }
  }
  all_scheduled_ = true;
}

void SessionLoadGenerator::IssueRequest(std::size_t session, std::size_t idx,
                                        double issued_at, std::size_t attempt) {
  const double now = sim_.Now();
  if (first_issue_ < 0.0) first_issue_ = now;
  // A fresh request is stamped with the sim time it actually issues at (the
  // schedule offsets are relative to Run(), which rarely starts at sim time
  // zero — training ran first). Retries keep the original stamp so latency
  // covers the whole reject-backoff-retry arc.
  const double issued = attempt == 0 ? now : issued_at;
  const std::size_t doc = PickDoc(session, idx, now - start_);
  const NodeId requester = requesters_[session % requesters_.size()];
  algo_.Predict(requester, *docs_[doc],
                [this, session, idx, issued, attempt](P2PPrediction p) {
                  OnOutcome(session, idx, issued, attempt, std::move(p));
                });
}

void SessionLoadGenerator::OnOutcome(std::size_t session, std::size_t idx,
                                     double first_issued, std::size_t attempt,
                                     P2PPrediction p) {
  if (p.overloaded) {
    ++result_.shed;
    if (attempt < options_.max_retries) {
      // Client-side backoff after a typed overload reject; jittered so a
      // synchronized crowd does not re-arrive as a synchronized crowd.
      ++result_.retries;
      const double delay = LoadGenRetryDelay(options_, session, idx, attempt);
      sim_.Schedule(delay, [this, session, idx, first_issued, attempt] {
        IssueRequest(session, idx, first_issued, attempt + 1);
      });
      return;
    }
  }

  const double now = sim_.Now();
  const double latency = now - first_issued;
  ++result_.completed;
  last_complete_ = std::max(last_complete_, now);

  const bool answered = p.success && !p.overloaded;
  if (!answered) {
    ++result_.failed;
  } else {
    if (p.cached) {
      ++result_.cached;
    } else if (p.degraded) {
      ++result_.degraded;
    } else {
      ++result_.ok;
    }
    latency_hist_.Observe(latency);
    result_.max_latency = std::max(result_.max_latency, latency);
    if (latency <= options_.slo_latency) ++result_.within_slo;
  }

  // Order-independent: per-request digests are summed, so the fingerprint
  // is invariant to completion interleaving across thread counts.
  Fnv64 h;
  h.Mix(static_cast<uint64_t>(session));
  h.Mix(static_cast<uint64_t>(idx));
  h.Mix(static_cast<uint64_t>(answered ? (p.cached ? 2 : p.degraded ? 3 : 1)
                                       : 0));
  h.MixDouble(latency);
  for (TagId t : p.tags) h.Mix(static_cast<uint64_t>(t));
  for (double s : p.scores) h.MixDouble(s);
  result_.fingerprint += h.state;

  --outstanding_;

  if (options_.closed_loop && idx + 1 < session_len_[session]) {
    Rng rng(DeriveSeed(options_.seed, session, idx + 1));
    const double mult = std::max(BurstMultiplier(now - start_), 1e-9);
    const double gap = rng.Exponential(kThinkTime) / mult;
    sim_.Schedule(gap, [this, session, idx] {
      IssueRequest(session, idx + 1, /*issued_at=*/0.0, 0);
    });
  }

  FinishIfDone();
}

void SessionLoadGenerator::FinishIfDone() {
  if (!all_scheduled_ || outstanding_ != 0) return;
  result_.p50_latency = latency_hist_.Quantile(0.5);
  result_.p95_latency = latency_hist_.Quantile(0.95);
  result_.p99_latency = latency_hist_.Quantile(0.99);
  const double span = last_complete_ - std::max(first_issue_, 0.0);
  result_.makespan = span;
  result_.goodput_within_slo =
      span > 0.0 ? static_cast<double>(result_.within_slo) / span : 0.0;
  if (on_complete_) {
    auto cb = std::move(on_complete_);
    on_complete_ = nullptr;
    cb(result_);
  }
}

}  // namespace p2pdt

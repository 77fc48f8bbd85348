#include "p2pdmt/service_loadgen.h"

#include <poll.h>

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/fnv.h"
#include "common/logging.h"
#include "common/rng.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/frame.h"

namespace p2pdt {

namespace {

uint64_t RequestId(std::size_t session, std::size_t idx, std::size_t attempt) {
  return (static_cast<uint64_t>(session) << 32) |
         (static_cast<uint64_t>(idx) << 8) | static_cast<uint64_t>(attempt);
}

/// A request due for issue `when` schedule-seconds after replay start.
struct IssueEvent {
  double when = 0.0;
  std::size_t session = 0;
  std::size_t idx = 0;
  std::size_t attempt = 0;
  /// Wall time the first attempt was due (< 0: this is the first attempt,
  /// due at start_ + when). Retries keep it so latency covers the whole
  /// reject-backoff-retry arc, like the in-sim generator.
  double first_due = -1.0;
};

struct IssueEventLater {
  bool operator()(const IssueEvent& a, const IssueEvent& b) const {
    if (a.when != b.when) return a.when > b.when;
    if (a.session != b.session) return a.session > b.session;
    return a.idx > b.idx;
  }
};

struct Pending {
  std::size_t session = 0;
  std::size_t idx = 0;
  std::size_t attempt = 0;
  double first_due = 0.0;
};

struct SessionConn {
  ServiceClient client;
  bool alive = false;
};

class Replay {
 public:
  Replay(const ServiceLoadOptions& options,
         const std::vector<SparseVector>& catalog)
      : options_(options),
        catalog_(catalog),
        doc_samplers_(options.schedule, catalog.size()) {}

  Result<ServiceLoadResult> Run();

 private:
  /// Latency is timed from the due time, not the send, so a stalled
  /// driver shows up in the latencies instead of hiding in them.
  double FirstDue(const IssueEvent& ev) const {
    return ev.first_due < 0.0 ? start_ + ev.when : ev.first_due;
  }
  Status IssueOne(const IssueEvent& ev, double now);
  void RecordFinal(const Pending& p, int outcome_class,
                   const std::vector<uint32_t>& tags,
                   const std::vector<double>& scores, double now);
  void ChainClosedLoop(const Pending& p, double now);
  void FailSession(std::size_t session, double now);
  Status HandleFrame(std::size_t session, const Frame& frame, double now);

  const ServiceLoadOptions& options_;
  const std::vector<SparseVector>& catalog_;
  const LoadGenDocSamplers doc_samplers_;
  std::vector<SessionConn> conns_;
  std::vector<std::size_t> lengths_;
  std::priority_queue<IssueEvent, std::vector<IssueEvent>, IssueEventLater>
      due_;
  std::unordered_map<uint64_t, Pending> pending_;
  std::vector<double> latencies_;
  ServiceLoadResult result_;
  std::size_t remaining_ = 0;
  double start_ = 0.0;
  double first_issue_ = -1.0;
  double last_complete_ = 0.0;
};

Status Replay::IssueOne(const IssueEvent& ev, double now) {
  SessionConn& conn = conns_[ev.session];
  if (!conn.alive) {
    Status st = conn.client.Connect(options_.host, options_.port,
                                    options_.io_timeout);
    if (!st.ok()) {
      ++result_.io_errors;
      Pending p{ev.session, ev.idx, ev.attempt, FirstDue(ev)};
      RecordFinal(p, /*outcome_class=*/0, {}, {}, now);
      return Status::OK();
    }
    conn.alive = true;
    ++result_.reconnects;
  }

  // Document choice keys off the *scheduled* offset, not the (jittery)
  // wall fire time — identical picks to the in-sim replay of the same
  // schedule.
  const std::size_t doc = LoadGenPickDoc(options_.schedule, doc_samplers_,
                                         ev.session, ev.idx, ev.when);
  PredictRequest request;
  request.id = RequestId(ev.session, ev.idx, ev.attempt);
  request.requester = ev.session;
  request.doc = catalog_[doc];
  const double first = FirstDue(ev);
  if (first_issue_ < 0.0) first_issue_ = now;
  const Status sent = conn.client.SendFrame(FrameType::kPredictRequest,
                                            EncodePredictRequest(request));
  if (!sent.ok()) {
    conn.alive = false;
    ++result_.io_errors;
    FailSession(ev.session, now);
    RecordFinal(Pending{ev.session, ev.idx, ev.attempt, first}, 0, {}, {},
                now);
    return Status::OK();
  }
  pending_[request.id] = Pending{ev.session, ev.idx, ev.attempt, first};
  return Status::OK();
}

void Replay::RecordFinal(const Pending& p, int outcome_class,
                         const std::vector<uint32_t>& tags,
                         const std::vector<double>& scores, double now) {
  ++result_.load.completed;
  last_complete_ = std::max(last_complete_, now);
  const double latency = now - p.first_due;
  switch (outcome_class) {
    case 0:
      ++result_.load.failed;
      break;
    case 1:
      ++result_.load.ok;
      break;
    case 2:
      ++result_.load.cached;
      break;
    case 3:
      ++result_.load.degraded;
      break;
  }
  if (outcome_class != 0) {
    latencies_.push_back(latency);
    result_.load.max_latency = std::max(result_.load.max_latency, latency);
    if (latency <= options_.schedule.slo_latency) ++result_.load.within_slo;
  }

  // The socket fingerprint deliberately omits latency (wall clocks are not
  // deterministic); it digests identity + outcome + answer bits only.
  Fnv64 h;
  h.Mix(static_cast<uint64_t>(p.session));
  h.Mix(static_cast<uint64_t>(p.idx));
  h.Mix(static_cast<uint64_t>(outcome_class));
  for (uint32_t t : tags) h.Mix(static_cast<uint64_t>(t));
  for (double s : scores) h.MixDouble(s);
  result_.load.fingerprint += h.state;

  --remaining_;
  ChainClosedLoop(p, now);
}

void Replay::ChainClosedLoop(const Pending& p, double now) {
  if (!options_.schedule.closed_loop) return;
  if (p.idx + 1 >= lengths_[p.session]) return;
  Rng rng(DeriveSeed(options_.schedule.seed, p.session, p.idx + 1));
  const double mult = std::max(
      LoadGenBurstMultiplier(options_.schedule, now - start_), 1e-9);
  const double gap = rng.Exponential(kThinkTime) / mult;
  due_.push(IssueEvent{now - start_ + gap, p.session, p.idx + 1, 0, -1.0});
}

void Replay::FailSession(std::size_t session, double now) {
  std::vector<uint64_t> dead;
  for (const auto& [id, p] : pending_) {
    if (p.session == session) dead.push_back(id);
  }
  for (uint64_t id : dead) {
    Pending p = pending_[id];
    pending_.erase(id);
    RecordFinal(p, /*outcome_class=*/0, {}, {}, now);
  }
}

Status Replay::HandleFrame(std::size_t /*session*/, const Frame& frame,
                           double now) {
  switch (frame.type) {
    case FrameType::kPredictResponse: {
      Result<PredictResponse> resp = DecodePredictResponse(frame.payload);
      P2PDT_RETURN_IF_ERROR(resp.status());
      auto it = pending_.find(resp->id);
      if (it == pending_.end()) {
        return Status::DataLoss("response for unknown request id");
      }
      Pending p = it->second;
      pending_.erase(it);
      const int outcome_class =
          !resp->success ? 0 : resp->cached ? 2 : resp->degraded ? 3 : 1;
      RecordFinal(p, outcome_class, resp->tags, resp->scores, now);
      return Status::OK();
    }
    case FrameType::kOverload: {
      Result<OverloadReject> rej = DecodeOverloadReject(frame.payload);
      P2PDT_RETURN_IF_ERROR(rej.status());
      auto it = pending_.find(rej->id);
      if (it == pending_.end()) {
        return Status::DataLoss("overload reject for unknown request id");
      }
      Pending p = it->second;
      pending_.erase(it);
      ++result_.load.shed;
      if (p.attempt < options_.schedule.max_retries) {
        ++result_.load.retries;
        const double delay =
            LoadGenRetryDelay(options_.schedule, p.session, p.idx, p.attempt);
        due_.push(IssueEvent{now - start_ + delay, p.session, p.idx,
                             p.attempt + 1, p.first_due});
      } else {
        RecordFinal(p, /*outcome_class=*/0, {}, {}, now);
      }
      return Status::OK();
    }
    case FrameType::kError: {
      // The generator only sends valid frames; a protocol error back is a
      // daemon bug and fails the replay loudly.
      Result<ErrorReject> rej = DecodeErrorReject(frame.payload);
      const std::string detail =
          rej.ok() ? rej->message : rej.status().message();
      return Status::DataLoss("daemon rejected a valid request: " + detail);
    }
    default:
      return Status::DataLoss(
          std::string("unexpected frame from daemon: ") +
          FrameTypeToString(frame.type));
  }
}

Result<ServiceLoadResult> Replay::Run() {
  const LoadGenOptions& sched = options_.schedule;
  if (catalog_.empty() || sched.sessions == 0) {
    return Status::InvalidArgument(
        "socket replay needs a catalog and at least one session");
  }

  lengths_ = LoadGenSessionLengths(sched);
  std::size_t total = 0;
  for (std::size_t len : lengths_) total += len;
  result_.load.offered = total;
  remaining_ = total;

  conns_.resize(sched.sessions);

  for (std::size_t s = 0; s < sched.sessions; ++s) {
    if (sched.closed_loop) {
      Rng rng(DeriveSeed(sched.seed, s, 0));
      due_.push(IssueEvent{rng.Exponential(kThinkTime), s, 0, 0, -1.0});
    } else {
      const std::vector<double> offsets =
          LoadGenOpenLoopOffsets(sched, s, lengths_[s]);
      for (std::size_t i = 0; i < lengths_[s]; ++i) {
        due_.push(IssueEvent{offsets[i], s, i, 0, -1.0});
      }
    }
  }

  start_ = MonotonicSeconds();
  const double deadline = start_ + options_.max_wall_seconds;

  std::vector<struct pollfd> pfds;
  std::vector<std::size_t> pfd_session;

  while (remaining_ > 0) {
    const double now = MonotonicSeconds();
    if (now > deadline) {
      // Safety net: a wedged daemon must fail the replay, not hang it.
      P2PDT_LOG(Warning) << "socket replay wall deadline hit with "
                         << remaining_ << " requests unresolved";
      for (std::size_t s = 0; s < conns_.size(); ++s) FailSession(s, now);
      while (!due_.empty()) {
        const IssueEvent ev = due_.top();
        due_.pop();
        RecordFinal(Pending{ev.session, ev.idx, ev.attempt, FirstDue(ev)}, 0,
                    {}, {}, now);
      }
      break;
    }

    // Fire everything due.
    while (!due_.empty() && due_.top().when <= now - start_) {
      const IssueEvent ev = due_.top();
      due_.pop();
      P2PDT_RETURN_IF_ERROR(IssueOne(ev, MonotonicSeconds()));
    }
    if (remaining_ == 0) break;

    // Wait for responses or the next arrival, whichever is first.
    pfds.clear();
    pfd_session.clear();
    for (std::size_t s = 0; s < conns_.size(); ++s) {
      if (!conns_[s].alive) continue;
      struct pollfd pfd;
      pfd.fd = conns_[s].client.fd();
      pfd.events = POLLIN;
      pfd.revents = 0;
      pfds.push_back(pfd);
      pfd_session.push_back(s);
    }
    int timeout_ms = 100;
    if (!due_.empty()) {
      const double until = due_.top().when - (MonotonicSeconds() - start_);
      timeout_ms = std::max(0, std::min(1000, static_cast<int>(until * 1e3)));
    }
    if (!pfds.empty()) {
      poll(pfds.data(), pfds.size(), timeout_ms);
    } else if (timeout_ms > 0 && due_.empty() && pending_.empty()) {
      // Nothing in flight and nothing scheduled but remaining_ > 0: every
      // path records an outcome, so this cannot happen; guard anyway.
      return Status::Internal("socket replay stalled with no work");
    }

    const double read_now = MonotonicSeconds();
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      const std::size_t s = pfd_session[i];
      SessionConn& conn = conns_[s];
      const Status io = conn.client.ReadAvailable();
      Frame frame;
      while (conn.client.PollFrame(frame)) {
        P2PDT_RETURN_IF_ERROR(HandleFrame(s, frame, read_now));
      }
      if (!io.ok() || conn.client.eof()) {
        // Daemon closed or reset this connection (reap, drain, hard cap).
        conn.alive = false;
        ++result_.io_errors;
        FailSession(s, read_now);
      }
    }
  }

  const double end = MonotonicSeconds();
  result_.wall_seconds = end - start_;
  std::sort(latencies_.begin(), latencies_.end());
  auto quantile = [&](double q) {
    if (latencies_.empty()) return 0.0;
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(latencies_.size())));
    return latencies_[std::min(latencies_.size() - 1,
                               rank == 0 ? 0 : rank - 1)];
  };
  result_.load.p50_latency = quantile(0.5);
  result_.load.p95_latency = quantile(0.95);
  result_.load.p99_latency = quantile(0.99);
  const double span = last_complete_ - std::max(first_issue_, 0.0);
  result_.load.makespan = span > 0.0 ? span : 0.0;
  result_.load.goodput_within_slo =
      span > 0.0 ? static_cast<double>(result_.load.within_slo) / span : 0.0;
  result_.achieved_rate =
      result_.wall_seconds > 0.0
          ? static_cast<double>(result_.load.completed) / result_.wall_seconds
          : 0.0;
  return result_;
}

}  // namespace

Result<ServiceLoadResult> RunServiceLoad(
    const ServiceLoadOptions& options,
    const std::vector<SparseVector>& catalog) {
  Replay replay(options, catalog);
  return replay.Run();
}

}  // namespace p2pdt

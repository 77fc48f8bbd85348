#include "driver.h"

#include <poll.h>
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <numeric>
#include <thread>

#include "net/client.h"
#include "net/event_loop.h"
#include "net/frame.h"

namespace servebench {

using p2pdt::Frame;
using p2pdt::FrameType;
using p2pdt::MonotonicSeconds;
using p2pdt::ServiceClient;
using p2pdt::Status;

namespace {

constexpr double kIdleTimeout = 30.0;

uint64_t Fnv(uint64_t state, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    state ^= p[i];
    state *= 0x100000001b3ull;
  }
  return state;
}

class Driver {
 public:
  Driver(const std::vector<Request>& requests, const DriverOptions& options)
      : requests_(requests),
        options_(options),
        clients_(kConnections),
        queue_(kConnections),
        next_(kConnections, 0),
        inflight_(kConnections),
        dead_(kConnections, false) {
    result_.answers.resize(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      queue_[requests[i].requester % kConnections].push_back(i);
    }
    if (options.open_loop) {
      order_.resize(requests.size());
      std::iota(order_.begin(), order_.end(), 0);
      std::stable_sort(order_.begin(), order_.end(),
                       [&](std::size_t a, std::size_t b) {
                         return requests[a].offset < requests[b].offset;
                       });
    }
  }

  DriverResult Run(const std::string& host, uint16_t port) {
    for (ServiceClient& client : clients_) {
      Status s = client.Connect(host, port);
      if (!s.ok()) {
        Fail("connect: " + s.ToString());
        return Finish();
      }
    }
    // Wake-ups within microseconds of a due time, not the default 50 us
    // timer slack.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

    const double now = MonotonicSeconds();
    result_.start = options_.open_loop ? now + 0.005 : now;
    if (!options_.open_loop) {
      for (std::size_t c = 0; c < clients_.size(); ++c) {
        for (std::size_t k = 0; k < options_.window; ++k) {
          if (!SendNext(c, result_.start)) break;
        }
      }
    }

    std::vector<pollfd> fds(clients_.size());
    double last_progress = MonotonicSeconds();
    while (settled_ < requests_.size()) {
      double wait = kIdleTimeout;
      if (options_.open_loop && sent_ < order_.size()) {
        SendDue();
        if (sent_ < order_.size()) {
          const double due =
              result_.start + requests_[order_[sent_]].offset;
          wait = std::max(due - MonotonicSeconds(), 0.0);
        }
      }
      for (std::size_t c = 0; c < clients_.size(); ++c) {
        fds[c] = {dead_[c] ? -1 : clients_[c].fd(), POLLIN, 0};
      }
      timespec ts;
      ts.tv_sec = static_cast<time_t>(wait);
      ts.tv_nsec = static_cast<long>((wait - static_cast<double>(ts.tv_sec)) *
                                     1e9);
      const int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (ready < 0) {
        if (errno == EINTR) continue;
        Fail(std::string("ppoll: ") + strerror(errno));
        break;
      }
      if (ready == 0) {
        if (MonotonicSeconds() - last_progress > kIdleTimeout) {
          Fail("no answer for " + std::to_string(kIdleTimeout) + " s");
          break;
        }
        continue;
      }
      for (std::size_t c = 0; c < clients_.size(); ++c) {
        if (fds[c].revents != 0) Receive(c);
      }
      last_progress = MonotonicSeconds();
    }
    return Finish();
  }

 private:
  // Sends the next queued request of connection `c` (closed loop).
  bool SendNext(std::size_t c, double due) {
    if (next_[c] >= queue_[c].size()) return false;
    Send(queue_[c][next_[c]++], due);
    return true;
  }

  // Sends every open-loop request whose due time has passed.
  void SendDue() {
    while (sent_ < order_.size()) {
      const std::size_t i = order_[sent_];
      const double due = result_.start + requests_[i].offset;
      if (MonotonicSeconds() < due) return;
      if (options_.stall_at >= 0.0 && !stalled_ &&
          requests_[i].offset >= options_.stall_at) {
        stalled_ = true;
        std::this_thread::sleep_for(
            std::chrono::duration<double>(options_.stall_seconds));
      }
      Send(i, due);
    }
  }

  void Send(std::size_t i, double due) {
    const Request& r = requests_[i];
    const std::size_t c = r.requester % kConnections;
    p2pdt::PredictRequest req;
    req.id = i + 1;
    req.requester = r.requester;
    req.doc = *r.doc;
    Answer& a = result_.answers[i];
    a.due = due;
    a.sent = MonotonicSeconds();
    ++sent_;
    if (dead_[c]) {
      ++settled_;
      return;
    }
    Status s = clients_[c].SendFrame(FrameType::kPredictRequest,
                                     p2pdt::EncodePredictRequest(req));
    if (!s.ok()) {
      Fail("send on connection " + std::to_string(c) + ": " + s.ToString());
      Drop(c);
      ++settled_;
      return;
    }
    inflight_[c].push_back(i);
  }

  void Receive(std::size_t c) {
    ServiceClient& client = clients_[c];
    Status s = client.ReadAvailable();
    // Stamped after the read: every frame it returned had arrived by now.
    const double t = MonotonicSeconds();
    Frame frame;
    while (client.PollFrame(frame)) {
      if (inflight_[c].empty()) {
        Fail("unsolicited frame on connection " + std::to_string(c));
        continue;
      }
      const std::size_t i = inflight_[c].front();
      inflight_[c].pop_front();
      ++settled_;
      Answer& a = result_.answers[i];
      a.answered = t;
      result_.end = std::max(result_.end, t);
      a.ok = Validate(i, frame, a);
      if (!options_.open_loop) SendNext(c, t);
    }
    if ((!s.ok() || client.eof()) && !dead_[c]) {
      Fail("connection " + std::to_string(c) + " lost: " +
           (s.ok() ? std::string("eof") : s.ToString()));
      Drop(c);
    }
  }

  // The server closed or reset connection `c`: whatever it still owed will
  // never come, and the rest of its queue is never sent.
  void Drop(std::size_t c) {
    dead_[c] = true;
    settled_ += inflight_[c].size();
    inflight_[c].clear();
    if (!options_.open_loop) {
      settled_ += queue_[c].size() - next_[c];
      next_[c] = queue_[c].size();
    }
  }

  bool Validate(std::size_t i, const Frame& frame, Answer& a) {
    const std::string which = "request " + std::to_string(i + 1) + ": ";
    if (frame.type != FrameType::kPredictResponse) {
      Fail(which + "got a " + p2pdt::FrameTypeToString(frame.type) + " frame");
      return false;
    }
    p2pdt::Result<p2pdt::PredictResponse> resp =
        p2pdt::DecodePredictResponse(frame.payload);
    if (!resp.ok()) {
      Fail(which + "undecodable response: " + resp.status().ToString());
      return false;
    }
    if (resp->id != i + 1) {
      Fail(which + "answered with id " + std::to_string(resp->id));
      return false;
    }
    if (!resp->success) {
      Fail(which + "unsuccessful answer");
      return false;
    }
    std::vector<uint32_t> tags = resp->tags;
    std::sort(tags.begin(), tags.end());
    if (std::adjacent_find(tags.begin(), tags.end()) != tags.end() ||
        (!tags.empty() && tags.back() >= options_.num_tags)) {
      Fail(which + "tag ids repeated or not below " +
           std::to_string(options_.num_tags));
      return false;
    }
    if (resp->scores.size() != options_.num_tags ||
        !std::all_of(resp->scores.begin(), resp->scores.end(),
                     [](double v) { return std::isfinite(v); })) {
      Fail(which + "scores missing or not finite");
      return false;
    }
    uint64_t h = 0xcbf29ce484222325ull;
    const uint64_t id = i;
    h = Fnv(h, &id, sizeof(id));
    h = Fnv(h, tags.data(), tags.size() * sizeof(uint32_t));
    h = Fnv(h, resp->scores.data(), resp->scores.size() * sizeof(double));
    result_.fingerprint += h;
    a.tags = std::move(tags);
    return true;
  }

  DriverResult Finish() {
    for (ServiceClient& client : clients_) client.Close();
    result_.failed = static_cast<std::size_t>(
        std::count_if(result_.answers.begin(), result_.answers.end(),
                      [](const Answer& a) { return !a.ok; }));
    return std::move(result_);
  }

  void Fail(std::string message) {
    if (result_.errors.size() < 8) result_.errors.push_back(std::move(message));
  }

  const std::vector<Request>& requests_;
  const DriverOptions& options_;
  std::vector<ServiceClient> clients_;
  std::vector<std::vector<std::size_t>> queue_;  // request indices per conn
  std::vector<std::size_t> next_;                // closed loop: next unsent
  std::vector<std::deque<std::size_t>> inflight_;
  std::vector<bool> dead_;
  std::vector<std::size_t> order_;  // open loop: indices by due time
  std::size_t sent_ = 0;
  std::size_t settled_ = 0;  // answered, or lost with their connection
  bool stalled_ = false;
  DriverResult result_;
};

}  // namespace

DriverResult RunDriver(const std::string& host, uint16_t port,
                       const std::vector<Request>& requests,
                       const DriverOptions& options) {
  return Driver(requests, options).Run(host, port);
}

double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace servebench

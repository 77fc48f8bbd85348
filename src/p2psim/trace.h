#ifndef P2PDT_P2PSIM_TRACE_H_
#define P2PDT_P2PSIM_TRACE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "p2psim/simulator.h"

namespace p2pdt {

/// Causal identity carried by simulated work: which end-to-end operation
/// (trace) a piece of activity belongs to and which span caused it. A
/// default-constructed context is "not tracing" — trace_id 0 is reserved.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span = 0;

  bool valid() const { return trace_id != 0; }
};

/// One recorded interval (or instant) of simulated activity.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span = 0;
  std::string name;
  std::string category;
  /// Sim-time interval. Instants have end == start.
  SimTime start = 0.0;
  SimTime end = 0.0;
  /// Acting peer (rendered as the Chrome trace tid); SIZE_MAX = system.
  std::size_t node = static_cast<std::size_t>(-1);
  bool instant = false;
  /// Free-form annotations (drop reason, hop count, key, ...).
  std::vector<std::pair<std::string, std::string>> args;
};

/// Sim-time causal tracer.
///
/// The simulator has no explicit message object — a "message" is a pair of
/// callbacks scheduled on the event queue — so causality is carried by a
/// *current context*: the span on whose behalf the driver thread is
/// currently executing. PhysicalNetwork stamps the current context onto
/// every send as the new span's parent, and restores that span as current
/// around the delivery callback; anything the receiver sends in response
/// therefore chains into the same trace, across transport retries, DHT
/// hops and cascade uploads.
///
/// Determinism: the tracer draws no randomness, schedules no events and
/// never influences control flow — a run with tracing enabled executes the
/// exact same event sequence as one without. All span mutation happens on
/// the simulator driver thread (pool workers never send messages), so no
/// locking is needed or provided here.
///
/// Export is Chrome trace_event JSON ("X" complete events + "i" instants),
/// loadable in chrome://tracing or https://ui.perfetto.dev. Sim-seconds map
/// to microseconds 1:1 on the timeline.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a root span of a fresh trace.
  TraceContext StartTrace(std::string name, SimTime now, std::size_t node,
                          std::string category = "op");
  /// Opens a child span of `parent` (same trace). An invalid parent makes
  /// this a root span of a new trace.
  TraceContext StartSpan(std::string name, SimTime now, std::size_t node,
                         const TraceContext& parent,
                         std::string category = "op");
  /// Child of the current context when one is active, fresh root otherwise
  /// — the common entry-point idiom (a prediction issued by the harness is
  /// a root; one issued inside another traced operation nests).
  TraceContext StartAuto(std::string name, SimTime now, std::size_t node,
                         std::string category = "op");

  void EndSpan(const TraceContext& ctx, SimTime now);
  /// Attaches a key=value annotation to a still-open span.
  void AddArg(const TraceContext& ctx, std::string key, std::string value);
  /// Records a zero-duration marker (retransmit, give-up, drop, ...).
  void Instant(std::string name, SimTime now, std::size_t node,
               const TraceContext& ctx, std::string category = "mark");

  /// Span being executed on behalf of right now (invalid when idle).
  const TraceContext& current() const { return current_; }
  void set_current(const TraceContext& ctx) { current_ = ctx; }

  std::size_t num_spans() const { return spans_.size(); }
  std::size_t num_traces() const { return next_trace_id_ - 1; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  std::string ToChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

  void Clear();

 private:
  SpanRecord* FindOpen(uint64_t span_id);

  uint64_t next_trace_id_ = 1;
  uint64_t next_span_id_ = 1;
  TraceContext current_;
  std::vector<SpanRecord> spans_;
  /// span_id -> index into spans_ for spans not yet ended.
  std::unordered_map<uint64_t, std::size_t> open_;
};

/// Restores the tracer's previous current context on scope exit. A null
/// tracer makes this a no-op, so call sites stay branch-free.
class ScopedTraceContext {
 public:
  ScopedTraceContext(Tracer* tracer, const TraceContext& ctx)
      : tracer_(tracer) {
    if (tracer_ != nullptr) {
      saved_ = tracer_->current();
      tracer_->set_current(ctx);
    }
  }
  ~ScopedTraceContext() {
    if (tracer_ != nullptr) tracer_->set_current(saved_);
  }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  Tracer* tracer_;
  TraceContext saved_;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PSIM_TRACE_H_

#include "p2psim/trace.h"

#include <cstdio>

#include "common/json_check.h"
#include "common/string_util.h"

namespace p2pdt {

namespace {

/// Sim seconds → trace microseconds (Chrome's ts/dur unit).
std::string Micros(SimTime t) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", t * 1e6);
  return buf;
}

}  // namespace

TraceContext Tracer::StartTrace(std::string name, SimTime now,
                                std::size_t node, std::string category) {
  TraceContext parent;  // invalid → new root
  return StartSpan(std::move(name), now, node, parent, std::move(category));
}

TraceContext Tracer::StartSpan(std::string name, SimTime now,
                               std::size_t node, const TraceContext& parent,
                               std::string category) {
  TraceContext ctx;
  ctx.trace_id = parent.valid() ? parent.trace_id : next_trace_id_++;
  ctx.span_id = next_span_id_++;
  ctx.parent_span = parent.valid() ? parent.span_id : 0;

  SpanRecord rec;
  rec.trace_id = ctx.trace_id;
  rec.span_id = ctx.span_id;
  rec.parent_span = ctx.parent_span;
  rec.name = std::move(name);
  rec.category = std::move(category);
  rec.start = now;
  rec.end = now;
  rec.node = node;
  open_.emplace(ctx.span_id, spans_.size());
  spans_.push_back(std::move(rec));
  return ctx;
}

TraceContext Tracer::StartAuto(std::string name, SimTime now,
                               std::size_t node, std::string category) {
  return StartSpan(std::move(name), now, node, current_, std::move(category));
}

SpanRecord* Tracer::FindOpen(uint64_t span_id) {
  auto it = open_.find(span_id);
  return it == open_.end() ? nullptr : &spans_[it->second];
}

void Tracer::EndSpan(const TraceContext& ctx, SimTime now) {
  SpanRecord* rec = FindOpen(ctx.span_id);
  if (rec == nullptr) return;  // already ended (idempotent)
  rec->end = now < rec->start ? rec->start : now;
  open_.erase(ctx.span_id);
}

void Tracer::AddArg(const TraceContext& ctx, std::string key,
                    std::string value) {
  SpanRecord* rec = FindOpen(ctx.span_id);
  if (rec == nullptr) return;
  rec->args.emplace_back(std::move(key), std::move(value));
}

void Tracer::Instant(std::string name, SimTime now, std::size_t node,
                     const TraceContext& ctx, std::string category) {
  SpanRecord rec;
  rec.trace_id = ctx.trace_id;
  rec.span_id = next_span_id_++;
  rec.parent_span = ctx.span_id;
  rec.name = std::move(name);
  rec.category = std::move(category);
  rec.start = now;
  rec.end = now;
  rec.node = node;
  rec.instant = true;
  spans_.push_back(std::move(rec));
}

void Tracer::Clear() {
  spans_.clear();
  open_.clear();
  current_ = TraceContext{};
  next_trace_id_ = 1;
  next_span_id_ = 1;
}

std::string Tracer::ToChromeTraceJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& rec : spans_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + JsonEscape(rec.name) + "\",\"cat\":\"" +
           JsonEscape(rec.category) + "\",\"ph\":\"";
    out += rec.instant ? 'i' : 'X';
    out += "\",\"ts\":" + Micros(rec.start);
    if (!rec.instant) {
      out += ",\"dur\":" + Micros(rec.end - rec.start);
    } else {
      out += ",\"s\":\"t\"";  // thread-scoped instant
    }
    out += ",\"pid\":1,\"tid\":" +
           std::to_string(rec.node == static_cast<std::size_t>(-1)
                              ? 0
                              : rec.node + 1);
    out += ",\"args\":{\"trace_id\":" + std::to_string(rec.trace_id) +
           ",\"span_id\":" + std::to_string(rec.span_id) +
           ",\"parent_span\":" + std::to_string(rec.parent_span);
    for (const auto& [k, v] : rec.args) {
      out += ",\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  return WriteStringToFile(path, ToChromeTraceJson());
}

}  // namespace p2pdt

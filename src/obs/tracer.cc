#include "src/obs/tracer.h"

#include <algorithm>

#include "src/util/check.h"

namespace hib {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPowerState:
      return "power";
    case SpanKind::kQueueWait:
      return "queue";
    case SpanKind::kService:
      return "io";
    case SpanKind::kSeek:
      return "io";
    case SpanKind::kTransfer:
      return "io";
    case SpanKind::kRequest:
      return "request";
    case SpanKind::kEpoch:
      return "epoch";
    case SpanKind::kDecision:
      return "decision";
    case SpanKind::kBoost:
      return "boost";
    case SpanKind::kRebuild:
      return "rebuild";
    case SpanKind::kMigration:
      return "migration";
  }
  return "?";
}

void Tracer::Enable(std::size_t capacity) {
  HIB_CHECK(capacity > 0) << "tracer capacity must be positive";
  if (capacity != capacity_) {
    ring_.assign(capacity, TraceEvent{});
    capacity_ = capacity;
    head_ = 0;
    recorded_ = 0;
  }
  enabled_ = true;
}

std::size_t Tracer::size() const { return std::min<std::uint64_t>(recorded_, capacity_); }

void Tracer::Push(const TraceEvent& event) {
  if (!enabled_) {
    return;
  }
  ring_[head_] = event;
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  ++recorded_;
}

void Tracer::Span(SpanKind kind, std::int32_t track, const char* name, SimTime start,
                  SimTime end, std::int64_t id, double arg) {
  HIB_CHECK_GE(end, start) << "span '" << name << "' ends before it starts";
  TraceEvent event;
  event.start = start;
  event.dur = end - start;
  event.id = id;
  event.arg = arg;
  event.track = track;
  event.kind = kind;
  event.instant = false;
  event.name = name;
  Push(event);
}

void Tracer::Instant(SpanKind kind, std::int32_t track, const char* name, SimTime at,
                     std::int64_t id, double arg) {
  TraceEvent event;
  event.start = at;
  event.id = id;
  event.arg = arg;
  event.track = track;
  event.kind = kind;
  event.instant = true;
  event.name = name;
  Push(event);
}

std::vector<TraceEvent> Tracer::Events() const {
  std::vector<TraceEvent> out;
  std::size_t n = size();
  out.reserve(n);
  // When the ring has wrapped, the oldest retained event sits at head_.
  std::size_t begin = recorded_ > capacity_ ? head_ : 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t pos = begin + i;
    if (pos >= capacity_) {
      pos -= capacity_;
    }
    out.push_back(ring_[pos]);
  }
  return out;
}

}  // namespace hib

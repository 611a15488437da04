// Power-state / request-lifecycle tracer: typed spans and instant events in a
// per-simulator ring buffer.
//
// Recording is opt-in at runtime (Enable(capacity)); when disabled, the
// HIB_TRACE_* macros in src/obs/obs.h reduce to one predicted-false branch.
// The ring drops the *oldest* events on overflow so the tail of a long run
// (the part a trace viewer usually needs) survives; `dropped()` reports how
// much history was lost.
//
// Span taxonomy (see DESIGN.md "Observability" for the full map):
//   kPowerState  one span per power-state residency, per disk
//   kQueueWait   sub-op wait from disk arrival to service start
//   kService     mechanical service of one sub-op (seek+rot, transfer inside)
//   kSeek / kTransfer  children of kService
//   kRequest     logical request from array submit to last sub-op completion
//   kEpoch       CR epoch decision (instant, on the policy track)
//   kDecision    per-disk policy decisions: spin-down, RPM step (instant)
//   kBoost       performance-guarantee boost interval
//   kRebuild     disk replacement rebuild interval
//   kMigration   one background extent move
#ifndef HIBERNATOR_SRC_OBS_TRACER_H_
#define HIBERNATOR_SRC_OBS_TRACER_H_

#include <cstdint>
#include <vector>

#include "src/util/thread_annotations.h"
#include "src/util/units.h"

namespace hib {

enum class SpanKind : std::uint8_t {
  kPowerState,
  kQueueWait,
  kService,
  kSeek,
  kTransfer,
  kRequest,
  kEpoch,
  kDecision,
  kBoost,
  kRebuild,
  kMigration,
};

const char* SpanKindName(SpanKind kind);

// Track ids: non-negative values name a disk; these name the shared lanes.
inline constexpr std::int32_t kTrackArray = -1;
inline constexpr std::int32_t kTrackPolicy = -2;

// One recorded event.  `name` must point at static-storage strings (state
// names, literal labels): the ring never copies or frees it.
struct TraceEvent {
  SimTime start;
  Duration dur;  // zero for instants
  std::int64_t id = 0;
  double arg = 0.0;
  std::int32_t track = 0;
  SpanKind kind = SpanKind::kRequest;
  bool instant = false;
  const char* name = "";
};

// Shard-local: one ring per Simulator; never shared across shards.
class HIB_SHARD_LOCAL Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Starts recording into a ring of `capacity` events (allocated up front).
  void Enable(std::size_t capacity = kDefaultCapacity);
  bool enabled() const { return enabled_; }

  // Records a completed span [start, end].  A span must not end before it
  // starts; violations abort (tests/obs_test.cc pins the death).
  void Span(SpanKind kind, std::int32_t track, const char* name, SimTime start, SimTime end,
            std::int64_t id = 0, double arg = 0.0);

  // Records a point event.
  void Instant(SpanKind kind, std::int32_t track, const char* name, SimTime at,
               std::int64_t id = 0, double arg = 0.0);

  std::size_t capacity() const { return capacity_; }
  // Events currently retained (<= capacity).
  std::size_t size() const;
  // Total events recorded, including any the ring has since dropped.
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return recorded_ - size(); }

  // Retained events, oldest first (resolves the ring wraparound).
  std::vector<TraceEvent> Events() const;

 private:
  void Push(const TraceEvent& event);

  std::vector<TraceEvent> ring_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  // next write position
  std::uint64_t recorded_ = 0;
  bool enabled_ = false;
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_OBS_TRACER_H_

// Observability bundle and the tracer call-site macros.
//
// Every Simulator owns an Observability (metrics registry + tracer); all
// simulated components reach it through their Simulator pointer.
//
// One store per statistic: a count a component already keeps in its own
// stats (ArrayStats, DiskStats, a policy's counters) is published to the
// registry once, at end of run, by its owner's FlushObs() or Finish();
// histograms and decision counters with no field twin are fed live through
// the registry's instruments.  Tracing is opt-in at runtime: the macros
// below test Tracer::enabled() first, so span argument expressions only
// evaluate when a trace was actually requested.
#ifndef HIBERNATOR_SRC_OBS_OBS_H_
#define HIBERNATOR_SRC_OBS_OBS_H_

#include "src/obs/metrics.h"
#include "src/obs/tracer.h"

// Observability is always compiled in.  This constant is not a build option;
// it remains only because BENCH JSON provenance still reports it.
#define HIB_OBS 1

namespace hib {

// Per-simulator observability state.
struct Observability {
  MetricsRegistry metrics;
  Tracer tracer;
};

}  // namespace hib

// `tracer` is a Tracer lvalue (typically sim->obs().tracer).  Arguments after
// it are only evaluated when tracing is enabled.
#define HIB_TRACE_SPAN(tracer, kind, track, name, start, end, id, arg) \
  do {                                                                 \
    if ((tracer).enabled()) {                                          \
      (tracer).Span((kind), (track), (name), (start), (end), (id), (arg)); \
    }                                                                  \
  } while (false)

#define HIB_TRACE_INSTANT(tracer, kind, track, name, at, id, arg)        \
  do {                                                                   \
    if ((tracer).enabled()) {                                            \
      (tracer).Instant((kind), (track), (name), (at), (id), (arg));      \
    }                                                                    \
  } while (false)

#endif  // HIBERNATOR_SRC_OBS_OBS_H_

// Discrete-event simulator: clock + event queue + run loop.
//
// This is the DiskSim-equivalent substrate.  All simulated components (disks,
// the array controller, policies, workload sources) schedule callbacks here;
// the run loop advances virtual time to each event in order.
#ifndef HIBERNATOR_SRC_SIM_SIMULATOR_H_
#define HIBERNATOR_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>

#include "src/obs/obs.h"
#include "src/sim/event_queue.h"
#include "src/sim/validator.h"
#include "src/util/check.h"
#include "src/util/thread_annotations.h"
#include "src/util/units.h"

namespace hib {

// Shard-local: a Simulator is one shard's universe.  Its address must never
// be stored anywhere that outlives the shard run or is reachable from
// another shard (simlint HIB022).
class HIB_SHARD_LOCAL Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `cb` to run `delay` ms from now (delay < 0 clamps to 0).
  EventId ScheduleIn(Duration delay, EventCallback cb);

  // Schedules `cb` at the absolute time `when` (past times clamp to now).
  EventId ScheduleAt(SimTime when, EventCallback cb);

  // Cancels a pending event; returns false if it already fired.
  bool Cancel(EventId id);

  // Capacity hint: pre-sizes the event queue for roughly `events` concurrently
  // pending events (see EventQueue::Reserve).
  void ReserveEvents(std::size_t events) { queue_.Reserve(events); }

  // Schedules `cb` every `period` ms starting at `start`; the callback may
  // call StopPeriodic with the returned handle to stop the series.
  struct PeriodicHandle {
    std::uint64_t key = 0;
  };
  PeriodicHandle SchedulePeriodic(SimTime start, Duration period, EventCallback cb);
  void StopPeriodic(PeriodicHandle handle);

  // Runs until the queue is empty or time would pass `until`.
  // Returns the number of events fired.
  std::uint64_t RunUntil(SimTime until = std::numeric_limits<SimTime>::max());

  // Fires exactly one event if any is pending; returns false when idle.
  bool Step();

  std::uint64_t events_fired() const { return events_fired_; }
  bool idle() const { return queue_.empty(); }

#if HIB_VALIDATE
  // Invariant auditor.  Simulated components (disks, ...) report state
  // changes here.  Compiled out in Release.
  SimValidator& validator() { return validator_; }
#endif

  // Per-simulation metrics registry + tracer.  Components resolve their
  // instruments here at construction; instrumentation call sites go through
  // the HIB_COUNTER_* / HIB_TRACE_* macros (no-ops when HIB_OBS=0).
  Observability& obs() { return obs_; }
  const Observability& obs() const { return obs_; }

 private:
  struct PeriodicState {
    Duration period;
    EventCallback callback;
    bool stopped = false;
  };
  void FirePeriodic(std::uint64_t key);

  SimTime now_;
  EventQueue queue_;
  std::uint64_t events_fired_ = 0;
  std::uint64_t next_periodic_key_ = 0;
  // Keyed by the monotonic next_periodic_key_, ordered so any walk over
  // the live periodic series is registration-ordered (HIB011).
  std::map<std::uint64_t, PeriodicState> periodics_;
  Observability obs_;
#if HIB_VALIDATE
  SimValidator validator_;
#endif
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_SIM_SIMULATOR_H_

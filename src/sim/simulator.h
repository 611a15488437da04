// Discrete-event simulator: clock + event queue + run loop.
//
// This is the DiskSim-equivalent substrate.  All simulated components (disks,
// the array controller, policies, workload sources) schedule callbacks here;
// the run loop advances virtual time to each event in order.
#ifndef HIBERNATOR_SRC_SIM_SIMULATOR_H_
#define HIBERNATOR_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <deque>
#include <limits>

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

  // Schedules `cb` every `period` ms starting at `start`, for the rest of
  // the run.
  void SchedulePeriodic(SimTime start, Duration period, EventCallback cb);

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

  // Per-simulation metrics registry + tracer (see src/obs/obs.h for who
  // publishes what, and when).
  Observability& obs() { return obs_; }
  const Observability& obs() const { return obs_; }

 private:
  struct PeriodicState {
    Duration period;
    EventCallback callback;
  };
  void FirePeriodic(std::size_t index);

  SimTime now_;
  EventQueue queue_;
  std::uint64_t events_fired_ = 0;
  // Indexed by registration order.  A deque: a callback that registers
  // another series must not move the one it runs from.
  std::deque<PeriodicState> periodics_;
  Observability obs_;
#if HIB_VALIDATE
  SimValidator validator_;
#endif
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_SIM_SIMULATOR_H_

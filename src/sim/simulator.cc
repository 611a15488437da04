#include "src/sim/simulator.h"

#include <utility>

#include "src/util/check.h"

namespace hib {

EventId Simulator::ScheduleIn(Duration delay, EventCallback cb) {
  if (delay < Duration{}) {
    delay = Duration{};
  }
  return queue_.Schedule(now_ + delay, std::move(cb));
}

EventId Simulator::ScheduleAt(SimTime when, EventCallback cb) {
  if (when < now_) {
    when = now_;
  }
  return queue_.Schedule(when, std::move(cb));
}

bool Simulator::Cancel(EventId id) { return queue_.Cancel(id); }

void Simulator::SchedulePeriodic(SimTime start, Duration period, EventCallback cb) {
  HIB_CHECK_GT(period, Duration{}) << "periodic events need a positive period";
  std::size_t index = periodics_.size();
  periodics_.push_back(PeriodicState{period, std::move(cb)});
  ScheduleAt(start, [this, index] { FirePeriodic(index); });
}

void Simulator::FirePeriodic(std::size_t index) {
  PeriodicState& periodic = periodics_[index];
  // Re-arm before the callback runs: the next firing takes its sequence
  // number ahead of anything the callback schedules, which fixes the order
  // of same-time events.
  ScheduleIn(periodic.period, [this, index] { FirePeriodic(index); });
  periodic.callback();
}

std::uint64_t Simulator::RunUntil(SimTime until) {
  std::uint64_t fired = 0;
  while (!queue_.empty()) {
    SimTime next = queue_.NextTime();
    if (next > until) {
      break;
    }
    HIB_DCHECK_GE(next, now_) << "event fired in the simulated past";
#if HIB_VALIDATE
    validator_.OnDispatch(next);
#endif
    queue_.FireNext(&now_);
    ++fired;
    ++events_fired_;
  }
  if (now_ < until && until != std::numeric_limits<SimTime>::max()) {
    now_ = until;
  }
  return fired;
}

bool Simulator::Step() {
  if (queue_.empty()) {
    return false;
  }
  SimTime next = queue_.NextTime();
  HIB_DCHECK_GE(next, now_) << "event fired in the simulated past";
#if HIB_VALIDATE
  validator_.OnDispatch(next);
#endif
  queue_.FireNext(&now_);
  ++events_fired_;
  return true;
}

}  // namespace hib

#include "src/disk/disk.h"

#include <cstdlib>
#include <utility>

#include "src/util/check.h"
#include "src/util/log.h"

namespace hib {

const char* DiskPowerStateName(DiskPowerState state) {
  switch (state) {
    case DiskPowerState::kIdle:
      return "IDLE";
    case DiskPowerState::kBusy:
      return "BUSY";
    case DiskPowerState::kChangingRpm:
      return "CHANGING_RPM";
    case DiskPowerState::kSpinningDown:
      return "SPINNING_DOWN";
    case DiskPowerState::kStandby:
      return "STANDBY";
    case DiskPowerState::kSpinningUp:
      return "SPINNING_UP";
  }
  return "?";
}

Disk::Disk(Simulator* sim, DiskParams params, int id, std::uint64_t seed)
    : sim_(sim),
      params_(std::move(params)),
      id_(id),
      rng_(seed, static_cast<std::uint64_t>(id) * 2 + 1),
      level_(params_.num_speeds() - 1),
      target_level_(level_) {
  HIB_CHECK(params_.Validate().empty()) << "invalid DiskParams: " << params_.Validate();
  current_power_ = StatePower(DiskPowerState::kIdle);
  last_account_ = sim_->Now();
  last_activity_ = sim_->Now();
  MetricsRegistry& metrics = sim_->obs().metrics;
  obs_spin_ups_ = &metrics.GetCounter("disk.spin_ups");
  obs_spin_downs_ = &metrics.GetCounter("disk.spin_downs");
  obs_rpm_changes_ = &metrics.GetCounter("disk.rpm_changes");
  obs_queue_wait_ms_ = &metrics.GetHistogram("disk.queue_wait_ms");
  obs_service_ms_ = &metrics.GetHistogram("disk.service_ms");
  obs_state_since_ = sim_->Now();
#if HIB_VALIDATE
  validator_track_ = sim_->validator().OnDiskAttached(id_, static_cast<ValidatorDiskState>(state_),
                                                      current_power_, sim_->Now());
#endif
}

Disk::~Disk() {
#if HIB_VALIDATE
  sim_->validator().OnDiskDetached(validator_track_);
#endif
}

Watts Disk::StatePower(DiskPowerState state) const {
  const SpeedLevel& lvl = params_.speeds[static_cast<std::size_t>(level_)];
  switch (state) {
    case DiskPowerState::kIdle:
      return lvl.idle_power;
    case DiskPowerState::kBusy:
      return lvl.active_power;
    case DiskPowerState::kStandby:
      return params_.standby_power;
    case DiskPowerState::kChangingRpm:
    case DiskPowerState::kSpinningDown:
    case DiskPowerState::kSpinningUp:
      return transition_power_;
  }
  return Watts{};
}

void Disk::AccountToNow() {
  SimTime now = sim_->Now();
  Duration dt = now - last_account_;
  if (dt <= Duration{}) {
    last_account_ = now;
    return;
  }
  Joules joules = EnergyOf(current_power_, dt);
  switch (state_) {
    case DiskPowerState::kBusy:
      energy_.active += joules;
      energy_.active_ms += dt;
      break;
    case DiskPowerState::kIdle:
      energy_.idle += joules;
      energy_.idle_ms += dt;
      break;
    case DiskPowerState::kStandby:
      energy_.standby += joules;
      energy_.standby_ms += dt;
      break;
    case DiskPowerState::kChangingRpm:
    case DiskPowerState::kSpinningDown:
    case DiskPowerState::kSpinningUp:
      energy_.transition += joules;
      energy_.transition_ms += dt;
      break;
  }
  last_account_ = now;
}

void Disk::EnterState(DiskPowerState next) {
  AccountToNow();
  Watts next_power = StatePower(next);
#if HIB_VALIDATE
  sim_->validator().OnDiskTransition(validator_track_, static_cast<ValidatorDiskState>(state_),
                                     static_cast<ValidatorDiskState>(next), sim_->Now(), next_power,
                                     energy_.Total(), static_cast<std::int64_t>(QueueDepth()));
#endif
  // Close the residency span of the state being left (arg = its power draw,
  // dimensionless via the Watts/Watts division — this is trace output).
  HIB_TRACE_SPAN(sim_->obs().tracer, SpanKind::kPowerState, id_, DiskPowerStateName(state_),
                 obs_state_since_, sim_->Now(), id_, current_power_ / Watts(1.0));
  obs_state_since_ = sim_->Now();
  state_ = next;
  current_power_ = next_power;
}

void Disk::FlushObs() {
  HIB_TRACE_SPAN(sim_->obs().tracer, SpanKind::kPowerState, id_, DiskPowerStateName(state_),
                 obs_state_since_, sim_->Now(), id_, current_power_ / Watts(1.0));
  obs_state_since_ = sim_->Now();
}

DiskEnergy Disk::MeteredEnergy() const {
  // Fold in the time since the last state change without mutating state.
  DiskEnergy snapshot = energy_;
  Duration dt = sim_->Now() - last_account_;
  if (dt > Duration{}) {
    Joules joules = EnergyOf(current_power_, dt);
    switch (state_) {
      case DiskPowerState::kBusy:
        snapshot.active += joules;
        snapshot.active_ms += dt;
        break;
      case DiskPowerState::kIdle:
        snapshot.idle += joules;
        snapshot.idle_ms += dt;
        break;
      case DiskPowerState::kStandby:
        snapshot.standby += joules;
        snapshot.standby_ms += dt;
        break;
      default:
        snapshot.transition += joules;
        snapshot.transition_ms += dt;
        break;
    }
  }
  return snapshot;
}

void Disk::Submit(DiskRequest request) {
  request.arrival = sim_->Now();
  last_activity_ = sim_->Now();
  ++stats_.window_arrivals;
  if (!request.background) {
    if (stats_.window_prev_arrival >= SimTime{}) {
      Duration gap = sim_->Now() - stats_.window_prev_arrival;
      stats_.window_gap_sum_ms += gap;
      stats_.window_gap_sq_ms2 += gap * gap;
      ++stats_.window_gaps;
    }
    stats_.window_prev_arrival = sim_->Now();
  }
  if (request.background) {
    background_.push_back(std::move(request));
  } else {
    foreground_.push_back(std::move(request));
  }
  if (state_ == DiskPowerState::kStandby) {
    BeginSpinUp();
    return;
  }
  MaybeStartWork();
}

void Disk::SetTargetRpm(int rpm) {
  int level = params_.LevelOf(rpm);
  HIB_CHECK_GE(level, 0) << "unsupported RPM level " << rpm;
  if (level == target_level_) {
    return;
  }
  target_level_ = level;
  if (state_ == DiskPowerState::kIdle && level_ != target_level_) {
    BeginRpmChange();
  }
  // Busy: picked up in FinishService.  Standby / spinning up: the spin-up
  // (or the next one) targets target_level_.  Changing RPM: chained in
  // FinishRpmChange.
}

bool Disk::SpinDown() {
  if (!FullyIdle()) {
    return false;
  }
  // Joules / Duration -> Watts: the units layer owns the ms->s conversion.
  transition_power_ = params_.spin_down_ms > Duration{}
                          ? params_.spin_down_energy / params_.spin_down_ms
                          : Watts{};
  EnterState(DiskPowerState::kSpinningDown);
  ++stats_.spin_downs;
  HIB_COUNTER_INC(obs_spin_downs_);
  sim_->ScheduleIn(params_.spin_down_ms, [this] { FinishSpinDown(); });
  return true;
}

void Disk::FinishSpinDown() {
  EnterState(DiskPowerState::kStandby);
  // A request may have arrived while the platters wound down.
  if (QueueDepth() > 0) {
    BeginSpinUp();
  }
}

void Disk::SpinUp() {
  if (state_ == DiskPowerState::kStandby) {
    BeginSpinUp();
  }
}

void Disk::BeginSpinUp() {
  HIB_DCHECK(state_ == DiskPowerState::kStandby) << "spin-up outside standby";
  int rpm = params_.speeds[static_cast<std::size_t>(target_level_)].rpm;
  Duration t = params_.SpinUpTime(rpm);
  Joules e = params_.SpinUpEnergy(rpm);
  transition_power_ = t > Duration{} ? e / t : Watts{};
  EnterState(DiskPowerState::kSpinningUp);
  ++stats_.spin_ups;
  HIB_COUNTER_INC(obs_spin_ups_);
  sim_->ScheduleIn(t, [this] { FinishSpinUp(); });
}

void Disk::FinishSpinUp() {
  level_ = target_level_;
  EnterState(DiskPowerState::kIdle);
  MaybeStartWork();
}

void Disk::BeginRpmChange() {
  HIB_DCHECK(state_ == DiskPowerState::kIdle) << "RPM change outside idle";
  HIB_DCHECK_NE(level_, target_level_) << "RPM change to the current level";
  int from = params_.speeds[static_cast<std::size_t>(level_)].rpm;
  int to = params_.speeds[static_cast<std::size_t>(target_level_)].rpm;
  Duration t = params_.RpmTransitionTime(from, to);
  Joules e = params_.RpmTransitionEnergy(from, to);
  transition_power_ = t > Duration{} ? e / t : Watts{};
  EnterState(DiskPowerState::kChangingRpm);
  ++stats_.rpm_changes;
  HIB_COUNTER_INC(obs_rpm_changes_);
  int destination = target_level_;
  sim_->ScheduleIn(t, [this, destination] {
    level_ = destination;
    FinishRpmChange();
  });
}

void Disk::FinishRpmChange() {
  EnterState(DiskPowerState::kIdle);
  if (level_ != target_level_) {
    // The target moved again while we were transitioning.
    BeginRpmChange();
    return;
  }
  MaybeStartWork();
}

void Disk::MaybeStartWork() {
  if (state_ != DiskPowerState::kIdle) {
    return;
  }
  if (level_ != target_level_) {
    BeginRpmChange();
    return;
  }
  if (foreground_.empty() && background_.empty()) {
    return;
  }
  StartService();
}

void Disk::StartService() {
  HIB_DCHECK(state_ == DiskPowerState::kIdle) << "service start outside idle";
  bool from_fg = !foreground_.empty();
  DiskRequest req = from_fg ? std::move(foreground_.front()) : std::move(background_.front());
  if (from_fg) {
    foreground_.pop_front();
  } else {
    background_.pop_front();
  }

  const SpeedLevel& lvl = params_.speeds[static_cast<std::size_t>(level_)];
  std::int64_t cylinder = req.sector / params_.SectorsPerCylinder();
  if (cylinder >= params_.num_cylinders) {
    cylinder = params_.num_cylinders - 1;
  }
  Duration seek;
  Duration rotation;
  if (req.sector == next_sequential_sector_) {
    // Sequential continuation: the head is already in position and the media
    // streams under it — no seek, no rotational latency.  This is what makes
    // large sequential runs cheap even at low RPM.
    seek = Duration{};
    rotation = Duration{};
  } else {
    seek = params_.seek.SeekTime(std::llabs(cylinder - head_cylinder_), params_.num_cylinders);
    rotation = rng_.NextDouble() * lvl.RevolutionMs();
  }
  Duration transfer = params_.TransferTime(req.count, lvl.rpm);
  Duration settle = req.is_write ? params_.write_settle_ms : Duration{};
  Duration service = seek + rotation + transfer + settle;

  head_cylinder_ = cylinder;
  next_sequential_sector_ = req.sector + req.count;
  EnterState(DiskPowerState::kBusy);
  stats_.service_time_ms.Add(service);
  stats_.window_busy_ms += service;

  SimTime done = sim_->Now() + service;
#if HIB_OBS
  {
    SimTime now = sim_->Now();
    if (!req.background) {
      HIB_HIST_RECORD(obs_queue_wait_ms_, (now - req.arrival) / Ms(1.0));
    }
    HIB_HIST_RECORD(obs_service_ms_, service / Ms(1.0));
    Tracer& tracer = sim_->obs().tracer;
    if (tracer.enabled()) {
      // One id per sub-op ties the async wait span to the service breakdown.
      std::int64_t subop = (static_cast<std::int64_t>(id_) << 40) +
                           static_cast<std::int64_t>(obs_subop_seq_++);
      tracer.Span(SpanKind::kQueueWait, id_, req.background ? "wait(bg)" : "wait",
                  req.arrival, now, subop, static_cast<double>(QueueDepth()));
      tracer.Span(SpanKind::kService, id_, req.is_write ? "write" : "read", now, done, subop,
                  static_cast<double>(req.count));
      if (seek + rotation > Duration{}) {
        tracer.Span(SpanKind::kSeek, id_, "seek+rot", now, now + seek + rotation, subop);
      }
      tracer.Span(SpanKind::kTransfer, id_, "transfer", now + seek + rotation,
                  now + seek + rotation + transfer, subop);
    }
  }
#endif
  sim_->ScheduleIn(service, [this, done, r = std::move(req)]() mutable {
    FinishService(done, std::move(r));
  });
}

void Disk::FinishService(SimTime completion_time, DiskRequest request) {
  last_activity_ = completion_time;
  ++stats_.requests_completed;
  if (request.background) {
    ++stats_.background_completed;
  } else {
    ++stats_.foreground_completed;
    stats_.response_time_ms.Add(completion_time - request.arrival);
    stats_.window_response_sum_ms += completion_time - request.arrival;
    ++stats_.window_completions;
  }
  if (request.is_write) {
    stats_.sectors_written += request.count;
  } else {
    stats_.sectors_read += request.count;
  }
  EnterState(DiskPowerState::kIdle);
  if (request.on_complete) {
    request.on_complete(completion_time);
  }
  MaybeStartWork();
}

Duration Disk::ExpectedServiceTime(SectorCount count, int level) const {
  const SpeedLevel& lvl = params_.speeds[static_cast<std::size_t>(level)];
  // Average seek (1/3 stroke) + half-revolution latency + transfer.
  return params_.seek.average_ms + 0.5 * lvl.RevolutionMs() +
         params_.TransferTime(count, lvl.rpm);
}

}  // namespace hib

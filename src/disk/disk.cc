#include "src/disk/disk.h"

#include <cstdlib>
#include <utility>

#include "src/util/check.h"
#include "src/util/log.h"

namespace hib {
namespace {

// Adds `joules` spent over `dt` to the ledger bucket `state` is metered in.
void Charge(DiskEnergy* energy, DiskPowerState state, Joules joules, Duration dt) {
  switch (state) {
    case DiskPowerState::kBusy:
      energy->active += joules;
      energy->active_ms += dt;
      break;
    case DiskPowerState::kIdle:
      energy->idle += joules;
      energy->idle_ms += dt;
      break;
    case DiskPowerState::kStandby:
      energy->standby += joules;
      energy->standby_ms += dt;
      break;
    case DiskPowerState::kChangingRpm:
    case DiskPowerState::kSpinningDown:
    case DiskPowerState::kSpinningUp:
      energy->transition += joules;
      energy->transition_ms += dt;
      break;
  }
}

}  // namespace

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
  obs_queue_wait_ms_ = &metrics.GetHistogram("disk.queue_wait_ms");
  obs_service_ms_ = &metrics.GetHistogram("disk.service_ms");
  obs_state_since_ = sim_->Now();
#if HIB_VALIDATE
  validator_track_ = sim_->validator().OnDiskAttached(id_, state_, current_power_, sim_->Now());
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
  if (dt > Duration{}) {
    Charge(&energy_, state_, EnergyOf(current_power_, dt), dt);
  }
  last_account_ = now;
}

void Disk::EnterState(DiskPowerState next) {
  AccountToNow();
  Watts next_power = StatePower(next);
#if HIB_VALIDATE
  sim_->validator().OnDiskTransition(validator_track_, state_, next, sim_->Now(), next_power,
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
  MetricsRegistry& metrics = sim_->obs().metrics;
  metrics.GetCounter("disk.spin_ups").Add(stats_.spin_ups);
  metrics.GetCounter("disk.spin_downs").Add(stats_.spin_downs);
  metrics.GetCounter("disk.rpm_changes").Add(stats_.rpm_changes);
}

DiskEnergy Disk::MeteredEnergy() const {
  // Fold in the time since the last state change without mutating state.
  DiskEnergy snapshot = energy_;
  Duration dt = sim_->Now() - last_account_;
  if (dt > Duration{}) {
    Charge(&snapshot, state_, EnergyOf(current_power_, dt), dt);
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

void Disk::BeginSpinUp() {
  HIB_DCHECK(state_ == DiskPowerState::kStandby) << "spin-up outside standby";
  int rpm = params_.speeds[static_cast<std::size_t>(target_level_)].rpm;
  Duration t = params_.SpinUpTime(rpm);
  Joules e = params_.SpinUpEnergy(rpm);
  transition_power_ = t > Duration{} ? e / t : Watts{};
  EnterState(DiskPowerState::kSpinningUp);
  ++stats_.spin_ups;
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
  stats_.window_busy_ms += service;

  SimTime now = sim_->Now();
  SimTime done = now + service;
  if (!req.background) {
    obs_queue_wait_ms_->Record((now - req.arrival) / Ms(1.0));
  }
  obs_service_ms_->Record(service / Ms(1.0));
  Tracer& tracer = sim_->obs().tracer;
  if (tracer.enabled()) {
    // One id per sub-op ties the async wait span to the service breakdown.
    std::int64_t subop = (static_cast<std::int64_t>(id_) << 40) +
                         static_cast<std::int64_t>(obs_subop_seq_++);
    tracer.Span(SpanKind::kQueueWait, id_, req.background ? "wait(bg)" : "wait", req.arrival,
                now, subop, static_cast<double>(QueueDepth()));
    tracer.Span(SpanKind::kService, id_, req.is_write ? "write" : "read", now, done, subop,
                static_cast<double>(req.count));
    if (seek + rotation > Duration{}) {
      tracer.Span(SpanKind::kSeek, id_, "seek+rot", now, now + seek + rotation, subop);
    }
    tracer.Span(SpanKind::kTransfer, id_, "transfer", now + seek + rotation,
                now + seek + rotation + transfer, subop);
  }
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

}  // namespace hib

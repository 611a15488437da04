#include "src/sim/validator.h"

#include <algorithm>

#include "src/util/check.h"

namespace hib {

SimValidator::SimValidator(double energy_rel_tol) : energy_rel_tol_(energy_rel_tol) {}

void SimValidator::OnDispatch(SimTime when) {
  if (dispatched_any_) {
    HIB_CHECK_GE(when, last_dispatch_)
        << "event dispatch went backwards in time (non-deterministic queue?)";
  }
  last_dispatch_ = when;
  dispatched_any_ = true;
  ++dispatches_checked_;
}

std::uint32_t SimValidator::OnDiskAttached(int disk_id, DiskPowerState state, Watts power,
                                           SimTime now) {
  tracks_.push_back({disk_id, /*attached=*/true, state, power, now, Joules{}});
  ++disks_tracked_;
  return static_cast<std::uint32_t>(tracks_.size() - 1);
}

void SimValidator::OnDiskDetached(std::uint32_t index) {
  AttachedTrack(index, "detach").attached = false;
  --disks_tracked_;
}

SimValidator::DiskTrack& SimValidator::AttachedTrack(std::uint32_t index, const char* hook) {
  HIB_CHECK(index < tracks_.size())
      << hook << " on disk track " << index << ", which was never attached";
  DiskTrack& track = tracks_[index];
  HIB_CHECK(track.attached)
      << hook << " on disk " << track.disk_id << " (track " << index << ") after it was detached";
  return track;
}

bool SimValidator::IsLegalTransition(DiskPowerState from, DiskPowerState to) {
  switch (from) {
    case DiskPowerState::kIdle:
      return to == DiskPowerState::kBusy || to == DiskPowerState::kChangingRpm ||
             to == DiskPowerState::kSpinningDown;
    case DiskPowerState::kBusy:
      return to == DiskPowerState::kIdle;
    case DiskPowerState::kChangingRpm:
      return to == DiskPowerState::kIdle;
    case DiskPowerState::kSpinningDown:
      return to == DiskPowerState::kStandby;
    case DiskPowerState::kStandby:
      return to == DiskPowerState::kSpinningUp;
    case DiskPowerState::kSpinningUp:
      return to == DiskPowerState::kIdle;
  }
  return false;
}

void SimValidator::OnDiskTransition(std::uint32_t index, DiskPowerState from,
                                    DiskPowerState to, SimTime now,
                                    Watts new_power, Joules metered_total,
                                    std::int64_t queue_depth) {
  DiskTrack& track = AttachedTrack(index, "transition");

  HIB_CHECK(IsLegalTransition(from, to))
      << "disk " << track.disk_id << ": illegal transition "
      << DiskPowerStateName(from) << " -> " << DiskPowerStateName(to);
  HIB_CHECK_EQ(static_cast<int>(track.state), static_cast<int>(from))
      << "disk " << track.disk_id << ": transition from "
      << DiskPowerStateName(from) << " but validator last saw "
      << DiskPowerStateName(track.state);
  HIB_CHECK_GE(now, track.last_change)
      << "disk " << track.disk_id << ": state change went backwards in time";
  HIB_CHECK_GE(queue_depth, 0)
      << "disk " << track.disk_id << ": negative queue depth";
  if (to == DiskPowerState::kSpinningDown) {
    HIB_CHECK_EQ(queue_depth, 0)
        << "disk " << track.disk_id << ": spinning down with queued requests";
  }

  // Independent energy audit: integrate the previous state's power over the
  // time spent in it and compare against the disk's own ledger.
  track.integrated += EnergyOf(track.power, now - track.last_change);
  Joules drift = Abs(metered_total - track.integrated);
  Joules scale = std::max(Abs(track.integrated), Joules(1.0));
  HIB_CHECK_LE(drift, energy_rel_tol_ * scale)
      << "disk " << track.disk_id << ": energy ledger drift (ledger "
      << metered_total << " J vs integrated " << track.integrated << " J)";

  track.state = to;
  track.power = new_power;
  track.last_change = now;
  ++transitions_checked_;
}

}  // namespace hib

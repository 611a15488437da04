// Runtime invariant validator for the discrete-event core (debug builds).
//
// When HIB_VALIDATE is on (any build type except Release/MinSizeRel, or
// -DHIB_VALIDATE=ON), every Simulator holds a SimValidator by value and the
// simulation core reports into it:
//
//   - Simulator::RunUntil / Step  -> OnDispatch: dispatch times must be
//     monotonically non-decreasing and events must never fire in the past.
//   - Disk::EnterState            -> OnDiskTransition: the power-state change
//     must be an edge of the legal transition graph documented in disk.h
//     (e.g. kStandby -> kBusy is a bug: a spun-down disk must pass through
//     kSpinningUp and kIdle before serving), queue depths must be
//     non-negative, a disk may only start spinning down with an empty queue,
//     and the disk's energy ledger must match the validator's independent
//     integration of state power over time to 1e-6 relative tolerance.
//
// Each disk owns a track: OnDiskAttached returns its index (dense, in attach
// order, never reused) and the disk passes it back on every transition, so an
// audit is one vector access, not a pointer-keyed lookup (perfbench oltp-day,
// default seed, median of ten alternating runs on a 4-vCPU Xeon VM: 941 k
// requests/s with the lookup, 1.10 M without; see DESIGN.md).  Any use of a
// track after its detach aborts.
//
// All failures are fatal (HIB_CHECK -> abort), so GTest death tests can pin
// the diagnostics.  In Release builds nothing in the core references this
// class and validator.cc is not even compiled.
#ifndef HIBERNATOR_SRC_SIM_VALIDATOR_H_
#define HIBERNATOR_SRC_SIM_VALIDATOR_H_

#include <cstdint>
#include <vector>

#include "src/util/units.h"

namespace hib {

// Mirrors DiskPowerState without dragging disk.h into the sim layer (sim is
// below disk in the dependency order).  Values must stay in sync; disk.h
// static_asserts the correspondence.
enum class ValidatorDiskState : int {
  kIdle = 0,
  kBusy = 1,
  kChangingRpm = 2,
  kSpinningDown = 3,
  kStandby = 4,
  kSpinningUp = 5,
};

const char* ValidatorDiskStateName(ValidatorDiskState state);

class SimValidator {
 public:
  // `energy_rel_tol` bounds the allowed relative drift between a disk's own
  // energy ledger and the validator's independent power-over-time integral.
  explicit SimValidator(double energy_rel_tol = 1e-6);

  // --- Simulator hooks ------------------------------------------------------
  // Called before each event callback runs; `when` is the event's timestamp.
  void OnDispatch(SimTime when);

  // --- Disk hooks -----------------------------------------------------------
  // Opens a fresh track for a disk and returns its index.  `power` is the
  // draw of the initial state.
  std::uint32_t OnDiskAttached(int disk_id, ValidatorDiskState state, Watts power, SimTime now);

  // Closes a track (called from ~Disk).  Detaching twice aborts.
  void OnDiskDetached(std::uint32_t index);

  // Audits one power-state change on an attached track.  `new_power` is the
  // draw of `to`; `metered_total` is the disk's own DiskEnergy::Total()
  // integrated through `now`; `queue_depth` counts foreground + background
  // requests.
  void OnDiskTransition(std::uint32_t index, ValidatorDiskState from, ValidatorDiskState to,
                        SimTime now, Watts new_power, Joules metered_total,
                        std::int64_t queue_depth);

  // True when `from -> to` is an edge of the legal power-state graph.
  static bool IsLegalTransition(ValidatorDiskState from, ValidatorDiskState to);

  // --- introspection (tests) ------------------------------------------------
  std::int64_t dispatches_checked() const { return dispatches_checked_; }
  std::int64_t transitions_checked() const { return transitions_checked_; }
  // Tracks attached and not yet detached.
  std::int64_t disks_tracked() const { return disks_tracked_; }

 private:
  struct DiskTrack {
    int disk_id = -1;
    bool attached = true;
    ValidatorDiskState state = ValidatorDiskState::kIdle;
    Watts power;
    SimTime last_change;
    Joules integrated;  // validator's own sum of power * dt
  };

  // The track at `index`; aborts, naming `hook`, unless it is attached.
  DiskTrack& AttachedTrack(std::uint32_t index, const char* hook);

  double energy_rel_tol_;
  SimTime last_dispatch_;
  bool dispatched_any_ = false;
  std::int64_t dispatches_checked_ = 0;
  std::int64_t transitions_checked_ = 0;
  std::int64_t disks_tracked_ = 0;
  std::vector<DiskTrack> tracks_;  // in attach order; the index is the handle
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_SIM_VALIDATOR_H_

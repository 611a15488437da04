// Simulated multi-speed disk: request queue, mechanical service-time model,
// and a power-state machine with full energy metering.
//
// States and transitions:
//
//   IDLE <-> BUSY            (serve queued requests, FCFS; background I/O
//                             only runs when the foreground queue is empty)
//   IDLE -> CHANGING_RPM -> IDLE        (SetTargetRpm; waits for current
//                             request to finish, queues arrivals meanwhile)
//   IDLE -> SPINNING_DOWN -> STANDBY    (SpinDown, only when fully idle)
//   STANDBY -> SPINNING_UP -> IDLE      (SpinUp or demand arrival)
//
// Energy is accounted lazily: every state carries a power draw, and the meter
// integrates power over the time spent in each state, so
//   total_energy == sum over states (time_in_state * state_power)
// holds exactly (tests assert this invariant).
#ifndef HIBERNATOR_SRC_DISK_DISK_H_
#define HIBERNATOR_SRC_DISK_DISK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "src/disk/disk_params.h"
#include "src/sim/simulator.h"
#include "src/util/check.h"
#include "src/util/random.h"
#include "src/util/stats.h"
#include "src/util/units.h"

namespace hib {

enum class DiskPowerState {
  kIdle,          // spinning at current RPM, no request in service
  kBusy,          // serving a request
  kChangingRpm,   // moving the spindle between two speeds
  kSpinningDown,  // heading to standby
  kStandby,       // spun down
  kSpinningUp,    // leaving standby
};

// SimValidator mirrors this enum so the sim layer stays below the disk layer;
// keep the value mapping in lockstep (checked in every build).
static_assert(static_cast<int>(DiskPowerState::kIdle) ==
              static_cast<int>(ValidatorDiskState::kIdle));
static_assert(static_cast<int>(DiskPowerState::kBusy) ==
              static_cast<int>(ValidatorDiskState::kBusy));
static_assert(static_cast<int>(DiskPowerState::kChangingRpm) ==
              static_cast<int>(ValidatorDiskState::kChangingRpm));
static_assert(static_cast<int>(DiskPowerState::kSpinningDown) ==
              static_cast<int>(ValidatorDiskState::kSpinningDown));
static_assert(static_cast<int>(DiskPowerState::kStandby) ==
              static_cast<int>(ValidatorDiskState::kStandby));
static_assert(static_cast<int>(DiskPowerState::kSpinningUp) ==
              static_cast<int>(ValidatorDiskState::kSpinningUp));

const char* DiskPowerStateName(DiskPowerState state);

// One I/O sent to a disk.  `on_complete` fires at completion with the
// completion timestamp; `arrival` is stamped by the disk at Submit.
struct DiskRequest {
  SectorAddr sector = 0;
  SectorCount count = 8;
  bool is_write = false;
  bool background = false;  // migration traffic: served at idle priority
  SimTime arrival;
  std::function<void(SimTime)> on_complete;
};

// Cumulative energy/time ledger, broken down by power state.
struct DiskEnergy {
  Joules active;
  Joules idle;
  Joules standby;
  Joules transition;  // rpm changes + spin up/down

  Duration active_ms;
  Duration idle_ms;
  Duration standby_ms;
  Duration transition_ms;

  Joules Total() const { return active + idle + standby + transition; }
  Duration TotalMs() const { return active_ms + idle_ms + standby_ms + transition_ms; }
};

struct DiskStats {
  std::int64_t requests_completed = 0;
  std::int64_t foreground_completed = 0;
  std::int64_t background_completed = 0;
  std::int64_t sectors_read = 0;
  std::int64_t sectors_written = 0;
  std::int64_t spin_ups = 0;
  std::int64_t spin_downs = 0;
  std::int64_t rpm_changes = 0;
  RunningStats service_time_ms;    // mechanical time only
  RunningStats response_time_ms;   // queue wait + service (foreground only)

  // Rolling window counters; policies read these each epoch and call
  // ResetWindow() to start the next measurement interval.
  std::int64_t window_arrivals = 0;
  Duration window_busy_ms;
  Duration window_response_sum_ms;  // foreground completions only
  std::int64_t window_completions = 0;
  // Interarrival moments (foreground), for the arrival-burstiness estimate.
  SimTime window_prev_arrival = Ms(-1.0);
  Duration window_gap_sum_ms;
  DurationSq window_gap_sq_ms2;
  std::int64_t window_gaps = 0;

  // Squared coefficient of variation of interarrival gaps in the window;
  // 1 for Poisson, >> 1 for bursts.  Returns 1 with too little data.
  double WindowArrivalScv() const {
    if (window_gaps < 8 || window_gap_sum_ms <= Duration{}) {
      return 1.0;
    }
    Duration mean = window_gap_sum_ms / static_cast<double>(window_gaps);
    DurationSq var = window_gap_sq_ms2 / static_cast<double>(window_gaps) - mean * mean;
    return var > DurationSq{} ? var / (mean * mean) : 0.0;
  }

  void ResetWindow() {
    window_arrivals = 0;
    window_busy_ms = Duration{};
    window_response_sum_ms = Duration{};
    window_completions = 0;
    window_prev_arrival = Ms(-1.0);
    window_gap_sum_ms = Duration{};
    window_gap_sq_ms2 = DurationSq{};
    window_gaps = 0;
  }
};

class Disk {
 public:
  // `sim` must outlive the disk.  `seed` drives rotational-latency sampling.
  Disk(Simulator* sim, DiskParams params, int id, std::uint64_t seed);
  ~Disk();

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  // Enqueues a request.  A disk in standby spins up automatically.
  void Submit(DiskRequest request);

  // Requests a coarse speed change.  Takes effect once the in-flight request
  // (if any) completes; arrivals queue during the transition.  No-op if the
  // disk is already at (or already heading to) `rpm`.  `rpm` must be one of
  // the supported levels.
  void SetTargetRpm(int rpm);

  // Spins down to standby.  Returns false (and does nothing) unless the disk
  // is idle with an empty queue.
  bool SpinDown();

  // Spins up from standby toward the current target RPM.  No-op otherwise.
  void SpinUp();

  int id() const { return id_; }
  const DiskParams& params() const { return params_; }
  DiskPowerState state() const { return state_; }
  // The speed the disk is at (or heading to).
  int target_rpm() const { return params_.speeds[static_cast<std::size_t>(target_level_)].rpm; }
  int current_rpm() const { return params_.speeds[static_cast<std::size_t>(level_)].rpm; }
  int current_level() const { return level_; }

  std::size_t QueueDepth() const { return foreground_.size() + background_.size(); }
  std::size_t ForegroundQueueDepth() const { return foreground_.size(); }
  bool FullyIdle() const { return state_ == DiskPowerState::kIdle && QueueDepth() == 0; }
  // Time of the most recent arrival or completion; drives TPM idle detection.
  SimTime last_activity() const { return last_activity_; }

  // Energy metered through the current instant.
  DiskEnergy MeteredEnergy() const;

  DiskStats& stats() { return stats_; }
  const DiskStats& stats() const { return stats_; }

  // Pure service-time query (no state change): what would this request cost
  // mechanically at the given level, with average rotational latency?
  Duration ExpectedServiceTime(SectorCount count, int level) const;

  // Emits the still-open power-state residency span (the tail of the
  // timeline).  Call once at end of run, before exporting a trace.
  void FlushObs();

 private:
  void EnterState(DiskPowerState next);
  Watts StatePower(DiskPowerState state) const;
  void AccountToNow();
  void MaybeStartWork();
  void StartService();
  void FinishService(SimTime completion_time, DiskRequest request);
  void BeginRpmChange();
  void FinishRpmChange();
  void BeginSpinUp();
  void FinishSpinUp();
  void FinishSpinDown();

  Simulator* sim_;
  DiskParams params_;
  int id_;
  Pcg32 rng_;

  DiskPowerState state_ = DiskPowerState::kIdle;
  int level_;         // current speed level index
  int target_level_;  // desired level (== level_ when no change pending)
  std::int64_t head_cylinder_ = 0;
  SectorAddr next_sequential_sector_ = -1;  // end of the last transfer

  std::deque<DiskRequest> foreground_;
  std::deque<DiskRequest> background_;

  // Lazy energy metering.
  SimTime last_account_;
  Watts current_power_;
  Watts transition_power_;  // effective draw while in a transition state
  DiskEnergy energy_;

  SimTime last_activity_;
  DiskStats stats_;

  // Observability instruments, resolved once from the simulator's registry;
  // bumps go through the HIB_* macros (no-ops when HIB_OBS=0).
  Counter* obs_spin_ups_;
  Counter* obs_spin_downs_;
  Counter* obs_rpm_changes_;
  LogLinearHistogram* obs_queue_wait_ms_;
  LogLinearHistogram* obs_service_ms_;
  SimTime obs_state_since_;           // start of the current power-state span
  std::uint32_t obs_subop_seq_ = 0;   // per-disk sub-op trace id counter
#if HIB_VALIDATE
  std::uint32_t validator_track_ = 0;  // this disk's SimValidator track index
#endif
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_DISK_DISK_H_

// Multi-speed disk model parameters.
//
// Hibernator's evaluation assumed multi-speed disks extrapolated from the IBM
// Ultrastar 36Z15 (15,000 RPM), following the DRPM model of Gurumurthi et al.
// (ISCA 2003): spindle power scales roughly with RPM^2.8, rotational latency
// and media transfer rate scale linearly with RPM, and changing RPM takes
// seconds (not milliseconds), which is exactly why Hibernator changes speeds
// only at coarse epoch boundaries.
//
// MakeUltrastar36Z15MultiSpeed() builds that disk with a configurable number
// of evenly spaced RPM levels between 3,000 and 15,000.
#ifndef HIBERNATOR_SRC_DISK_DISK_PARAMS_H_
#define HIBERNATOR_SRC_DISK_DISK_PARAMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/units.h"

namespace hib {

// Three-point seek curve (DiskSim's simplest calibrated model): single
// cylinder, average (1/3 stroke), and full stroke, interpolated with the
// standard sqrt/linear blend.
struct SeekModel {
  Duration single_cyl_ms = Ms(0.6);
  Duration average_ms = Ms(3.4);
  Duration full_stroke_ms = Ms(6.5);

  // Seek time for a move of `distance` cylinders on a disk with
  // `num_cylinders` cylinders total.  Zero distance costs nothing.
  Duration SeekTime(std::int64_t distance, std::int64_t num_cylinders) const;
};

// One spindle speed the disk supports.
struct SpeedLevel {
  int rpm = 15000;
  Watts idle_power = Watts(10.2);    // platters spinning, heads parked, no I/O
  Watts active_power = Watts(13.5);  // seeking / transferring

  AngularVelocity Speed() const { return Rpm(static_cast<double>(rpm)); }
  Duration RevolutionMs() const { return Rev(1.0) / Speed(); }
};

struct DiskParams {
  std::string model_name = "generic";

  // Geometry.  Capacity = cylinders * tracks_per_cylinder * sectors_per_track.
  std::int64_t num_cylinders = 15110;
  int tracks_per_cylinder = 8;
  int sectors_per_track = 600;

  SeekModel seek;
  Duration write_settle_ms = Ms(0.3);  // extra head-settle charged to writes

  // Supported speeds, sorted ascending by RPM.  A single entry models a
  // conventional fixed-speed disk.
  std::vector<SpeedLevel> speeds;

  // Standby (spun down) state.
  Watts standby_power = Watts(1.5);
  Duration spin_down_ms = Ms(1500.0);   // full speed -> standby
  Joules spin_down_energy = Joules(13.0);
  Duration spin_up_full_ms = Ms(10900.0);  // standby -> full speed
  Joules spin_up_full_energy = Joules(135.0);

  // Seconds to swing the spindle across the full RPM range; a transition of
  // |delta| RPM takes full_swing * |delta| / (max - min).
  Duration rpm_full_swing_ms = Ms(8000.0);

  std::int64_t TotalSectors() const {
    return num_cylinders * tracks_per_cylinder * sectors_per_track;
  }
  std::int64_t SectorsPerCylinder() const {
    return static_cast<std::int64_t>(tracks_per_cylinder) * sectors_per_track;
  }

  int num_speeds() const { return static_cast<int>(speeds.size()); }
  int min_rpm() const { return speeds.front().rpm; }
  int max_rpm() const { return speeds.back().rpm; }

  // Index of the level with exactly `rpm`; -1 if unsupported.
  int LevelOf(int rpm) const;

  // Media transfer time for `count` sectors at `rpm` (sequential, no seek).
  Duration TransferTime(SectorCount count, int rpm) const;

  // Time to move the spindle between two supported speeds.
  Duration RpmTransitionTime(int from_rpm, int to_rpm) const;

  // Energy drawn during that transition (charged at the higher level's
  // active power — accelerating costs at least as much as running).
  Joules RpmTransitionEnergy(int from_rpm, int to_rpm) const;

  // Spin-up time/energy from standby to `rpm` (scales with target speed).
  Duration SpinUpTime(int rpm) const;
  Joules SpinUpEnergy(int rpm) const;

  // Validates internal consistency (sorted speeds, positive geometry, ...).
  // Returns an empty string when valid, else a description of the problem.
  std::string Validate() const;
};

// The DRPM-style spindle power law: electronics + k * (rpm/rpm_max)^2.8.
Watts IdlePowerAtRpm(int rpm, int max_rpm, Watts idle_at_max, Watts electronics = Watts(2.5));
Watts ActivePowerAtRpm(int rpm, int max_rpm, Watts idle_at_max,
                       Watts active_extra = Watts(3.3), Watts electronics = Watts(2.5));

// The Hibernator evaluation disk's spindle range.  Its levels are whole RPMs,
// so it has at most kUltrastarMaxSpeedLevels distinct ones.
inline constexpr int kUltrastarMinRpm = 3000;
inline constexpr int kUltrastarMaxRpm = 15000;
inline constexpr int kUltrastarMaxSpeedLevels = kUltrastarMaxRpm - kUltrastarMinRpm + 1;

// Builds the Hibernator evaluation disk: IBM Ultrastar 36Z15 extrapolated to
// `num_levels` evenly spaced speeds in [3000, 15000] RPM, with 1 <= num_levels
// <= kUltrastarMaxSpeedLevels.  num_levels == 1 yields the conventional fixed
// 15k disk; 2 yields {3k, 15k}; 5 (the paper's default) yields
// {3k, 6k, 9k, 12k, 15k}.
DiskParams MakeUltrastar36Z15MultiSpeed(int num_levels = 5);

}  // namespace hib

#endif  // HIBERNATOR_SRC_DISK_DISK_PARAMS_H_

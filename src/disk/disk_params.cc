#include "src/disk/disk_params.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/util/check.h"

namespace hib {

Duration SeekModel::SeekTime(std::int64_t distance, std::int64_t num_cylinders) const {
  if (distance <= 0) {
    return Duration{};
  }
  if (num_cylinders < 2) {
    return single_cyl_ms;
  }
  // DiskSim-style blend: sqrt growth out to the 1/3-stroke "average" point,
  // linear growth from there to full stroke.
  double avg_dist = static_cast<double>(num_cylinders) / 3.0;
  double d = static_cast<double>(distance);
  if (d <= avg_dist) {
    double frac = std::sqrt(d / avg_dist);
    return single_cyl_ms + (average_ms - single_cyl_ms) * frac;
  }
  double full = static_cast<double>(num_cylinders - 1);
  double frac = (d - avg_dist) / std::max(1.0, full - avg_dist);
  frac = std::min(frac, 1.0);
  return average_ms + (full_stroke_ms - average_ms) * frac;
}

int DiskParams::LevelOf(int rpm) const {
  for (int i = 0; i < num_speeds(); ++i) {
    if (speeds[static_cast<std::size_t>(i)].rpm == rpm) {
      return i;
    }
  }
  return -1;
}

Duration DiskParams::TransferTime(SectorCount count, int rpm) const {
  if (count <= 0) {
    return Duration{};
  }
  Duration rev_ms = Rev(1.0) / Rpm(static_cast<double>(rpm));
  return static_cast<double>(count) / static_cast<double>(sectors_per_track) * rev_ms;
}

Duration DiskParams::RpmTransitionTime(int from_rpm, int to_rpm) const {
  if (from_rpm == to_rpm) {
    return Duration{};
  }
  double swing = static_cast<double>(max_rpm() - min_rpm());
  if (swing <= 0.0) {
    return Duration{};
  }
  double delta = std::abs(static_cast<double>(to_rpm - from_rpm));
  return rpm_full_swing_ms * delta / swing;
}

Joules DiskParams::RpmTransitionEnergy(int from_rpm, int to_rpm) const {
  Duration t = RpmTransitionTime(from_rpm, to_rpm);
  int hi = std::max(from_rpm, to_rpm);
  int level = LevelOf(hi);
  Watts p = level >= 0 ? speeds[static_cast<std::size_t>(level)].active_power
                       : speeds.back().active_power;
  return EnergyOf(p, t);
}

Duration DiskParams::SpinUpTime(int rpm) const {
  return spin_up_full_ms * static_cast<double>(rpm) / static_cast<double>(max_rpm());
}

Joules DiskParams::SpinUpEnergy(int rpm) const {
  // Kinetic energy scales with rpm^2; drag during ramp roughly follows suit.
  double frac = static_cast<double>(rpm) / static_cast<double>(max_rpm());
  return spin_up_full_energy * frac * frac;
}

std::string DiskParams::Validate() const {
  std::ostringstream err;
  if (speeds.empty()) {
    err << "no speed levels; ";
  }
  for (std::size_t i = 1; i < speeds.size(); ++i) {
    if (speeds[i].rpm <= speeds[i - 1].rpm) {
      err << "speeds not strictly ascending at index " << i << "; ";
    }
  }
  for (const auto& s : speeds) {
    if (s.rpm <= 0 || s.idle_power <= Watts{} || s.active_power < s.idle_power) {
      err << "bad speed level rpm=" << s.rpm << "; ";
    }
  }
  if (num_cylinders <= 0 || tracks_per_cylinder <= 0 || sectors_per_track <= 0) {
    err << "bad geometry; ";
  }
  if (seek.single_cyl_ms < Duration{} || seek.average_ms < seek.single_cyl_ms ||
      seek.full_stroke_ms < seek.average_ms) {
    err << "seek curve not monotone; ";
  }
  if (standby_power < Watts{} || spin_down_ms < Duration{} || spin_up_full_ms < Duration{}) {
    err << "bad standby parameters; ";
  }
  return err.str();
}

Watts IdlePowerAtRpm(int rpm, int max_rpm, Watts idle_at_max, Watts electronics) {
  // The DRPM RPM^2.8 law on the dimensionless speed ratio.
  double frac = Rpm(static_cast<double>(rpm)) / Rpm(static_cast<double>(max_rpm));
  return electronics + (idle_at_max - electronics) * std::pow(frac, 2.8);
}

Watts ActivePowerAtRpm(int rpm, int max_rpm, Watts idle_at_max, Watts active_extra,
                       Watts electronics) {
  return IdlePowerAtRpm(rpm, max_rpm, idle_at_max, electronics) + active_extra;
}

DiskParams MakeUltrastar36Z15MultiSpeed(int num_levels) {
  DiskParams p;
  p.model_name = "IBM Ultrastar 36Z15 (multi-speed)";
  p.num_cylinders = 15110;
  p.tracks_per_cylinder = 8;
  p.sectors_per_track = 600;  // ~36.7 GB total
  p.seek = SeekModel{Ms(0.6), Ms(3.4), Ms(6.5)};
  p.write_settle_ms = Ms(0.3);
  p.standby_power = Watts(1.5);
  p.spin_down_ms = Ms(1500.0);
  p.spin_down_energy = Joules(13.0);
  p.spin_up_full_ms = Ms(10900.0);
  p.spin_up_full_energy = Joules(135.0);
  p.rpm_full_swing_ms = Ms(8000.0);

  HIB_CHECK(num_levels >= 1 && num_levels <= kUltrastarMaxSpeedLevels)
      << "the Ultrastar model has 1 to " << kUltrastarMaxSpeedLevels << " speed levels, not "
      << num_levels;
  constexpr Watts kIdleAtMax = Watts(10.2);
  p.speeds.clear();
  if (num_levels == 1) {
    p.speeds.push_back(
        SpeedLevel{kUltrastarMaxRpm, kIdleAtMax,
                   ActivePowerAtRpm(kUltrastarMaxRpm, kUltrastarMaxRpm, kIdleAtMax)});
  } else {
    for (int i = 0; i < num_levels; ++i) {
      int rpm = kUltrastarMinRpm + (kUltrastarMaxRpm - kUltrastarMinRpm) * i / (num_levels - 1);
      p.speeds.push_back(SpeedLevel{rpm, IdlePowerAtRpm(rpm, kUltrastarMaxRpm, kIdleAtMax),
                                    ActivePowerAtRpm(rpm, kUltrastarMaxRpm, kIdleAtMax)});
    }
  }
  return p;
}

}  // namespace hib

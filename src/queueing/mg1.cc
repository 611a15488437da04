#include "src/queueing/mg1.h"

#include <algorithm>
#include <limits>

namespace hib {

double Mg1Model::Utilization(Frequency lambda, Duration mean_service) {
  return lambda * mean_service;
}

Duration Mg1Model::ResponseTime(Frequency lambda, Duration mean_service, double scv) {
  return mean_service + WaitTime(lambda, mean_service, scv);
}

Duration Mg1Model::WaitTime(Frequency lambda, Duration mean_service, double scv) {
  double rho = Utilization(lambda, mean_service);
  if (rho >= 1.0) {
    return std::numeric_limits<Duration>::infinity();
  }
  if (rho <= 0.0) {
    return Duration{};
  }
  // P-K: W = lambda * E[S^2] / (2 (1 - rho)), with E[S^2] = S^2 (1 + c2).
  // Dimensions: Frequency * DurationSq -> Duration.
  return lambda * (mean_service * mean_service) * (1.0 + scv) / (2.0 * (1.0 - rho));
}

Duration Mg1Model::Gg1ResponseTime(Frequency lambda, Duration mean_service, double scv,
                                   double arrival_scv) {
  Duration wait = WaitTime(lambda, mean_service, scv);
  double factor = (arrival_scv + scv) / (1.0 + scv);
  return mean_service + wait * std::max(0.0, factor);
}

SpeedServiceModel SpeedServiceModel::FromDisk(const DiskParams& disk,
                                              double mean_request_sectors,
                                              double write_fraction) {
  SpeedServiceModel model;
  model.levels.reserve(disk.speeds.size());
  for (const SpeedLevel& lvl : disk.speeds) {
    PerLevel entry;
    entry.rpm = lvl.rpm;
    Duration rev = lvl.RevolutionMs();
    Duration seek_mean = disk.seek.average_ms;
    Duration rot_mean = 0.5 * rev;
    Duration xfer = disk.TransferTime(static_cast<SectorCount>(mean_request_sectors), lvl.rpm);
    Duration settle = write_fraction * disk.write_settle_ms;
    entry.mean_ms = seek_mean + rot_mean + xfer + settle;

    // Variance: uniform rotational latency contributes rev^2/12; seek spread
    // is approximated as 40% of the mean seek (matches the 3-point curve's
    // dispersion for random access).
    DurationSq var = rev * rev / 12.0;
    Duration seek_sd = 0.4 * seek_mean;
    var += seek_sd * seek_sd;
    entry.scv = entry.mean_ms > Duration{} ? var / (entry.mean_ms * entry.mean_ms) : 0.0;
    model.levels.push_back(entry);
  }
  return model;
}

}  // namespace hib

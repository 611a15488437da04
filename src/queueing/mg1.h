// Open M/G/1 queueing model used by Hibernator's CR algorithm to predict the
// per-disk average response time at each candidate speed before committing to
// a reconfiguration.
//
// For a disk receiving Poisson arrivals at rate lambda with mean service time
// S and squared coefficient of variation c2 (Var[S]/S^2), Pollaczek-Khinchine
// gives the mean response time
//
//   R = S + lambda * S^2 * (1 + c2) / (2 * (1 - lambda * S))
//
// which diverges as utilization rho = lambda * S approaches 1.
#ifndef HIBERNATOR_SRC_QUEUEING_MG1_H_
#define HIBERNATOR_SRC_QUEUEING_MG1_H_

#include <vector>

#include "src/disk/disk_params.h"
#include "src/obs/metrics.h"
#include "src/util/units.h"

namespace hib {

// Optional instrumentation feed for analytic evaluations (CR's candidate
// search).  Null pointers make Observe a no-op, so callers wire it only when
// a registry is in play (the Hibernator policy does; direct SolveCr callers
// need not).
struct QueueingTelemetry {
  Counter* evaluations = nullptr;
  LogLinearHistogram* predicted_response_ms = nullptr;

  void Observe(Duration predicted) {
    if (evaluations != nullptr) {
      evaluations->Add(1);
    }
    if (predicted_response_ms != nullptr && IsFinite(predicted)) {
      // Duration / Duration is dimensionless: this is metric output.
      predicted_response_ms->Record(predicted / Ms(1.0));
    }
  }
};

class Mg1Model {
 public:
  // rho = lambda * S (dimensionless; the Frequency*Duration product).
  static double Utilization(Frequency lambda, Duration mean_service);

  // Mean response time; +infinity when rho >= 1 (unstable).
  static Duration ResponseTime(Frequency lambda, Duration mean_service, double scv);

  // Mean waiting time only.
  static Duration WaitTime(Frequency lambda, Duration mean_service, double scv);

  // G/G/1 approximation (Allen-Cunneen): scales the M/G/1 wait by
  // (ca2 + cs2) / (1 + cs2), where ca2 is the squared coefficient of
  // variation of interarrival times (1 = Poisson).  Bursty arrival streams
  // (ca2 >> 1, e.g. file-server traffic) queue far worse than Poisson, and
  // CR must know it before slowing a disk into a burst.
  static Duration Gg1ResponseTime(Frequency lambda, Duration mean_service, double scv,
                                  double arrival_scv);
};

// Per-speed-level service-time statistics for a given request mix, derived
// analytically from the disk's mechanical parameters: mean = average seek +
// half revolution + transfer (+ write settle), variance from the uniform
// rotational latency plus seek spread.
struct SpeedServiceModel {
  struct PerLevel {
    int rpm = 0;
    Duration mean_ms;
    double scv = 0.0;  // squared coefficient of variation of service time
  };

  std::vector<PerLevel> levels;

  // `mean_request_sectors` and `write_fraction` describe the workload mix.
  static SpeedServiceModel FromDisk(const DiskParams& disk, double mean_request_sectors,
                                    double write_fraction);

  const PerLevel& Level(int level) const { return levels[static_cast<std::size_t>(level)]; }
  int num_levels() const { return static_cast<int>(levels.size()); }
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_QUEUEING_MG1_H_

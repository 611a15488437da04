// Experiment harness: replays a workload against an array under a policy and
// collects the paper's metrics (energy by component, response-time
// distribution, transitions, migration volume, and a time series for the
// dynamics figures).
#ifndef HIBERNATOR_SRC_HARNESS_EXPERIMENT_H_
#define HIBERNATOR_SRC_HARNESS_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/array/array.h"
#include "src/policy/policy.h"
#include "src/trace/trace.h"

namespace hib {

// One sample of the run's dynamics (taken every sample_period_ms).
struct SeriesPoint {
  SimTime t;
  Duration window_mean_response_ms;  // mean over the sample window
  Joules energy_so_far;
  std::vector<int> disks_at_level;  // data disks per RPM level
  int disks_standby = 0;            // data disks in/entering standby
};

struct ExperimentResult {
  std::string policy_name;
  std::string policy_desc;
  Duration sim_duration_ms;

  Joules energy_total;
  DiskEnergy energy;  // component breakdown

  std::int64_t requests = 0;
  std::uint64_t events = 0;  // simulator events dispatched during the run
  Duration mean_response_ms;
  Duration p95_response_ms;
  Duration p99_response_ms;
  Duration max_response_ms;
  double cache_hit_rate = 0.0;

  std::int64_t spin_ups = 0;
  std::int64_t spin_downs = 0;
  std::int64_t rpm_changes = 0;
  std::int64_t migrations = 0;
  std::int64_t migrated_sectors = 0;

  std::vector<SeriesPoint> series;

  // Snapshot of the run's metrics registry (counters/gauges/histograms from
  // src/obs), taken after the policy's Finish() and the array's FlushObs()
  // have published their end-of-run counts.
  MetricsSnapshot metrics;

  // Mean power over the run; Joules / Duration is a Watts.
  Watts MeanPower() const {
    return sim_duration_ms > Duration{} ? energy_total / sim_duration_ms : Watts{};
  }
  // Fractional energy saved relative to a baseline run (positive = saved).
  double SavingsVs(const ExperimentResult& base) const {
    return base.energy_total > Joules{} ? 1.0 - energy_total / base.energy_total : 0.0;
  }
};

struct ExperimentOptions {
  Duration drain_ms = Seconds(30.0);
  Duration sample_period_ms = Hours(0.25);
  bool collect_series = false;
  // Capacity hint for the event queue (concurrently *pending* events, not
  // total events fired): covers per-disk in-flight service completions,
  // policy timers and the injector's next arrival, so multi-million-event
  // runs never reallocate the heap or the slot arena mid-run.  0 = auto:
  // derived from the array size and the workload's PeakIopsHint() (see
  // EventCapacityHintFor), never below the old fixed default of 4096.
  std::size_t event_capacity_hint = 0;

  // A nonempty `trace_out` enables the tracer for the run and writes a
  // Chrome/Perfetto trace_event JSON file at the end; `metrics_out` writes
  // the metrics snapshot as JSON.
  std::string trace_out;
  std::string metrics_out;
};

// Event-queue capacity to reserve for an array of this size under a workload
// with the given peak arrival rate (requests/second; 0 = unknown), clamped to
// [4096, 1 << 20].  Used when ExperimentOptions::event_capacity_hint is 0.
std::size_t EventCapacityHintFor(const ArrayParams& array_params, double peak_iops);

// Pull-driven injector: keeps one arrival of `workload` (from its current
// position) scheduled at a time, so multi-million-request traces never sit
// in the event queue at once.  With a positive `stop`, the first record
// stamped after it ends the injection.  Scheduled arrivals point back at the
// injector: it must outlive the run.
class TraceInjector {
 public:
  TraceInjector(Simulator* sim, ArrayController* array, WorkloadSource* workload,
                SimTime stop = SimTime{})
      : sim_(sim), array_(array), workload_(workload), stop_(stop) {}
  TraceInjector(const TraceInjector&) = delete;
  TraceInjector& operator=(const TraceInjector&) = delete;

  void Start() { ScheduleNext(); }

 private:
  void ScheduleNext();

  Simulator* sim_;
  ArrayController* array_;
  WorkloadSource* workload_;
  SimTime stop_;
};

// Replays `workload` (from its current position; call Reset() first for a
// fresh pass) through a new array configured by `array_params`, managed by
// `policy`.  Deterministic: identical inputs give identical results.
ExperimentResult RunExperiment(WorkloadSource& workload, PowerPolicy& policy,
                               const ArrayParams& array_params,
                               const ExperimentOptions& options = {});

// --- Standard configurations shared by benches, examples and tests --------

// The OLTP setup: 20 data disks in width-4 RAID5 groups, 5-speed disks,
// 24-hour synthetic TPC-C-like stream.
struct OltpSetup {
  ArrayParams array;
  // Workload parameters (pass to OltpWorkload).
  double peak_iops = 300.0;
  double trough_iops = 90.0;
  Duration duration_ms = Hours(24.0);
};
OltpSetup MakeOltpSetup(int speed_levels = 5);

// The Cello setup: 12 data disks, bursty diurnal file-server stream.
struct CelloSetup {
  ArrayParams array;
  double peak_iops = 90.0;
  double trough_iops = 4.0;
  Duration duration_ms = Hours(24.0);
};
CelloSetup MakeCelloSetup(int speed_levels = 5);

// Measures the Base (full-power) mean response time for a setup; the
// performance goals of all other schemes are expressed as multiples of this.
// Runs only the first `probe_ms` (> 0) of the workload, for speed.
Duration MeasureBaseResponseMs(WorkloadSource& workload, const ArrayParams& array_params,
                             Duration probe_ms);

}  // namespace hib

#endif  // HIBERNATOR_SRC_HARNESS_EXPERIMENT_H_

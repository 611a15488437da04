#include "src/harness/experiment.h"

#include <algorithm>

#include "src/obs/export.h"
#include "src/policy/full_power.h"
#include "src/trace/synthetic.h"
#include "src/util/check.h"

namespace hib {

void TraceInjector::ScheduleNext() {
  TraceRecord rec;
  if (!workload_->Next(&rec) || (stop_ > SimTime{} && rec.time > stop_)) {
    return;
  }
  sim_->ScheduleAt(rec.time, [this, rec] {
    array_->Submit(rec);
    ScheduleNext();
  });
}

std::size_t EventCapacityHintFor(const ArrayParams& array_params, double peak_iops) {
  // Pending (not total) events: one injector arrival, at most a handful of
  // timers per disk (service completion, spin/speed transitions), policy
  // timers, and one cache-hit completion per in-flight request — the latter
  // scales with the arrival rate.  The floor keeps the hint no smaller than
  // the old fixed default, so existing runs can only gain headroom; the
  // ceiling stops an absurd rate reserving gigabytes (the queue still grows
  // on demand).  Clamping before the cast keeps any rate in range.
  int disks = array_params.num_disks + array_params.num_cache_disks;
  double wanted = 64.0 * disks + 4.0 * (peak_iops > 0.0 ? peak_iops : 0.0);
  return static_cast<std::size_t>(std::clamp(wanted, 4096.0, 1048576.0));
}

ExperimentResult RunExperiment(WorkloadSource& workload, PowerPolicy& policy,
                               const ArrayParams& array_params,
                               const ExperimentOptions& options) {
  Simulator sim;
  sim.ReserveEvents(options.event_capacity_hint > 0
                        ? options.event_capacity_hint
                        : EventCapacityHintFor(array_params, workload.PeakIopsHint()));
  if (!options.trace_out.empty()) {
    sim.obs().tracer.Enable();
  }
  ArrayController array(&sim, array_params);
  policy.Attach(&sim, &array);

  TraceInjector injector(&sim, &array, &workload);
  injector.Start();

  ExperimentResult result;
  result.policy_name = policy.Name();
  result.policy_desc = policy.Describe();
  if (options.collect_series) {
    Duration hint_ms = workload.DurationHint();
    if (hint_ms > Duration{} && options.sample_period_ms > Duration{}) {
      result.series.reserve(static_cast<std::size_t>(hint_ms / options.sample_period_ms) + 2);
    }
  }

  // Time-series sampler (driven off cumulative counters so it never
  // interferes with the policies' own measurement windows).
  Duration sampled_sum;
  std::int64_t sampled_count = 0;
  if (options.collect_series) {
    sim.SchedulePeriodic(options.sample_period_ms, options.sample_period_ms, [&] {
      const ArrayStats& st = array.stats();
      SeriesPoint p;
      p.t = sim.Now();
      Duration dsum = st.total_response_sum_ms - sampled_sum;
      std::int64_t dcount = st.total_responses - sampled_count;
      sampled_sum = st.total_response_sum_ms;
      sampled_count = st.total_responses;
      p.window_mean_response_ms = dcount > 0 ? dsum / static_cast<double>(dcount) : Duration{};
      p.energy_so_far = array.TotalEnergy().Total();
      p.disks_at_level.assign(static_cast<std::size_t>(array_params.disk.num_speeds()), 0);
      for (int i = 0; i < array.num_data_disks(); ++i) {
        const Disk& d = array.disk(i);
        switch (d.state()) {
          case DiskPowerState::kStandby:
          case DiskPowerState::kSpinningDown:
          case DiskPowerState::kSpinningUp:
            ++p.disks_standby;
            break;
          default:
            ++p.disks_at_level[static_cast<std::size_t>(d.current_level())];
            break;
        }
      }
      result.series.push_back(std::move(p));
    });
  }

  // Replay horizon: the trace duration (when the source knows it) plus a
  // drain allowance so in-flight sub-ops finish.  Policies keep periodic
  // timers armed forever, so the run must be bounded externally.  Sources
  // with unknown length (file readers) are discovered in one-hour slices —
  // the run ends after the first slice that completes no new requests.
  Duration hint = workload.DurationHint();
  if (hint > Duration{}) {
    sim.RunUntil(hint + options.drain_ms);
  } else {
    std::int64_t last_completed = -1;
    SimTime horizon;
    while (true) {
      horizon += Hours(1.0);
      sim.RunUntil(horizon);
      std::int64_t completed = array.stats().total_responses;
      if (completed == last_completed) {
        break;
      }
      last_completed = completed;
    }
    sim.RunUntil(sim.Now() + options.drain_ms);
  }
  policy.Finish();
  array.FlushObs();  // close every disk's open power-state span

  result.sim_duration_ms = sim.Now();
  result.events = sim.events_fired();
  DiskEnergy energy = array.TotalEnergy();
  result.energy = energy;
  result.energy_total = energy.Total();

  ArrayStats& st = array.stats();
  result.requests = st.total_responses;
  result.mean_response_ms = Ms(st.response_ms.mean());
  result.p95_response_ms = Ms(st.response_pct.Percentile(95.0));
  result.p99_response_ms = Ms(st.response_pct.Percentile(99.0));
  result.max_response_ms = Ms(st.response_ms.max());
  result.cache_hit_rate = array.cache().HitRate();
  result.migrations = st.migrations_completed;
  result.migrated_sectors = st.migrated_sectors;
  for (int i = 0; i < array.num_disks_total(); ++i) {
    const DiskStats& ds = array.disk(i).stats();
    result.spin_ups += ds.spin_ups;
    result.spin_downs += ds.spin_downs;
    result.rpm_changes += ds.rpm_changes;
  }
  result.metrics = sim.obs().metrics.Snapshot();
  if (!options.trace_out.empty()) {
    WriteChromeTraceFile(options.trace_out, sim.obs().tracer);
  }
  if (!options.metrics_out.empty()) {
    WriteMetricsJsonFile(options.metrics_out, result.metrics);
  }
  return result;
}

OltpSetup MakeOltpSetup(int speed_levels) {
  OltpSetup setup;
  setup.array.num_disks = 20;
  setup.array.group_width = 4;
  setup.array.disk = MakeUltrastar36Z15MultiSpeed(speed_levels);
  setup.array.cache_lines = 2048;
  setup.array.seed = 1001;
  return setup;
}

CelloSetup MakeCelloSetup(int speed_levels) {
  CelloSetup setup;
  setup.array.num_disks = 12;
  setup.array.group_width = 4;
  setup.array.disk = MakeUltrastar36Z15MultiSpeed(speed_levels);
  setup.array.cache_lines = 2048;
  setup.array.seed = 2002;
  return setup;
}

Duration MeasureBaseResponseMs(WorkloadSource& workload, const ArrayParams& array_params,
                             Duration probe_ms) {
  HIB_CHECK_GT(probe_ms, Duration{}) << "the Base probe needs a positive length";
  Simulator sim;
  ArrayController array(&sim, array_params);
  FullPowerPolicy base;
  base.Attach(&sim, &array);
  workload.Reset();
  TraceInjector injector(&sim, &array, &workload, probe_ms);
  injector.Start();
  sim.RunUntil(probe_ms + Seconds(30.0));
  workload.Reset();
  return Ms(array.stats().response_ms.mean());
}

}  // namespace hib

#include "perfbench/ledger.h"

#include "src/util/check.h"

namespace perfbench {

bool CountingSource::Next(hib::TraceRecord* out) {
  if (calls_++ % kBatch == 0) {
    marks_.push_back(Clock::now());
  }
  bool ok;
  if (timed_) {
    Clock::time_point t0 = Clock::now();
    ok = inner_->Next(out);
    next_ns_ += NsBetween(t0, Clock::now());
  } else {
    ok = inner_->Next(out);
  }
  yielded_ += ok ? 1 : 0;
  return ok;
}

void LayerTimes::Add(const LayerTimes& other) {
  run_ns += other.run_ns;
  next_ns += other.next_ns;
  submit_ns += other.submit_ns;
  run_until_ns += other.run_until_ns;
  nested_next_ns += other.nested_next_ns;
  next_calls += other.next_calls;
  submit_calls += other.submit_calls;
  events += other.events;
}

namespace {

// RunExperiment's pull-driven injector, with ArrayController::Submit timed.
class TimedInjector {
 public:
  TimedInjector(hib::Simulator* sim, hib::ArrayController* array, hib::WorkloadSource* workload,
                LayerTimes* times)
      : sim_(sim), array_(array), workload_(workload), times_(times) {}

  void Start() { ScheduleNext(); }

 private:
  void ScheduleNext() {
    hib::TraceRecord rec;
    if (!workload_->Next(&rec)) {
      return;
    }
    sim_->ScheduleAt(rec.time, [this, rec] {
      Clock::time_point t0 = Clock::now();
      array_->Submit(rec);
      times_->submit_ns += NsBetween(t0, Clock::now());
      ++times_->submit_calls;
      ScheduleNext();
    });
  }

  hib::Simulator* sim_;
  hib::ArrayController* array_;
  hib::WorkloadSource* workload_;
  LayerTimes* times_;
};

}  // namespace

TracedRun RunTraced(hib::WorkloadSource& workload, hib::PowerPolicy& policy,
                    const hib::ArrayParams& array_params,
                    const hib::ExperimentOptions& options) {
  hib::Duration hint = workload.DurationHint();
  HIB_CHECK(hint > hib::Duration{}) << "traced runs need a source with a known duration";

  TracedRun run;
  CountingSource timed(&workload, /*timed=*/true);
  hib::ExperimentResult& result = run.result;

  // Scoped so tearing down the simulator and array is timed, as it is in
  // RunExperiment's untraced runs.
  {
    hib::Simulator sim;
    sim.ReserveEvents(options.event_capacity_hint > 0
                          ? options.event_capacity_hint
                          : hib::EventCapacityHintFor(array_params, timed.PeakIopsHint()));
    hib::ArrayController array(&sim, array_params);
    policy.Attach(&sim, &array);
    TimedInjector injector(&sim, &array, &timed, &run.times);
    injector.Start();

    result.policy_name = policy.Name();
    result.policy_desc = policy.Describe();

    double next_before = timed.next_ns();
    Clock::time_point t0 = Clock::now();
    sim.RunUntil(hint + options.drain_ms);
    run.times.run_until_ns = NsBetween(t0, Clock::now());
    run.times.nested_next_ns = timed.next_ns() - next_before;

    policy.Finish();
    array.FlushObs();

    // Collected exactly as RunExperiment collects them.
    result.sim_duration_ms = sim.Now();
    result.events = sim.events_fired();
    hib::DiskEnergy energy = array.TotalEnergy();
    result.energy = energy;
    result.energy_total = energy.Total();
    hib::ArrayStats& st = array.stats();
    result.requests = st.total_responses;
    result.mean_response_ms = hib::Ms(st.response_ms.mean());
    result.p95_response_ms = hib::Ms(st.response_pct.Percentile(95.0));
    result.p99_response_ms = hib::Ms(st.response_pct.Percentile(99.0));
    result.max_response_ms = hib::Ms(st.response_ms.max());
    result.cache_hit_rate = array.cache().HitRate();
    result.migrations = st.migrations_completed;
    result.migrated_sectors = st.migrated_sectors;
    for (int i = 0; i < array.num_disks_total(); ++i) {
      const hib::DiskStats& ds = array.disk(i).stats();
      result.spin_ups += ds.spin_ups;
      result.spin_downs += ds.spin_downs;
      result.rpm_changes += ds.rpm_changes;
    }
    result.metrics = sim.obs().metrics.Snapshot();
    run.in_flight_after_drain = array.InFlightRequests();
  }
  run.first_next = timed.first_call();
  run.times.run_ns = NsBetween(run.first_next, Clock::now());
  run.times.next_ns = timed.next_ns();
  run.times.next_calls = timed.calls();
  run.times.events = result.events;
  run.yielded = timed.yielded();
  return run;
}

}  // namespace perfbench

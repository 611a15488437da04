#include "src/policy/drpm.h"

#include <sstream>

namespace hib {

namespace {
constexpr double kUtilizationLow = 0.25;   // step down below this busy fraction
constexpr double kUtilizationHigh = 0.70;  // step up above this busy fraction
}  // namespace

std::string DrpmPolicy::Describe() const {
  std::ostringstream out;
  out << "DRPM(period=" << ToSeconds(params_.control_period_ms)
      << "s, up_q=" << params_.queue_up_watermark << ", low_util=" << kUtilizationLow
      << ")";
  return out.str();
}

void DrpmPolicy::Attach(Simulator* sim, ArrayController* array) {
  sim_ = sim;
  array_ = array;
  sim_->SchedulePeriodic(params_.control_period_ms, params_.control_period_ms,
                         [this] { ControlTick(); });
}

void DrpmPolicy::ControlTick() {
  for (int i = 0; i < array_->num_data_disks(); ++i) {
    Disk& disk = array_->disk(i);
    const DiskParams& dp = disk.params();
    DiskStats& st = disk.stats();
    double utilization = st.window_busy_ms / params_.control_period_ms;
    std::size_t depth = disk.ForegroundQueueDepth();
    st.ResetWindow();

    if (depth >= params_.queue_up_watermark) {
      disk.SetTargetRpm(dp.max_rpm());
      sim_->obs().metrics.GetCounter("policy.rpm_up_decisions").Add(1);
      HIB_TRACE_INSTANT(sim_->obs().tracer, SpanKind::kDecision, kTrackPolicy, "rpm-max",
                        sim_->Now(), i, static_cast<double>(dp.max_rpm()));
      continue;
    }
    int level = dp.LevelOf(disk.target_rpm());
    if (utilization > kUtilizationHigh && level < dp.num_speeds() - 1) {
      disk.SetTargetRpm(dp.speeds[static_cast<std::size_t>(level + 1)].rpm);
      sim_->obs().metrics.GetCounter("policy.rpm_up_decisions").Add(1);
      HIB_TRACE_INSTANT(sim_->obs().tracer, SpanKind::kDecision, kTrackPolicy, "rpm-up",
                        sim_->Now(), i, static_cast<double>(disk.target_rpm()));
    } else if (depth == 0 && utilization < kUtilizationLow && level > 0) {
      disk.SetTargetRpm(dp.speeds[static_cast<std::size_t>(level - 1)].rpm);
      sim_->obs().metrics.GetCounter("policy.rpm_down_decisions").Add(1);
      HIB_TRACE_INSTANT(sim_->obs().tracer, SpanKind::kDecision, kTrackPolicy, "rpm-down",
                        sim_->Now(), i, static_cast<double>(disk.target_rpm()));
    }
  }
}

}  // namespace hib

#include "src/policy/tpm.h"

#include <sstream>

namespace hib {

namespace {
constexpr Duration kPollPeriodMs = Seconds(1.0);
}  // namespace

Duration TpmBreakEvenMs(const DiskParams& disk) {
  Watts saved = disk.speeds.back().idle_power - disk.standby_power;
  if (saved <= Watts{}) {
    return Ms(1e15);  // standby never pays off
  }
  Joules cycle = disk.spin_down_energy + disk.spin_up_full_energy;
  // Joules / Watts is a Duration; the ms<->s scaling lives in the operator.
  return cycle / saved + disk.spin_down_ms + disk.spin_up_full_ms;
}

std::string TpmPolicy::Describe() const {
  std::ostringstream out;
  out << "TPM(threshold=" << ToSeconds(threshold_ms_) << "s)";
  return out.str();
}

void TpmPolicy::Attach(Simulator* sim, ArrayController* array) {
  sim_ = sim;
  array_ = array;
  threshold_ms_ = params_.idle_threshold_ms > Duration{} ? params_.idle_threshold_ms
                                                  : TpmBreakEvenMs(array->params().disk);
  sim_->SchedulePeriodic(kPollPeriodMs, kPollPeriodMs, [this] { Poll(); });
}

void TpmPolicy::Poll() {
  for (int i = 0; i < array_->num_data_disks(); ++i) {
    Disk& disk = array_->disk(i);
    if (disk.FullyIdle() && sim_->Now() - disk.last_activity() >= threshold_ms_) {
      if (disk.SpinDown()) {
        sim_->obs().metrics.GetCounter("policy.spin_down_decisions").Add(1);
        HIB_TRACE_INSTANT(sim_->obs().tracer, SpanKind::kDecision, kTrackPolicy, "spin-down",
                          sim_->Now(), i, static_cast<double>(i));
      }
    }
  }
}

}  // namespace hib

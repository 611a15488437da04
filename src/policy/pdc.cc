#include "src/policy/pdc.h"

#include <sstream>
#include <vector>

#include "src/policy/tpm.h"

#include "src/util/check.h"

namespace hib {

std::string PdcPolicy::Describe() const {
  std::ostringstream out;
  out << "PDC(reorg=" << params_.reorg_period_ms / Hours(1.0)
      << "h, budget=" << params_.migration_budget_extents
      << " extents, threshold=" << ToSeconds(threshold_ms_) << "s)";
  return out.str();
}

void PdcPolicy::Attach(Simulator* sim, ArrayController* array) {
  HIB_CHECK_EQ(array->params().group_width, 1)
      << "PDC requires an unstriped (width-1) layout";
  sim_ = sim;
  array_ = array;
  threshold_ms_ = params_.idle_threshold_ms > Duration{} ? params_.idle_threshold_ms
                                                  : TpmBreakEvenMs(array->params().disk);
  sim_->SchedulePeriodic(params_.reorg_period_ms, params_.reorg_period_ms,
                         [this] { Reorganize(); });
  sim_->SchedulePeriodic(params_.poll_period_ms, params_.poll_period_ms, [this] { Poll(); });
}

void PdcPolicy::Reorganize() {
  TemperatureTracker& temps = array_->temperatures();
  LayoutManager& layout = array_->layout();
  temps.EndEpoch();

  // Target: rank r extent -> group r / per_group (hottest first onto disk 0).
  std::vector<std::int64_t> order = temps.SortedHottestFirst();
  std::int64_t per_group =
      (layout.num_extents() + layout.num_groups() - 1) / layout.num_groups();

  std::int64_t budget = params_.migration_budget_extents;
  for (std::size_t rank = 0; rank < order.size() && budget > 0; ++rank) {
    std::int64_t extent = order[rank];
    int target = static_cast<int>(static_cast<std::int64_t>(rank) / per_group);
    if (layout.GroupOf(extent) != target) {
      array_->RequestMigration(extent, target);
      sim_->obs().metrics.GetCounter("policy.migrations_requested").Add(1);
      --budget;
    }
  }
  HIB_TRACE_INSTANT(sim_->obs().tracer, SpanKind::kDecision, kTrackPolicy, "reorganize",
                    sim_->Now(), 0,
                    static_cast<double>(params_.migration_budget_extents - budget));
}

void PdcPolicy::Poll() {
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

#include "src/policy/pdc.h"

#include <sstream>
#include <vector>

#include "src/util/check.h"

namespace hib {

std::string PdcPolicy::Describe() const {
  std::ostringstream out;
  out << "PDC(reorg=" << params_.reorg_period_ms / Hours(1.0)
      << "h, budget=" << params_.migration_budget_extents
      << " extents, threshold=" << ToSeconds(tpm_.threshold()) << "s)";
  return out.str();
}

void PdcPolicy::Attach(Simulator* sim, ArrayController* array) {
  HIB_CHECK_EQ(array->params().group_width, 1)
      << "PDC requires an unstriped (width-1) layout";
  sim_ = sim;
  array_ = array;
  sim_->SchedulePeriodic(params_.reorg_period_ms, params_.reorg_period_ms,
                         [this] { Reorganize(); });
  tpm_.Attach(sim, array);
}

void PdcPolicy::Reorganize() {
  LayoutManager& layout = array_->layout();
  layout.EndEpoch();

  // Target: rank r extent -> group r / per_group (hottest first onto disk 0).
  std::vector<std::int64_t> order = layout.SortedHottestFirst();
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

}  // namespace hib

#include "src/hibernator/hibernator_policy.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "src/util/log.h"

namespace hib {

namespace {
// How often the guarantee's credit account is fed and checked.
constexpr Duration kGuaranteeCheckMs = Seconds(1.0);
// How aggressively banked response-time credit is spent: each epoch CR may
// exceed the base goal by kCreditSpendFraction * credit / expected_requests,
// capped at kCreditSpendCapGoalMultiple x goal.  This is what lets a nearly
// idle night run slow (its few requests individually exceed the goal)
// repaid by the daytime surplus — the long-term *average* stays bounded,
// with the boost as the hard floor.
constexpr double kCreditSpendFraction = 0.5;
constexpr double kCreditSpendCapGoalMultiple = 4.0;
// Assumed mix for the analytic service model; the live scale factor
// corrects residual error each epoch.
constexpr double kModelRequestSectors = 12.0;
constexpr double kModelWriteFraction = 0.35;
}  // namespace

std::string HibernatorPolicy::Describe() const {
  std::ostringstream out;
  out << Name() << "(goal=" << params_.goal_ms << "ms, epoch=" << params_.epoch_ms / Hours(1.0)
      << "h, budget=" << params_.migration_budget_extents << " extents"
      << (params_.enable_boost ? "" : ", no-boost")
      << (params_.enable_migration ? "" : ", no-migration") << ")";
  return out.str();
}

void HibernatorPolicy::Attach(Simulator* sim, ArrayController* array) {
  sim_ = sim;
  array_ = array;
  service_model_ = SpeedServiceModel::FromDisk(array->params().disk, kModelRequestSectors,
                                               kModelWriteFraction);
  PerfGuaranteeParams gp;
  gp.goal_ms = params_.goal_ms;
  gp.credit_cap_requests = params_.credit_cap_requests;
  guarantee_ = std::make_unique<PerfGuarantee>(gp);

  int groups = array_->layout().num_groups();
  group_levels_.assign(static_cast<std::size_t>(groups),
                       array_->params().disk.num_speeds() - 1);
  group_bias_.assign(static_cast<std::size_t>(groups), Ewma(0.5));

  sim_->SchedulePeriodic(params_.epoch_ms, params_.epoch_ms, [this] { EpochTick(); });
  if (params_.enable_boost) {
    sim_->SchedulePeriodic(kGuaranteeCheckMs, kGuaranteeCheckMs, [this] { GuaranteeTick(); });
  }
}

void HibernatorPolicy::Finish() {
  if (boosted_) {
    boosted_ms_total_ += sim_->Now() - boost_started_;
    // Close the still-open boost interval so the trace timeline is complete.
    HIB_TRACE_SPAN(sim_->obs().tracer, SpanKind::kBoost, kTrackPolicy, "boost",
                   boost_started_, sim_->Now(), boosts_, 0.0);
    boost_started_ = sim_->Now();
  }
  MetricsRegistry& metrics = sim_->obs().metrics;
  metrics.GetCounter("hibernator.epochs").Add(epochs_completed_);
  metrics.GetCounter("hibernator.boosts").Add(boosts_);
  metrics.GetCounter("hibernator.migrations_requested").Add(migrations_requested_);
}

std::vector<Frequency> HibernatorPolicy::MeasureGroupLambdas() const {
  const LayoutManager& layout = array_->layout();
  int width = layout.group_width();
  std::vector<Frequency> lambdas(static_cast<std::size_t>(layout.num_groups()));
  for (int g = 0; g < layout.num_groups(); ++g) {
    std::int64_t arrivals = 0;
    for (int slot = 0; slot < width; ++slot) {
      arrivals += array_->disk(layout.GroupDisk(g, slot)).stats().window_arrivals;
    }
    // Mean per-disk arrival rate over the elapsed epoch.
    lambdas[static_cast<std::size_t>(g)] =
        static_cast<double>(arrivals) / static_cast<double>(width) / params_.epoch_ms;
  }
  return lambdas;
}

std::vector<double> HibernatorPolicy::MeasureGroupArrivalScvs() const {
  const LayoutManager& layout = array_->layout();
  std::vector<double> scvs(static_cast<std::size_t>(layout.num_groups()), 1.0);
  for (int g = 0; g < layout.num_groups(); ++g) {
    double sum = 0.0;
    for (int slot = 0; slot < layout.group_width(); ++slot) {
      sum += array_->disk(layout.GroupDisk(g, slot)).stats().WindowArrivalScv();
    }
    scvs[static_cast<std::size_t>(g)] = sum / static_cast<double>(layout.group_width());
  }
  return scvs;
}

std::vector<double> HibernatorPolicy::UpdateGroupBiases(const std::vector<Frequency>& lambdas,
                                                        const std::vector<double>& scvs) {
  // The renewal queueing model misses batch effects (a burst of requests to
  // one disk queues far deeper than independent arrivals at the same rate),
  // so CR's predictions carry a per-group multiplicative correction learned
  // from the last epoch: measured mean sub-op response / predicted response
  // at the level the group actually ran.
  const LayoutManager& layout = array_->layout();
  std::vector<double> biases(static_cast<std::size_t>(layout.num_groups()), 1.0);
  for (int g = 0; g < layout.num_groups(); ++g) {
    Duration sum;
    std::int64_t count = 0;
    for (int slot = 0; slot < layout.group_width(); ++slot) {
      const DiskStats& ds = array_->disk(layout.GroupDisk(g, slot)).stats();
      sum += ds.window_response_sum_ms;
      count += ds.window_completions;
    }
    Ewma& bias = group_bias_[static_cast<std::size_t>(g)];
    if (count >= 50) {
      Duration measured = sum / static_cast<double>(count);
      const auto& lvl =
          service_model_.Level(group_levels_[static_cast<std::size_t>(g)]);
      Duration predicted = Mg1Model::Gg1ResponseTime(lambdas[static_cast<std::size_t>(g)],
                                                     lvl.mean_ms, lvl.scv,
                                                     scvs[static_cast<std::size_t>(g)]);
      if (predicted > Duration{}) {
        bias.Add(std::clamp(measured / predicted, 0.5, 8.0));
      }
    }
    biases[static_cast<std::size_t>(g)] = bias.empty() ? 1.0 : bias.current();
  }
  return biases;
}

Duration HibernatorPolicy::EffectiveGoalMs(std::int64_t expected_requests) const {
  Duration goal = params_.goal_ms;
  if (params_.enable_boost && guarantee_ != nullptr && guarantee_->credit_ms() > Duration{}) {
    Duration spend = kCreditSpendFraction * guarantee_->credit_ms() /
                     static_cast<double>(std::max<std::int64_t>(expected_requests, 1));
    goal += std::min(spend, kCreditSpendCapGoalMultiple * params_.goal_ms);
  }
  return goal;
}

double HibernatorPolicy::MeasureResponseScale() const {
  // Logical requests fan out into sub-ops (RAID5 writes especially), so the
  // logical mean response exceeds the per-disk mean.  CR's constraint lives
  // at the sub-op level; this live ratio converts the user-facing goal.
  const ArrayStats& as = array_->stats();
  Duration logical_mean = as.WindowMeanResponse();
  Duration subop_sum;
  std::int64_t subop_count = 0;
  for (int i = 0; i < array_->num_data_disks(); ++i) {
    const DiskStats& ds = array_->disk(i).stats();
    subop_sum += ds.window_response_sum_ms;
    subop_count += ds.window_completions;
  }
  if (as.window_responses < 100 || subop_count < 100 || logical_mean <= Duration{}) {
    return last_scale_;  // not enough data; reuse the previous calibration
  }
  Duration subop_mean = subop_sum / static_cast<double>(subop_count);
  double scale = subop_mean > Duration{} ? logical_mean / subop_mean : last_scale_;
  return std::clamp(scale, 1.0, 5.0);
}

std::vector<int> HibernatorPolicy::SolveUtilizationThreshold(
    const std::vector<Frequency>& lambdas) const {
  // Ablation baseline: pick the slowest speed keeping predicted utilization
  // under the target, with no response-time model at all.
  std::vector<int> levels(lambdas.size(), 0);
  for (std::size_t g = 0; g < lambdas.size(); ++g) {
    int chosen = service_model_.num_levels() - 1;
    for (int k = 0; k < service_model_.num_levels(); ++k) {
      double rho = Mg1Model::Utilization(lambdas[g], service_model_.Level(k).mean_ms);
      if (rho <= params_.threshold_target_utilization) {
        chosen = k;
        break;
      }
    }
    levels[g] = chosen;
  }
  return levels;
}

void HibernatorPolicy::EpochTick() {
  array_->layout().EndEpoch();
  std::vector<Frequency> lambdas = MeasureGroupLambdas();
  last_scale_ = MeasureResponseScale();

  if (!boosted_) {
    std::vector<int> levels;
    if (params_.use_cr) {
      // Expected demand for the coming epoch is approximated by the last one.
      Duration effective_goal = EffectiveGoalMs(array_->stats().window_responses);
      std::vector<double> scvs = MeasureGroupArrivalScvs();
      CrInput input;
      input.service = service_model_;
      input.group_lambda = lambdas;
      input.group_arrival_scv = scvs;
      input.group_response_bias = UpdateGroupBiases(lambdas, scvs);
      input.group_width = array_->layout().group_width();
      input.goal_ms = effective_goal / last_scale_;
      input.epoch_ms = params_.epoch_ms;
      input.current_levels = group_levels_;
      input.disk = &array_->params().disk;
      input.telemetry.evaluations =
          &sim_->obs().metrics.GetCounter("hibernator.cr_candidates");
      input.telemetry.predicted_response_ms =
          &sim_->obs().metrics.GetHistogram("hibernator.cr_predicted_response_ms");
      CrResult result = SolveCr(input);
      levels = result.levels;
      last_predicted_response_ms_ = result.predicted_response_ms * last_scale_;
      HIB_TRACE_INSTANT(sim_->obs().tracer, SpanKind::kEpoch, kTrackPolicy,
                        result.feasible ? "epoch" : "epoch(infeasible)", sim_->Now(),
                        epochs_completed_, last_predicted_response_ms_ / Ms(1.0));
      HIB_LOG(kInfo) << Name() << " epoch " << epochs_completed_ << ": predicted "
                     << last_predicted_response_ms_ << "ms vs goal " << params_.goal_ms
                     << "ms, power " << result.predicted_power << "W, feasible "
                     << result.feasible;
    } else {
      levels = SolveUtilizationThreshold(lambdas);
    }
    ApplyLevels(levels, /*immediate=*/false);
    if (params_.enable_migration) {
      PlanMigrations();
    }
  }

  // Start the next measurement window.
  for (int i = 0; i < array_->num_data_disks(); ++i) {
    array_->disk(i).stats().ResetWindow();
  }
  array_->stats().ResetWindow();
  ++epochs_completed_;
}

void HibernatorPolicy::ApplyGroupLevel(int group, int level) {
  const LayoutManager& layout = array_->layout();
  const DiskParams& dp = array_->params().disk;
  int rpm = dp.speeds[static_cast<std::size_t>(level)].rpm;
  for (int slot = 0; slot < layout.group_width(); ++slot) {
    array_->disk(layout.GroupDisk(group, slot)).SetTargetRpm(rpm);
  }
}

void HibernatorPolicy::ApplyLevels(const std::vector<int>& levels, bool immediate) {
  const LayoutManager& layout = array_->layout();
  const DiskParams& dp = array_->params().disk;
  group_levels_ = levels;
  ++config_generation_;
  std::uint64_t generation = config_generation_;
  Duration delay;
  for (int g = 0; g < layout.num_groups(); ++g) {
    int level = levels[static_cast<std::size_t>(g)];
    // Compare against the disks' *actual* target, not the previously intended
    // assignment: a staggered change may still be pending (its event dies
    // with the generation bump above), and skipping based on intent would
    // strand the group at its old speed.
    int actual_level = dp.LevelOf(array_->disk(layout.GroupDisk(g, 0)).target_rpm());
    if (level == actual_level) {
      continue;  // no spindle movement needed
    }
    if (immediate || params_.stagger_ms <= Duration{}) {
      ApplyGroupLevel(g, level);
      continue;
    }
    // Stagger: one group's spindles move at a time, so at any instant only a
    // small slice of the array is paying the transition stall.
    sim_->ScheduleIn(delay, [this, g, level, generation] {
      if (config_generation_ != generation) {
        return;  // superseded by a newer assignment (epoch or boost)
      }
      ApplyGroupLevel(g, level);
    });
    delay += params_.stagger_ms;
  }
}

void HibernatorPolicy::PlanMigrations() {
  const LayoutManager& layout = array_->layout();
  std::int64_t num_extents = layout.num_extents();
  int num_groups = layout.num_groups();

  // Groups ordered fastest-first (ties: hotter group keeps its rank) —
  // the hottest extents should live on the fastest groups.
  std::vector<int> group_order(static_cast<std::size_t>(num_groups));
  std::iota(group_order.begin(), group_order.end(), 0);
  std::stable_sort(group_order.begin(), group_order.end(), [this](int a, int b) {
    return group_levels_[static_cast<std::size_t>(a)] > group_levels_[static_cast<std::size_t>(b)];
  });

  std::vector<std::int64_t> order = layout.SortedHottestFirst();
  std::int64_t per_group = (num_extents + num_groups - 1) / num_groups;
  std::int64_t budget = params_.migration_budget_extents;
  for (std::size_t rank = 0; rank < order.size() && budget > 0; ++rank) {
    std::int64_t extent = order[rank];
    if (layout.TemperatureOf(extent) <= 0.0) {
      break;  // never-accessed extents (the sorted tail) stay where they are
    }
    int slot = static_cast<int>(static_cast<std::int64_t>(rank) / per_group);
    int target = group_order[static_cast<std::size_t>(slot)];
    if (layout.GroupOf(extent) != target) {
      array_->RequestMigration(extent, target);
      ++migrations_requested_;
      --budget;
    }
  }
}

void HibernatorPolicy::GuaranteeTick() {
  const ArrayStats& as = array_->stats();
  Duration delta_sum = as.total_response_sum_ms - seen_response_sum_ms_;
  std::int64_t delta_count = as.total_responses - seen_responses_;
  seen_response_sum_ms_ = as.total_response_sum_ms;
  seen_responses_ = as.total_responses;
  guarantee_->Observe(delta_sum, delta_count);

  if (!boosted_ && guarantee_->ShouldBoost()) {
    boosted_ = true;
    ++boosts_;
    boost_started_ = sim_->Now();
    BoostAllFull();
    array_->PauseMigration(true);
    HIB_LOG(kInfo) << Name() << " BOOST at " << sim_->Now() / Hours(1.0) << "h (credit "
                   << guarantee_->credit_ms() << "ms)";
  } else if (boosted_ && guarantee_->CanResume()) {
    // Leave boost mode but stay at full speed: slowing back down is a coarse
    // decision that belongs to CR at the next epoch boundary (an immediate
    // re-transition would stall requests and re-drain the credit we just
    // rebuilt).
    boosted_ = false;
    boosted_ms_total_ += sim_->Now() - boost_started_;
    HIB_TRACE_SPAN(sim_->obs().tracer, SpanKind::kBoost, kTrackPolicy, "boost",
                   boost_started_, sim_->Now(), boosts_, 0.0);
    array_->PauseMigration(false);
    HIB_LOG(kInfo) << Name() << " resume at " << sim_->Now() / Hours(1.0) << "h";
  }
}

void HibernatorPolicy::BoostAllFull() {
  std::vector<int> full(group_levels_.size(), array_->params().disk.num_speeds() - 1);
  ApplyLevels(full, /*immediate=*/true);
}

}  // namespace hib

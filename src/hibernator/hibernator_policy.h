// The Hibernator energy-management policy: the paper's full system.
//
// Combines, per the abstract, (1) multi-speed disks, (2) a coarse-grained
// epoch scheme that decides which disks spin at which speeds (the CR
// algorithm, src/hibernator/cr_algorithm.h), (3) automatic migration of the
// right data to appropriate-speed disks (temperature-sorted multi-tier
// layout, rate-limited background moves), and (4) automatic performance
// boosts when the response-time goal is at risk (the credit account,
// src/hibernator/perf_guarantee.h).
//
// Epoch cycle:
//   - fold the access-temperature window, read per-group arrival rates;
//   - calibrate the sub-op <-> logical response scale from live measurements;
//   - run CR to pick each group's RPM level (skipped while boosted);
//   - apply speeds (no data moves: a group changes speed in place);
//   - plan migrations toward the temperature-sorted target layout, hottest
//     mismatches first, bounded by the per-epoch budget.
//
// Guarantee cycle (fine-grained): feed completed-request response times into
// the credit account; boost to full speed on deficit, restore the saved
// configuration once credit recovers.
#ifndef HIBERNATOR_SRC_HIBERNATOR_HIBERNATOR_POLICY_H_
#define HIBERNATOR_SRC_HIBERNATOR_HIBERNATOR_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/hibernator/cr_algorithm.h"
#include "src/hibernator/perf_guarantee.h"
#include "src/policy/policy.h"
#include "src/util/stats.h"

namespace hib {

struct HibernatorParams {
  // Average logical response-time goal.  Required.
  Duration goal_ms = Ms(20.0);
  Duration epoch_ms = Hours(2.0);
  std::int64_t migration_budget_extents = 4096;
  // The credit cap must comfortably exceed the one-shot response-time cost of
  // an epoch reconfiguration (requests stall while a group's spindle moves),
  // or the guarantee will boost on every slow-down and thrash.
  double credit_cap_requests = 500000.0;
  // Groups change speed one at a time, this far apart, so only a small slice
  // of the array is unavailable at any instant.
  Duration stagger_ms = Seconds(120.0);
  bool enable_migration = true;
  bool enable_boost = true;
  // false selects the naive utilization-threshold speed setter (ablation).
  bool use_cr = true;
  double threshold_target_utilization = 0.5;  // used only when !use_cr
};

class HibernatorPolicy : public PowerPolicy {
 public:
  explicit HibernatorPolicy(HibernatorParams params) : params_(params) {}

  std::string Name() const override { return params_.use_cr ? "Hibernator" : "Hibernator-UT"; }
  std::string Describe() const override;

  void Attach(Simulator* sim, ArrayController* array) override;
  void Finish() override;

  // --- introspection (reports, tests) ------------------------------------
  int epochs_completed() const { return epochs_completed_; }
  int boosts() const { return boosts_; }
  Duration boosted_ms() const { return boosted_ms_total_; }
  bool boosted() const { return boosted_; }
  Duration credit_ms() const { return guarantee_ ? guarantee_->credit_ms() : Duration{}; }
  const std::vector<int>& group_levels() const { return group_levels_; }
  Duration last_predicted_response_ms() const { return last_predicted_response_ms_; }
  std::int64_t migrations_requested() const { return migrations_requested_; }

 private:
  void EpochTick();
  void GuaranteeTick();
  // Applies a level assignment.  Staggered mode spaces the per-group speed
  // changes `stagger_ms` apart (slow-downs are never urgent); immediate mode
  // switches everything now (boosts are).
  void ApplyLevels(const std::vector<int>& levels, bool immediate);
  void ApplyGroupLevel(int group, int level);
  void BoostAllFull();
  std::vector<Frequency> MeasureGroupLambdas() const;
  std::vector<double> MeasureGroupArrivalScvs() const;
  // Updates the per-group measured/predicted response bias from the closing
  // window and returns the smoothed biases for the next CR solve.
  std::vector<double> UpdateGroupBiases(const std::vector<Frequency>& lambdas,
                                        const std::vector<double>& scvs);
  double MeasureResponseScale() const;
  Duration EffectiveGoalMs(std::int64_t expected_requests) const;
  void PlanMigrations();
  std::vector<int> SolveUtilizationThreshold(const std::vector<Frequency>& lambdas) const;

  HibernatorParams params_;
  Simulator* sim_ = nullptr;
  ArrayController* array_ = nullptr;
  SpeedServiceModel service_model_;
  std::unique_ptr<PerfGuarantee> guarantee_;

  std::vector<int> group_levels_;  // current assignment
  std::vector<Ewma> group_bias_;   // learned response-model correction per group
  // Bumped on every reconfiguration; staggered speed-change events from a
  // superseded assignment check it and drop themselves.
  std::uint64_t config_generation_ = 0;
  bool boosted_ = false;
  SimTime boost_started_;

  // Deltas for the guarantee window.
  Duration seen_response_sum_ms_;
  std::int64_t seen_responses_ = 0;

  int epochs_completed_ = 0;
  int boosts_ = 0;
  Duration boosted_ms_total_;
  Duration last_predicted_response_ms_;
  std::int64_t migrations_requested_ = 0;
  double last_scale_ = 2.0;
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_HIBERNATOR_HIBERNATOR_POLICY_H_

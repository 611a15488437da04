#include "src/policy/tpm_adaptive.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#include "src/policy/tpm.h"

namespace hib {

namespace {
// Candidate thresholds as multiples of the break-even time.
constexpr std::array<double, 5> kExpertMultipliers = {0.25, 0.5, 1.0, 2.0, 4.0};
// Multiplicative-weights learning rate.
constexpr double kEta = 0.15;
// Lower bound on any expert weight (keeps dead experts revivable).
constexpr double kWeightFloor = 0.01;
constexpr Duration kPollPeriodMs = Seconds(1.0);
}  // namespace

std::string AdaptiveTpmPolicy::Describe() const {
  std::ostringstream out;
  out << "TPM-Adaptive(breakeven=" << ToSeconds(break_even_ms_) << "s, experts=";
  for (std::size_t i = 0; i < kExpertMultipliers.size(); ++i) {
    out << (i ? "/" : "") << kExpertMultipliers[i];
  }
  out << "x)";
  return out.str();
}

void AdaptiveTpmPolicy::Attach(Simulator* sim, ArrayController* array) {
  sim_ = sim;
  array_ = array;
  break_even_ms_ = TpmBreakEvenMs(array->params().disk);
  disks_.assign(static_cast<std::size_t>(array->num_data_disks()), DiskState{});
  for (DiskState& state : disks_) {
    state.weights.assign(kExpertMultipliers.size(),
                         1.0 / static_cast<double>(kExpertMultipliers.size()));
  }
  sim_->SchedulePeriodic(kPollPeriodMs, kPollPeriodMs, [this] { Poll(); });
}

Duration AdaptiveTpmPolicy::WorkingThreshold(const DiskState& state) const {
  double weighted = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < state.weights.size(); ++i) {
    weighted += state.weights[i] * kExpertMultipliers[i];
    total += state.weights[i];
  }
  return break_even_ms_ * (total > 0.0 ? weighted / total : 1.0);
}

Duration AdaptiveTpmPolicy::ThresholdOf(int disk_id) const {
  return WorkingThreshold(disks_[static_cast<std::size_t>(disk_id)]);
}

void AdaptiveTpmPolicy::LearnFromGap(DiskState& state, Duration gap_ms) {
  // An expert's loss on a gap of length G with threshold T:
  //   G <= T           : no spin-down, energy lost = 0 baseline (loss 0)
  //   G >  T           : sleep from T to G; net benefit grows with G - T but
  //                      the cycle costs the spin energy, which the
  //                      break-even time encodes.  Normalized loss:
  const DiskParams& dp = array_->params().disk;
  Watts saved_rate = dp.speeds.back().idle_power - dp.standby_power;
  Joules cycle_cost = dp.spin_down_energy + dp.spin_up_full_energy;

  Joules max_loss = Joules(1e-9);
  std::vector<Joules> losses(kExpertMultipliers.size());
  for (std::size_t i = 0; i < losses.size(); ++i) {
    Duration threshold = break_even_ms_ * kExpertMultipliers[i];
    Joules benefit;
    if (gap_ms > threshold) {
      benefit = EnergyOf(saved_rate, gap_ms - threshold) - cycle_cost;
    }
    // Loss is the regret against the best possible action on this gap.
    Joules best = std::max(Joules{}, EnergyOf(saved_rate, gap_ms) - cycle_cost);
    losses[i] = best - benefit;
    max_loss = std::max(max_loss, losses[i]);
  }
  double total = 0.0;
  for (std::size_t i = 0; i < losses.size(); ++i) {
    state.weights[i] *= std::exp(-kEta * losses[i] / max_loss);
    state.weights[i] = std::max(state.weights[i], kWeightFloor);
    total += state.weights[i];
  }
  for (double& w : state.weights) {
    w /= total;
  }
}

void AdaptiveTpmPolicy::Poll() {
  for (int i = 0; i < array_->num_data_disks(); ++i) {
    Disk& disk = array_->disk(i);
    DiskState& state = disks_[static_cast<std::size_t>(i)];

    bool idle_now = disk.FullyIdle();
    SimTime idle_started = disk.last_activity();

    if (!idle_now || (state.idle_since >= SimTime{} && idle_started > state.idle_since)) {
      // The previous idle gap (if any) ended: learn from it.
      if (state.idle_since >= SimTime{}) {
        Duration gap = (idle_now ? idle_started : sim_->Now()) - state.idle_since;
        if (gap > kPollPeriodMs) {
          LearnFromGap(state, gap);
        }
      }
      state.idle_since = idle_now ? idle_started : Ms(-1.0);
      state.asleep = false;
    } else if (idle_now && state.idle_since < SimTime{}) {
      state.idle_since = idle_started;
      state.asleep = false;
    }

    if (idle_now && !state.asleep &&
        sim_->Now() - idle_started >= WorkingThreshold(state)) {
      if (disk.SpinDown()) {
        state.asleep = true;
      }
    }
  }
}

}  // namespace hib

// Adaptive TPM: threshold-based spin-down with an online-learned threshold.
//
// Classic TPM uses one fixed idle threshold (usually the break-even time).
// The adaptive variant keeps a small pool of candidate thresholds ("experts",
// after Helmbold et al.'s share algorithm for disk spin-down) and, per disk,
// weights them by how much energy each would have saved on the observed idle
// gaps; the working threshold is the weighted mean.  Long quiet periods pull
// the threshold down (sleep sooner), busy periods push it up (avoid wasteful
// spin cycles).
//
// Included because the paper's TPM baseline is often criticized as a straw
// man with a fixed threshold; this variant shows the conclusion is unchanged:
// data-center idle gaps are simply shorter than any profitable threshold.
#ifndef HIBERNATOR_SRC_POLICY_TPM_ADAPTIVE_H_
#define HIBERNATOR_SRC_POLICY_TPM_ADAPTIVE_H_

#include <string>
#include <vector>

#include "src/policy/policy.h"

namespace hib {

class AdaptiveTpmPolicy : public PowerPolicy {
 public:
  std::string Name() const override { return "TPM-Adaptive"; }
  std::string Describe() const override;

  void Attach(Simulator* sim, ArrayController* array) override;

  // Current working threshold of a disk (ms); for tests and reports.
  Duration ThresholdOf(int disk_id) const;

 private:
  struct DiskState {
    std::vector<double> weights;     // one per expert
    SimTime idle_since = Ms(-1.0);   // start of the current idle gap, -1 if busy
    bool asleep = false;
  };

  void Poll();
  // Scores the ended idle gap against every expert and reweights.
  void LearnFromGap(DiskState& state, Duration gap_ms);
  Duration WorkingThreshold(const DiskState& state) const;

  Simulator* sim_ = nullptr;
  ArrayController* array_ = nullptr;
  Duration break_even_ms_;
  std::vector<DiskState> disks_;
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_POLICY_TPM_ADAPTIVE_H_

// TPM: Traditional (threshold-based) Power Management.
//
// The classic laptop-disk policy the paper uses as the "existing practice"
// baseline: spin a disk down to standby after it has been idle for a fixed
// threshold; spin it back up on the next request (paying the multi-second
// spin-up latency and its energy).  The default threshold is the 2-competitive
// break-even time: the idle duration whose saved energy exactly repays one
// spin-down + spin-up cycle.
//
// The paper's observation: data-center workloads rarely leave disks idle
// longer than the break-even time, so TPM saves little — and when it does
// fire, the spin-up latency wrecks response times.
#ifndef HIBERNATOR_SRC_POLICY_TPM_H_
#define HIBERNATOR_SRC_POLICY_TPM_H_

#include <string>

#include "src/policy/policy.h"

namespace hib {

struct TpmParams {
  // Idle threshold before spin-down; <= 0 selects the break-even time.
  Duration idle_threshold_ms = Ms(-1.0);
};

// The break-even idle time for a disk: (spin-down + spin-up energy) /
// (idle power - standby power), plus the transition durations themselves.
Duration TpmBreakEvenMs(const DiskParams& disk);

class TpmPolicy : public PowerPolicy {
 public:
  explicit TpmPolicy(TpmParams params = {}) : params_(params) {}

  std::string Name() const override { return "TPM"; }
  std::string Describe() const override;

  void Attach(Simulator* sim, ArrayController* array) override;

  // The idle threshold in force; set by Attach.
  Duration threshold() const { return threshold_ms_; }

 private:
  void Poll();

  TpmParams params_;
  Duration threshold_ms_;
  Simulator* sim_ = nullptr;
  ArrayController* array_ = nullptr;
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_POLICY_TPM_H_

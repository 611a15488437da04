// DRPM: fine-grained per-disk speed control (Gurumurthi et al., ISCA 2003).
//
// Each disk is controlled individually on a short period: when its request
// queue builds past an upper watermark the disk jumps straight to full speed;
// when the queue is empty and the recent utilization is low the disk steps
// down one RPM level.  This captures DRPM's defining behaviour — frequent,
// small, per-disk speed transitions — which saves energy at low load but (as
// Hibernator argues) burns time and energy in transitions and reacts after
// performance has already been damaged.
#ifndef HIBERNATOR_SRC_POLICY_DRPM_H_
#define HIBERNATOR_SRC_POLICY_DRPM_H_

#include <string>
#include <vector>

#include "src/policy/policy.h"

namespace hib {

struct DrpmParams {
  Duration control_period_ms = Seconds(5.0);
  std::size_t queue_up_watermark = 4;   // jump to full speed at/above this
};

class DrpmPolicy : public PowerPolicy {
 public:
  explicit DrpmPolicy(DrpmParams params = {}) : params_(params) {}

  std::string Name() const override { return "DRPM"; }
  std::string Describe() const override;

  void Attach(Simulator* sim, ArrayController* array) override;

 private:
  void ControlTick();

  DrpmParams params_;
  Simulator* sim_ = nullptr;
  ArrayController* array_ = nullptr;
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_POLICY_DRPM_H_

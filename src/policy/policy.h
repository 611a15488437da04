// Common interface for disk-array energy-management policies.
//
// A policy attaches to a simulator + array before trace replay starts,
// installs whatever periodic controllers it needs, and manipulates the array
// through the public surface: per-disk speed/standby control, the read
// router, the completion hook, and the migration queue.  The harness treats
// every scheme in the paper's evaluation (Base/FPM, TPM, DRPM, PDC, MAID,
// Hibernator) uniformly through this interface.
#ifndef HIBERNATOR_SRC_POLICY_POLICY_H_
#define HIBERNATOR_SRC_POLICY_POLICY_H_

#include <string>

#include "src/array/array.h"
#include "src/sim/simulator.h"

namespace hib {

class PowerPolicy {
 public:
  virtual ~PowerPolicy() = default;

  virtual std::string Name() const = 0;

  // Called once, before any request is replayed.  `sim` and `array` outlive
  // the policy's use of them.
  virtual void Attach(Simulator* sim, ArrayController* array) = 0;

  // Called once after the trace drains, before metrics are read.  Policies
  // close open trace spans and add their end-of-run counts to the registry.
  virtual void Finish() {}

  // One-line human-readable parameter summary for reports.
  virtual std::string Describe() const { return Name(); }
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_POLICY_POLICY_H_

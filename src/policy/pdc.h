// PDC: Popular Data Concentration (Pinheiro & Bianchini, ICS 2004).
//
// Periodically migrates the most popular data onto the first disks of the
// array (disk 0 holds the hottest extents, disk 1 the next-hottest, ...) so
// the trailing disks go cold and a TPM threshold can spin them down.
// PDC assumes an unstriped layout (each extent lives on exactly one disk), so
// the array must be configured with group_width == 1.
//
// The paper's critique, which this implementation reproduces: concentrating
// the load destroys the array's parallelism, so the leading disks saturate
// and response time balloons for data-center workloads.
#ifndef HIBERNATOR_SRC_POLICY_PDC_H_
#define HIBERNATOR_SRC_POLICY_PDC_H_

#include <string>

#include "src/policy/policy.h"
#include "src/policy/tpm.h"

namespace hib {

struct PdcParams {
  Duration reorg_period_ms = Hours(1.0);
  // At most this many extents migrate per reorganization pass.
  std::int64_t migration_budget_extents = 2048;
  // TPM spin-down threshold for the cold disks; <= 0 = break-even.
  Duration idle_threshold_ms = Ms(-1.0);
};

class PdcPolicy : public PowerPolicy {
 public:
  explicit PdcPolicy(PdcParams params = {})
      : params_(params), tpm_(TpmParams{params.idle_threshold_ms}) {}

  std::string Name() const override { return "PDC"; }
  std::string Describe() const override;

  void Attach(Simulator* sim, ArrayController* array) override;

 private:
  void Reorganize();

  PdcParams params_;
  TpmPolicy tpm_;
  Simulator* sim_ = nullptr;
  ArrayController* array_ = nullptr;
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_POLICY_PDC_H_

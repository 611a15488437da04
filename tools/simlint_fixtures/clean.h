// Fixture: fully conformant header; simlint must report zero findings,
// including for the explicitly suppressed line below.
#ifndef HIBERNATOR_TOOLS_SIMLINT_FIXTURES_CLEAN_H_
#define HIBERNATOR_TOOLS_SIMLINT_FIXTURES_CLEAN_H_

namespace hib {

struct CleanParams {
  double lambda_per_ms = 0.0;              // rates are exempt from HIB004
  double legacy_budget_ms = 0.0;           // NOLINT(HIB004)
};

}  // namespace hib

#endif  // HIBERNATOR_TOOLS_SIMLINT_FIXTURES_CLEAN_H_

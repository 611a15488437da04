// Scheme registry: builds each evaluated policy with its matching array
// layout, so every bench and example constructs schemes the same way.
//
// Layout per scheme follows the original systems: Base/TPM/DRPM/Hibernator
// run on the striped (width-4 RAID5) array; PDC and MAID assume unstriped
// disks (width 1), and MAID adds always-on cache disks (which are charged to
// its energy bill, as in the paper).
#ifndef HIBERNATOR_SRC_HARNESS_SCHEMES_H_
#define HIBERNATOR_SRC_HARNESS_SCHEMES_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/array/array.h"
#include "src/policy/policy.h"

namespace hib {

enum class Scheme {
  kBase,
  kTpm,
  kTpmAdaptive,
  kDrpm,
  kPdc,
  kMaid,
  kHibernator,
  kHibernatorNoMigration,  // ablation: speeds only, data stays put
  kHibernatorNoBoost,      // ablation: no performance guarantee
  kHibernatorUtilThreshold,  // ablation: naive speed setter instead of CR (keep last)
};

const char* SchemeName(Scheme scheme);

// The scheme SchemeName() calls `name`, if any.
std::optional<Scheme> SchemeByName(std::string_view name);

// Every scheme, in declaration order.
std::vector<Scheme> AllSchemes();

// All schemes in the paper's main comparison figures, in display order.
std::vector<Scheme> MainComparisonSchemes();

struct SchemeConfig {
  Scheme scheme = Scheme::kBase;
  // Response-time goal for Hibernator variants (ms, absolute).
  Duration goal_ms = Ms(20.0);
  Duration epoch_ms = Hours(2.0);
  std::int64_t migration_budget_extents = 4096;
};

// Returns `base` adjusted to the layout the scheme requires.
ArrayParams ArrayFor(const SchemeConfig& config, ArrayParams base);

// Builds the policy object.
std::unique_ptr<PowerPolicy> MakePolicy(const SchemeConfig& config);

}  // namespace hib

#endif  // HIBERNATOR_SRC_HARNESS_SCHEMES_H_

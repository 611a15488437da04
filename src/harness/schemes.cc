#include "src/harness/schemes.h"

#include "src/hibernator/hibernator_policy.h"
#include "src/policy/drpm.h"
#include "src/policy/full_power.h"
#include "src/policy/maid.h"
#include "src/policy/pdc.h"
#include "src/policy/tpm.h"
#include "src/policy/tpm_adaptive.h"

namespace hib {
namespace {
constexpr int kMaidCacheDisks = 2;  // MAID's always-on cache disks
}  // namespace

const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kBase:
      return "Base";
    case Scheme::kTpm:
      return "TPM";
    case Scheme::kTpmAdaptive:
      return "TPM-Adaptive";
    case Scheme::kDrpm:
      return "DRPM";
    case Scheme::kPdc:
      return "PDC";
    case Scheme::kMaid:
      return "MAID";
    case Scheme::kHibernator:
      return "Hibernator";
    case Scheme::kHibernatorNoMigration:
      return "Hibernator-NoMig";
    case Scheme::kHibernatorNoBoost:
      return "Hibernator-NoBoost";
    case Scheme::kHibernatorUtilThreshold:
      return "Hibernator-UT";
  }
  return "?";
}

std::optional<Scheme> SchemeByName(std::string_view name) {
  for (Scheme scheme : AllSchemes()) {
    if (name == SchemeName(scheme)) {
      return scheme;
    }
  }
  return std::nullopt;
}

std::vector<Scheme> AllSchemes() {
  std::vector<Scheme> all;
  for (int i = 0; i <= static_cast<int>(Scheme::kHibernatorUtilThreshold); ++i) {
    all.push_back(static_cast<Scheme>(i));
  }
  return all;
}

std::vector<Scheme> MainComparisonSchemes() {
  return {Scheme::kBase, Scheme::kTpm,  Scheme::kDrpm,
          Scheme::kPdc,  Scheme::kMaid, Scheme::kHibernator};
}

ArrayParams ArrayFor(const SchemeConfig& config, ArrayParams base) {
  switch (config.scheme) {
    case Scheme::kPdc:
      base.group_width = 1;
      break;
    case Scheme::kMaid:
      base.group_width = 1;
      base.num_cache_disks = kMaidCacheDisks;
      break;
    default:
      break;
  }
  return base;
}

std::unique_ptr<PowerPolicy> MakePolicy(const SchemeConfig& config) {
  switch (config.scheme) {
    case Scheme::kBase:
      return std::make_unique<FullPowerPolicy>();
    case Scheme::kTpm:
      return std::make_unique<TpmPolicy>();
    case Scheme::kTpmAdaptive:
      return std::make_unique<AdaptiveTpmPolicy>();
    case Scheme::kDrpm:
      return std::make_unique<DrpmPolicy>();
    case Scheme::kPdc:
      return std::make_unique<PdcPolicy>();
    case Scheme::kMaid:
      return std::make_unique<MaidPolicy>();
    case Scheme::kHibernator:
    case Scheme::kHibernatorNoMigration:
    case Scheme::kHibernatorNoBoost:
    case Scheme::kHibernatorUtilThreshold: {
      HibernatorParams hp;
      hp.goal_ms = config.goal_ms;
      hp.epoch_ms = config.epoch_ms;
      hp.migration_budget_extents = config.migration_budget_extents;
      hp.enable_migration = config.scheme != Scheme::kHibernatorNoMigration;
      hp.enable_boost = config.scheme != Scheme::kHibernatorNoBoost;
      hp.use_cr = config.scheme != Scheme::kHibernatorUtilThreshold;
      return std::make_unique<HibernatorPolicy>(hp);
    }
  }
  return std::make_unique<FullPowerPolicy>();
}

}  // namespace hib

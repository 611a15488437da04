// hibersim: config-file-driven simulator front end.
//
//   ./hibersim [<config-file>] [--trace-out <file>] [--metrics-out <file>]
//   ./hibersim --print-default-config
//
// Everything the harness can do — array shape, disk speed levels, workload
// (synthetic or trace file), scheme, goal, epochs, series output — from one
// declarative key=value file, so experiments can be versioned and shared
// without recompiling.  See --print-default-config for the full key list.
// With no config file, the defaults run as-is.
//
// --trace-out writes a Chrome/Perfetto trace_event JSON timeline of the run
// (open it at https://ui.perfetto.dev); --metrics-out writes the metrics
// registry snapshot as JSON.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/schemes.h"
#include "src/trace/spc_reader.h"
#include "src/trace/synthetic.h"
#include "src/util/config.h"
#include "src/util/table.h"

namespace {

constexpr const char* kDefaultConfig = R"(# hibersim configuration (defaults shown)

# --- array ---------------------------------------------------------------
array.disks = 16            # number of data disks
array.group_width = 4       # stripe-group width (1 = no striping/parity)
array.speed_levels = 5      # RPM levels between 3k and 15k (1 = fixed 15k)
array.cache_mb = 128        # controller read cache
array.data_fraction = 0.6   # logical data size / raw capacity

# --- workload ------------------------------------------------------------
workload.kind = oltp        # oltp | cello | constant | spc
workload.hours = 24
workload.peak_iops = 200
workload.trough_iops = 60
workload.seed = 42
workload.trace_path =       # required when kind = spc

# --- scheme --------------------------------------------------------------
scheme.name = Hibernator    # Base | TPM | TPM-Adaptive | DRPM | PDC | MAID |
                            # Hibernator | Hibernator-NoMig | Hibernator-NoBoost
scheme.goal_multiplier = 2.5  # x the measured Base mean response
scheme.goal_ms = 0            # absolute goal (overrides multiplier when > 0)
scheme.epoch_hours = 2
scheme.migration_budget_extents = 4096

# --- output --------------------------------------------------------------
output.series = false       # hourly response/speed-mix table
output.csv = false          # emit CSV instead of aligned tables
)";

// Looks up `name`; on a miss, prints the valid names and returns false.
bool SchemeByName(const std::string& name, hib::Scheme* scheme) {
  struct Entry {
    const char* name;
    hib::Scheme scheme;
  };
  constexpr Entry kEntries[] = {
      {"Base", hib::Scheme::kBase},
      {"TPM", hib::Scheme::kTpm},
      {"TPM-Adaptive", hib::Scheme::kTpmAdaptive},
      {"DRPM", hib::Scheme::kDrpm},
      {"PDC", hib::Scheme::kPdc},
      {"MAID", hib::Scheme::kMaid},
      {"Hibernator", hib::Scheme::kHibernator},
      {"Hibernator-NoMig", hib::Scheme::kHibernatorNoMigration},
      {"Hibernator-NoBoost", hib::Scheme::kHibernatorNoBoost},
      {"Hibernator-UT", hib::Scheme::kHibernatorUtilThreshold},
  };
  for (const Entry& e : kEntries) {
    if (name == e.name) {
      *scheme = e.scheme;
      return true;
    }
  }
  std::fprintf(stderr, "config: unknown scheme.name '%s'; valid names:", name.c_str());
  for (const Entry& e : kEntries) {
    std::fprintf(stderr, " %s", e.name);
  }
  std::fprintf(stderr, "\n");
  return false;
}

// Reports `key` unless `value` is positive (or zero, with `allow_zero`).  A
// negative rate makes arrival gaps negative, so the run never reaches its
// horizon; a non-positive horizon replays nothing.
bool CheckValue(const char* key, double value, bool allow_zero = false) {
  if (value > 0.0 || (allow_zero && value == 0.0)) {
    return true;
  }
  std::fprintf(stderr, "config: key '%s': must be %s, got %g\n", key,
               allow_zero ? "non-negative" : "positive", value);
  return false;
}

// Reports every array.* value no array can be built from, naming its key:
// the simulator would otherwise abort deep inside (a non-positive address
// space, a zero-width group, a cache of 2^64 lines) or, for data_fraction
// above 1, run on more logical data than the disks hold.  `array` is the one
// the run will use: the scheme may have narrowed its group width.
bool CheckArray(const hib::ArrayParams& array, std::int64_t cache_mb) {
  bool valid = CheckValue("array.disks", array.num_disks);
  valid = CheckValue("array.group_width", array.group_width) && valid;
  valid = CheckValue("array.cache_mb", static_cast<double>(cache_mb), true) && valid;
  valid = CheckValue("array.data_fraction", array.data_fraction) && valid;
  if (array.data_fraction > 1.0) {
    std::fprintf(stderr, "config: key 'array.data_fraction': must be at most 1, got %g\n",
                 array.data_fraction);
    valid = false;
  }
  if (array.num_disks > 0 && array.group_width > 0 && array.num_disks % array.group_width != 0) {
    std::fprintf(stderr, "config: key 'array.group_width': %d does not divide array.disks = %d\n",
                 array.group_width, array.num_disks);
    valid = false;
  }
  return valid;
}

std::unique_ptr<hib::WorkloadSource> MakeWorkload(hib::Config& config,
                                                  const hib::ArrayParams& array) {
  std::string kind = config.GetString("workload.kind", "oltp");
  std::string trace_path = config.GetString("workload.trace_path");  // touch: used for spc
  double hours = config.GetDouble("workload.hours", 24.0);
  auto seed = static_cast<std::uint64_t>(config.GetInt("workload.seed", 42));
  bool valid = CheckValue("workload.hours", hours);
  if (kind == "oltp") {
    hib::OltpWorkloadParams wp;
    wp.address_space_sectors = array.DataSectors();
    wp.duration_ms = hib::Hours(hours);
    wp.peak_iops = config.GetDouble("workload.peak_iops", 200.0);
    wp.trough_iops = config.GetDouble("workload.trough_iops", 60.0);
    wp.seed = seed;
    valid = CheckValue("workload.peak_iops", wp.peak_iops) && valid;
    valid = CheckValue("workload.trough_iops", wp.trough_iops, true) && valid;
    return valid ? std::make_unique<hib::OltpWorkload>(wp) : nullptr;
  }
  if (kind == "cello") {
    hib::CelloWorkloadParams wp;
    wp.address_space_sectors = array.DataSectors();
    wp.duration_ms = hib::Hours(hours);
    wp.peak_iops = config.GetDouble("workload.peak_iops", 90.0);
    wp.trough_iops = config.GetDouble("workload.trough_iops", 4.0);
    wp.seed = seed;
    valid = CheckValue("workload.peak_iops", wp.peak_iops) && valid;
    valid = CheckValue("workload.trough_iops", wp.trough_iops, true) && valid;
    return valid ? std::make_unique<hib::CelloWorkload>(wp) : nullptr;
  }
  if (kind == "constant") {
    hib::ConstantWorkloadParams wp;
    wp.address_space_sectors = array.DataSectors();
    wp.duration_ms = hib::Hours(hours);
    wp.iops = config.GetDouble("workload.peak_iops", 50.0);
    wp.seed = seed;
    valid = CheckValue("workload.peak_iops", wp.iops) && valid;
    return valid ? std::make_unique<hib::ConstantWorkload>(wp) : nullptr;
  }
  if (kind == "spc") {
    if (!valid) {
      return nullptr;
    }
    const std::string& path = trace_path;
    if (path.empty()) {
      std::fprintf(stderr, "workload.kind = spc requires workload.trace_path\n");
      return nullptr;
    }
    return std::make_unique<hib::SpcTraceReader>(path, array.DataSectors());
  }
  std::fprintf(stderr, "unknown workload.kind '%s'\n", kind.c_str());
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  std::string metrics_out;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--print-default-config") == 0) {
      std::printf("%s", kDefaultConfig);
      return 0;
    }
    std::string* sink = nullptr;
    if (std::strcmp(arg, "--trace-out") == 0) {
      sink = &trace_out;
    } else if (std::strcmp(arg, "--metrics-out") == 0) {
      sink = &metrics_out;
    }
    if (sink != nullptr) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a file argument\n", arg);
        return 1;
      }
      *sink = argv[++i];
      continue;
    }
    positional.push_back(arg);
  }
  if (positional.size() > 1) {
    std::fprintf(stderr,
                 "usage: %s [<config-file>] [--trace-out <file>] [--metrics-out <file>]\n"
                 "       %s --print-default-config\n",
                 argv[0], argv[0]);
    return 1;
  }

  hib::Config config;
  if (!positional.empty() && !config.ParseFile(positional[0])) {
    for (const std::string& err : config.errors()) {
      std::fprintf(stderr, "config: %s\n", err.c_str());
    }
    return 1;
  }

  hib::ArrayParams array;
  array.num_disks = static_cast<int>(config.GetInt("array.disks", 16));
  array.group_width = static_cast<int>(config.GetInt("array.group_width", 4));
  array.disk = hib::MakeUltrastar36Z15MultiSpeed(
      static_cast<int>(config.GetInt("array.speed_levels", 5)));
  std::int64_t cache_mb = config.GetInt("array.cache_mb", 128);
  array.data_fraction = config.GetDouble("array.data_fraction", 0.6);

  hib::SchemeConfig scheme;
  bool scheme_known = SchemeByName(config.GetString("scheme.name", "Hibernator"), &scheme.scheme);
  scheme.epoch_ms = hib::Hours(config.GetDouble("scheme.epoch_hours", 2.0));
  scheme.migration_budget_extents = config.GetInt("scheme.migration_budget_extents", 4096);
  array = hib::ArrayFor(scheme, array);
  if (!CheckArray(array, cache_mb)) {
    return 1;
  }
  array.cache_lines = static_cast<std::size_t>(cache_mb) * 16;

  auto workload = MakeWorkload(config, array);

  hib::Duration goal_ms = hib::Ms(config.GetDouble("scheme.goal_ms", 0.0));
  double multiplier = config.GetDouble("scheme.goal_multiplier", 2.5);
  bool want_series = config.GetBool("output.series", false);
  bool want_csv = config.GetBool("output.csv", false);

  // Every key has been read: report all bad values, and stop on any, before
  // the Base probe rather than after it.
  for (const std::string& err : config.errors()) {
    std::fprintf(stderr, "config: %s\n", err.c_str());
  }
  for (const std::string& key : config.UnusedKeys()) {
    std::fprintf(stderr, "config: unused key '%s' (typo?)\n", key.c_str());
  }
  if (!scheme_known || !workload || !config.errors().empty()) {
    return 1;
  }

  if (goal_ms <= hib::Duration{}) {
    goal_ms = multiplier * hib::MeasureBaseResponseMs(*workload, array, hib::Hours(2.0));
    workload->Reset();
  }
  scheme.goal_ms = goal_ms;

  auto policy = hib::MakePolicy(scheme);
  hib::ExperimentOptions options;
  options.collect_series = want_series;
  options.sample_period_ms = hib::Hours(1.0);
  options.trace_out = trace_out;
  options.metrics_out = metrics_out;
  hib::ExperimentResult r = hib::RunExperiment(*workload, *policy, array, options);

  hib::Table summary({"metric", "value"});
  summary.NewRow().Add("policy").Add(r.policy_desc);
  summary.NewRow().Add("goal (ms)").Add(goal_ms, 2);
  summary.NewRow().Add("requests").Add(r.requests);
  summary.NewRow().Add("energy (kJ)").Add(r.energy_total / 1000.0, 1);
  summary.NewRow().Add("mean power (W)").Add(r.MeanPower(), 1);
  summary.NewRow().Add("mean response (ms)").Add(r.mean_response_ms, 2);
  summary.NewRow().Add("p95 / p99 (ms)").Add(
      hib::FormatDouble(r.p95_response_ms.value(), 2) + " / " +
      hib::FormatDouble(r.p99_response_ms.value(), 2));
  summary.NewRow().Add("cache hit rate").AddPercent(r.cache_hit_rate);
  summary.NewRow().Add("RPM changes / spin-downs").Add(
      std::to_string(r.rpm_changes) + " / " + std::to_string(r.spin_downs));
  summary.NewRow().Add("migrated (GB)").Add(
      static_cast<double>(r.migrated_sectors) * hib::kSectorBytes / (1 << 30), 2);
  std::printf("%s", want_csv ? summary.ToCsv().c_str() : summary.ToString().c_str());

  if (want_series) {
    hib::Table series({"hour", "window resp (ms)", "energy so far (kJ)", "standby disks"});
    for (const hib::SeriesPoint& p : r.series) {
      series.NewRow()
          .Add(p.t / hib::Hours(1.0), 1)
          .Add(p.window_mean_response_ms, 2)
          .Add(p.energy_so_far / 1000.0, 1)
          .Add(p.disks_standby);
    }
    std::printf("\n%s", want_csv ? series.ToCsv().c_str() : series.ToString().c_str());
  }
  if (!trace_out.empty()) {
    std::printf("\n[trace: %s — open at https://ui.perfetto.dev]\n", trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    std::printf("[metrics: %s]\n", metrics_out.c_str());
  }
  return 0;
}

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
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <new>
#include <optional>
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
                            # Hibernator | Hibernator-NoMig | Hibernator-NoBoost |
                            # Hibernator-UT
scheme.goal_multiplier = 2.5  # x the measured Base mean response
scheme.goal_ms = 0            # absolute goal (overrides multiplier when > 0)
scheme.epoch_hours = 2
scheme.migration_budget_extents = 4096

# --- output --------------------------------------------------------------
output.series = false       # hourly response/speed-mix table
output.csv = false          # emit CSV instead of aligned tables
)";

// Looks up `name`; on a miss, prints the valid names and returns false.
bool ParseScheme(const std::string& name, hib::Scheme* scheme) {
  if (std::optional<hib::Scheme> found = hib::SchemeByName(name)) {
    *scheme = *found;
    return true;
  }
  std::fprintf(stderr, "config: unknown scheme.name '%s'; valid names:", name.c_str());
  for (hib::Scheme s : hib::AllSchemes()) {
    std::fprintf(stderr, " %s", hib::SchemeName(s));
  }
  std::fprintf(stderr, "\n");
  return false;
}

// Reports `key` unless `value` is finite and positive (or zero, with
// `allow_zero`).  A negative rate makes arrival gaps negative and an
// infinite horizon is never reached, so either run would not end; a
// non-positive horizon replays nothing, a non-positive epoch aborts the
// simulator, and a non-positive goal can never be met.
bool CheckValue(const char* key, double value, bool allow_zero = false) {
  if (std::isfinite(value) && (value > 0.0 || (allow_zero && value == 0.0))) {
    return true;
  }
  std::fprintf(stderr, "config: key '%s': must be a finite %s number, got %g\n", key,
               allow_zero ? "non-negative" : "positive", value);
  return false;
}

// Reports integer `key` unless it lies in [min, max].  Checked before any
// narrowing cast, so the message gives the value as written, not wrapped.
bool CheckInt(const char* key, std::int64_t value, std::int64_t min = 1,
              std::int64_t max = std::numeric_limits<int>::max()) {
  if (value >= min && value <= max) {
    return true;
  }
  std::fprintf(stderr, "config: key '%s': must be an integer from %lld to %lld, got %lld\n", key,
               static_cast<long long>(min), static_cast<long long>(max),
               static_cast<long long>(value));
  return false;
}

// Reports every array.* value no array can be built from, naming its key:
// the simulator would otherwise abort deep inside (a non-positive address
// space, a cache too large to allocate) or, for data_fraction above 1, run
// on more logical data than the disks hold.  `array` is the one the run will
// use: the scheme may have narrowed its group width.
bool CheckArray(const hib::ArrayParams& array, std::int64_t cache_mb) {
  bool valid = CheckValue("array.data_fraction", array.data_fraction);
  if (array.data_fraction > 1.0) {
    std::fprintf(stderr, "config: key 'array.data_fraction': must be at most 1, got %g\n",
                 array.data_fraction);
    valid = false;
  }
  if (array.num_disks % array.group_width != 0) {
    std::fprintf(stderr, "config: key 'array.group_width': %d does not divide array.disks = %d\n",
                 array.group_width, array.num_disks);
    valid = false;
  }
  // A cache can usefully hold at most the array's logical data.
  std::int64_t data_mb = valid ? array.DataSectors() / ((1 << 20) / hib::kSectorBytes)
                               : std::numeric_limits<std::int64_t>::max();
  return CheckInt("array.cache_mb", cache_mb, 0, data_mb) && valid;
}

std::unique_ptr<hib::WorkloadSource> MakeWorkload(hib::Config& config,
                                                  const hib::ArrayParams& array) {
  std::string kind = config.GetString("workload.kind", "oltp");
  std::string trace_path = config.GetString("workload.trace_path");  // touch: used for spc
  if (kind == "spc") {
    // The trace fixes its own length and content, so the generator keys
    // (hours, seed, rates) are left unread: set, they draw a warning.
    const std::string& path = trace_path;
    if (path.empty()) {
      std::fprintf(stderr,
                   "config: key 'workload.trace_path': required when workload.kind = spc\n");
      return nullptr;
    }
    // A trace that yields no record would replay nothing and report an
    // empty run as a result.
    auto reader = std::make_unique<hib::SpcTraceReader>(path, array.DataSectors());
    hib::TraceRecord first;
    if (!reader->Next(&first)) {
      std::fprintf(stderr, "config: key 'workload.trace_path': %s '%s'\n",
                   std::ifstream(path).is_open() ? "no parseable record in" : "cannot open",
                   path.c_str());
      return nullptr;
    }
    reader->Reset();
    return reader;
  }
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
  std::fprintf(stderr, "config: key 'workload.kind': unknown kind '%s'\n", kind.c_str());
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

  std::int64_t disks = config.GetInt("array.disks", 16);
  std::int64_t group_width = config.GetInt("array.group_width", 4);
  std::int64_t speed_levels = config.GetInt("array.speed_levels", 5);
  bool ints_valid = CheckInt("array.disks", disks);
  ints_valid = CheckInt("array.group_width", group_width) && ints_valid;
  ints_valid = CheckInt("array.speed_levels", speed_levels, 1, hib::kUltrastarMaxSpeedLevels) &&
               ints_valid;
  if (!ints_valid) {
    return 1;
  }
  hib::ArrayParams array;
  array.num_disks = static_cast<int>(disks);
  array.group_width = static_cast<int>(group_width);
  array.disk = hib::MakeUltrastar36Z15MultiSpeed(static_cast<int>(speed_levels));
  std::int64_t cache_mb = config.GetInt("array.cache_mb", 128);
  array.data_fraction = config.GetDouble("array.data_fraction", 0.6);

  hib::SchemeConfig scheme;
  bool scheme_known = ParseScheme(config.GetString("scheme.name", "Hibernator"), &scheme.scheme);
  double epoch_hours = config.GetDouble("scheme.epoch_hours", 2.0);
  scheme.epoch_ms = hib::Hours(epoch_hours);
  scheme.migration_budget_extents = config.GetInt("scheme.migration_budget_extents", 4096);
  array = hib::ArrayFor(scheme, array);
  if (!CheckArray(array, cache_mb)) {
    return 1;
  }
  array.cache_lines = static_cast<std::size_t>(cache_mb) * 16;

  auto workload = MakeWorkload(config, array);

  hib::Duration goal_ms = hib::Ms(config.GetDouble("scheme.goal_ms", 0.0));
  double multiplier = config.GetDouble("scheme.goal_multiplier", 2.5);
  bool scheme_valid = CheckValue("scheme.epoch_hours", epoch_hours);
  scheme_valid = CheckValue("scheme.goal_ms", goal_ms / hib::Ms(1.0), true) && scheme_valid;
  scheme_valid = CheckValue("scheme.goal_multiplier", multiplier) && scheme_valid;
  scheme_valid = CheckValue("scheme.migration_budget_extents",
                            static_cast<double>(scheme.migration_budget_extents), true) &&
                 scheme_valid;
  bool want_series = config.GetBool("output.series", false);
  bool want_csv = config.GetBool("output.csv", false);

  // Every key has been read: report all bad values, and stop on any, before
  // the Base probe rather than after it.  A key --print-default-config does
  // not list is an error (a typo would otherwise run on that key's default);
  // a listed key this workload kind does not read is only ignored.
  for (const std::string& err : config.errors()) {
    std::fprintf(stderr, "config: %s\n", err.c_str());
  }
  hib::Config known;
  known.ParseString(kDefaultConfig);
  bool keys_known = true;
  for (const std::string& key : config.UnusedKeys()) {
    if (known.Has(key)) {
      std::fprintf(stderr, "config: key '%s' is not used by this workload.kind (ignored)\n",
                   key.c_str());
    } else {
      std::fprintf(stderr, "config: key '%s': unknown (see --print-default-config)\n",
                   key.c_str());
      keys_known = false;
    }
  }
  if (!scheme_known || !scheme_valid || !keys_known || !workload || !config.errors().empty()) {
    return 1;
  }

  hib::ExperimentResult r;
  try {
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
    r = hib::RunExperiment(*workload, *policy, array, options);
  } catch (const std::bad_alloc&) {
    // The array keeps a record per extent: a size no address space holds
    // must end here, not abort inside the allocator.
    std::fprintf(stderr,
                 "config: key 'array.disks': %d disks at array.data_fraction = %g hold %lld "
                 "extents, more than this machine can allocate\n",
                 array.num_disks, array.data_fraction,
                 static_cast<long long>(array.NumExtents()));
    return 1;
  }

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

// Golden-regression suite: pins per-scheme total energy and mean/95p response
// on fixed-seed synthetic OLTP and Cello-like workloads against the numbers
// checked in under tests/golden/*.json.
//
// Any change to the disk model, queueing, layout, policies or the CR
// algorithm that shifts a result by more than 1 part in 1e9 fails here — on
// purpose.  If the shift is intended (a model fix, a new default), regenerate
// the goldens and commit them together with the change:
//
//   ./golden_test --update-golden          # rewrites tests/golden/*.json
//
// The golden directory is baked in at compile time (HIB_GOLDEN_DIR points at
// the source tree), so regeneration works from any build directory.
//
// Determinism notes: every case runs through RunAll (bit-identical to a
// sequential run regardless of thread count), the workloads are fixed-seed,
// and the goal is an absolute constant (no measured-base calibration step
// that could wobble).  The build uses strict ISO FP (no -ffast-math, no
// -march=native), so Debug / RelWithDebInfo / sanitizer builds all produce
// the same doubles and this suite runs under `ctest -j` and the tsan preset
// without per-configuration goldens.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/parallel.h"
#include "src/harness/schemes.h"
#include "src/trace/format.h"
#include "src/trace/morph.h"
#include "src/trace/synthetic.h"
#include "src/util/check.h"

namespace hib {
namespace {

bool g_update_golden = false;

std::string GoldenPath(const std::string& workload) {
  return std::string(HIB_GOLDEN_DIR) + "/" + workload + ".json";
}

// The six headline schemes of the paper's comparison figures.
const std::vector<Scheme>& GoldenSchemes() {
  static const std::vector<Scheme> kSchemes = {Scheme::kBase, Scheme::kTpm,  Scheme::kDrpm,
                                               Scheme::kPdc,  Scheme::kMaid, Scheme::kHibernator};
  return kSchemes;
}

// Small but non-trivial: 8 data disks, one simulated hour.  Big enough for
// every policy to make real decisions (epochs, spin-downs, migrations),
// small enough that the whole suite stays fast under TSan.
ArrayParams GoldenArray() {
  ArrayParams array;
  array.num_disks = 8;
  array.group_width = 4;
  array.disk = MakeUltrastar36Z15MultiSpeed(5);
  array.cache_lines = 512;
  array.seed = 12345;
  return array;
}

std::unique_ptr<WorkloadSource> MakeGoldenOltp(const ArrayParams& array) {
  OltpWorkloadParams wp;
  wp.address_space_sectors = array.DataSectors();
  wp.duration_ms = Hours(1.0);
  wp.peak_iops = 120.0;
  wp.trough_iops = 40.0;
  wp.seed = 424242;
  return std::make_unique<OltpWorkload>(wp);
}

std::unique_ptr<WorkloadSource> MakeGoldenCello(const ArrayParams& array) {
  CelloWorkloadParams wp;
  wp.address_space_sectors = array.DataSectors();
  wp.duration_ms = Hours(1.0);
  wp.peak_iops = 60.0;
  wp.trough_iops = 4.0;
  wp.seed = 373737;
  return std::make_unique<CelloWorkload>(wp);
}

// The compiled-trace golden: a small OLTP slice compiled to the binary
// format ONCE (function-local static, shared by all six scheme runs), then
// remapped onto each scheme's data space.  Pins the whole trace pipeline —
// compiler, checksummed replay cursor, LBA remap morph — to the same 1e-9
// bar as the generator-driven cases.
std::unique_ptr<WorkloadSource> MakeGoldenTrace(const ArrayParams& array) {
  static const std::string compiled = [] {
    OltpWorkloadParams wp;
    wp.address_space_sectors = 1 << 22;  // 2 GB source space, remapped below
    wp.duration_ms = Hours(1.0);
    wp.peak_iops = 90.0;
    wp.trough_iops = 25.0;
    wp.seed = 616161;
    OltpWorkload source(wp);
    std::string bytes;
    TraceCompileResult result = CompileTrace(source, &bytes);
    HIB_CHECK(result.ok) << result.error;
    return bytes;
  }();
  auto reader = CompiledTraceReader::FromBuffer(compiled);
  HIB_CHECK(reader->ok()) << reader->error();
  return std::make_unique<LbaRemapMorph>(std::move(reader), array.DataSectors());
}

// Runs the comparison and flattens it to "<scheme>.<metric>" -> value.
std::map<std::string, double> RunGoldenCase(
    std::unique_ptr<WorkloadSource> (*make_workload)(const ArrayParams&)) {
  std::vector<ExperimentSpec> specs;
  for (Scheme scheme : GoldenSchemes()) {
    SchemeConfig cfg;
    cfg.scheme = scheme;
    cfg.goal_ms = Ms(25.0);  // absolute: no measured-base calibration
    cfg.epoch_ms = Minutes(15.0);
    cfg.migration_budget_extents = 1024;
    specs.push_back(SpecForScheme(cfg, GoldenArray(), make_workload));
  }
  std::vector<ExperimentResult> results = RunAll(specs);

  std::map<std::string, double> values;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string prefix = SchemeName(GoldenSchemes()[i]);
    const ExperimentResult& r = results[i];
    values[prefix + ".energy_j"] = r.energy_total.value();
    values[prefix + ".mean_response_ms"] = r.mean_response_ms.value();
    values[prefix + ".p95_response_ms"] = r.p95_response_ms.value();
  }
  return values;
}

void WriteGolden(const std::string& workload, const std::map<std::string, double>& values) {
  std::string path = GoldenPath(workload);
  std::ofstream out(path);
  ASSERT_TRUE(out) << "cannot write " << path;
  out << "{\n";
  std::size_t i = 0;
  for (const auto& [key, value] : values) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out << "  \"" << key << "\": " << buf << (++i < values.size() ? "," : "") << "\n";
  }
  out << "}\n";
  std::printf("golden: wrote %zu keys to %s\n",  // NOLINT(HIB003)
              values.size(), path.c_str());
}

// Flat one-key-per-line parser for the golden files (no JSON dependency).
std::map<std::string, double> ReadGolden(const std::string& workload) {
  std::map<std::string, double> values;
  std::ifstream in(GoldenPath(workload));
  std::string line;
  while (std::getline(in, line)) {
    std::size_t key_start = line.find('"');
    if (key_start == std::string::npos) {
      continue;
    }
    std::size_t key_end = line.find('"', key_start + 1);
    std::size_t colon = line.find(':', key_end);
    if (key_end == std::string::npos || colon == std::string::npos) {
      continue;
    }
    std::string key = line.substr(key_start + 1, key_end - key_start - 1);
    values[key] = std::strtod(line.c_str() + colon + 1, nullptr);
  }
  return values;
}

void CheckAgainstGolden(const std::string& workload,
                        std::unique_ptr<WorkloadSource> (*make_workload)(const ArrayParams&)) {
  std::map<std::string, double> actual = RunGoldenCase(make_workload);
  if (g_update_golden) {
    WriteGolden(workload, actual);
    return;
  }
  std::map<std::string, double> golden = ReadGolden(workload);
  ASSERT_FALSE(golden.empty()) << "missing or empty golden file " << GoldenPath(workload)
                               << " — regenerate with: golden_test --update-golden";
  for (const auto& [key, value] : actual) {
    auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "no golden value for " << key
                                << " — regenerate with --update-golden";
    double expected = it->second;
    double scale = std::max(std::abs(expected), 1e-300);
    EXPECT_LE(std::abs(value - expected) / scale, 1e-9)
        << workload << " " << key << ": got " << value << ", golden " << expected;
  }
  EXPECT_EQ(golden.size(), actual.size())
      << "golden file " << GoldenPath(workload) << " has stale keys — regenerate";
}

TEST(Golden, OltpSchemeComparison) { CheckAgainstGolden("oltp", MakeGoldenOltp); }

TEST(Golden, CelloSchemeComparison) { CheckAgainstGolden("cello", MakeGoldenCello); }

TEST(Golden, CompiledTraceSchemeComparison) { CheckAgainstGolden("trace", MakeGoldenTrace); }

}  // namespace
}  // namespace hib

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      hib::g_update_golden = true;
      // Hide the flag from gtest's parser.
      for (int j = i; j + 1 < argc; ++j) {
        argv[j] = argv[j + 1];
      }
      --argc;
      break;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

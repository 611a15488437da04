// Pins the core guarantee of src/harness/parallel.h: RunAll is nothing but a
// thread-pooled RunExperiment, so its results are *bit identical* to running
// the same specs sequentially, in spec order, for any thread count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/parallel.h"
#include "src/harness/schemes.h"
#include "src/trace/synthetic.h"

namespace hib {
namespace {

ArrayParams TinyArray() {
  ArrayParams p;
  p.num_disks = 4;
  p.group_width = 4;
  p.disk = MakeUltrastar36Z15MultiSpeed(5);
  p.data_fraction = 0.05;
  p.cache_lines = 0;
  return p;
}

ConstantWorkloadParams TinyWorkload(SectorAddr space) {
  ConstantWorkloadParams p;
  p.address_space_sectors = space;
  p.duration_ms = Hours(0.25);
  p.iops = 25.0;
  return p;
}

// The paths cello-compare runs beyond the constant stream: PDC and
// Hibernator migrations, MAID cache-disk copies and controller-cache hits,
// on a bursty write-heavy stream.
ArrayParams CelloArray() {
  ArrayParams p = TinyArray();
  p.num_disks = 8;
  p.cache_lines = 256;
  return p;
}

CelloWorkloadParams ShortCello(SectorAddr space) {
  CelloWorkloadParams p;
  p.address_space_sectors = space;
  p.duration_ms = Hours(1.5);
  p.peak_iops = 60.0;
  return p;
}

std::vector<ExperimentSpec> MakeSpecs() {
  std::vector<ExperimentSpec> specs;
  ExperimentOptions options;
  options.collect_series = true;
  options.sample_period_ms = Hours(0.05);
  for (Scheme s : {Scheme::kBase, Scheme::kTpm, Scheme::kDrpm, Scheme::kHibernator,
                   Scheme::kBase, Scheme::kTpm}) {
    SchemeConfig cfg;
    cfg.scheme = s;
    ExperimentSpec spec = SpecForScheme(
        cfg, TinyArray(),
        [](const ArrayParams& array) {
          return std::make_unique<ConstantWorkload>(TinyWorkload(array.DataSectors()));
        },
        options);
    specs.push_back(std::move(spec));
  }
  for (Scheme s : MainComparisonSchemes()) {
    SchemeConfig cfg;
    cfg.scheme = s;
    cfg.epoch_ms = Hours(0.25);
    cfg.goal_ms = Ms(40.0);
    specs.push_back(SpecForScheme(
        cfg, CelloArray(),
        [](const ArrayParams& array) {
          return std::make_unique<CelloWorkload>(ShortCello(array.DataSectors()));
        },
        options));
  }
  return specs;
}

void ExpectBitIdentical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.policy_desc, b.policy_desc);
  EXPECT_EQ(a.sim_duration_ms, b.sim_duration_ms);
  EXPECT_EQ(a.energy_total, b.energy_total);  // exact, not NEAR: bit identical
  EXPECT_EQ(a.energy.active, b.energy.active);
  EXPECT_EQ(a.energy.idle, b.energy.idle);
  EXPECT_EQ(a.energy.standby, b.energy.standby);
  EXPECT_EQ(a.energy.transition, b.energy.transition);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.mean_response_ms, b.mean_response_ms);
  EXPECT_EQ(a.p95_response_ms, b.p95_response_ms);
  EXPECT_EQ(a.p99_response_ms, b.p99_response_ms);
  EXPECT_EQ(a.max_response_ms, b.max_response_ms);
  EXPECT_EQ(a.cache_hit_rate, b.cache_hit_rate);
  EXPECT_EQ(a.spin_ups, b.spin_ups);
  EXPECT_EQ(a.spin_downs, b.spin_downs);
  EXPECT_EQ(a.rpm_changes, b.rpm_changes);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.migrated_sectors, b.migrated_sectors);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].t, b.series[i].t);
    EXPECT_EQ(a.series[i].window_mean_response_ms, b.series[i].window_mean_response_ms);
    EXPECT_EQ(a.series[i].energy_so_far, b.series[i].energy_so_far);
    EXPECT_EQ(a.series[i].disks_at_level, b.series[i].disks_at_level);
    EXPECT_EQ(a.series[i].disks_standby, b.series[i].disks_standby);
  }
  const MetricsSnapshot& am = a.metrics;
  const MetricsSnapshot& bm = b.metrics;
  ASSERT_EQ(am.counters.size(), bm.counters.size());
  for (std::size_t i = 0; i < am.counters.size(); ++i) {
    EXPECT_EQ(am.counters[i].name, bm.counters[i].name);
    EXPECT_EQ(am.counters[i].count, bm.counters[i].count) << am.counters[i].name;
  }
  ASSERT_EQ(am.gauges.size(), bm.gauges.size());
  for (std::size_t i = 0; i < am.gauges.size(); ++i) {
    EXPECT_EQ(am.gauges[i].name, bm.gauges[i].name);
    EXPECT_EQ(am.gauges[i].current, bm.gauges[i].current) << am.gauges[i].name;
  }
  ASSERT_EQ(am.histograms.size(), bm.histograms.size());
  for (std::size_t i = 0; i < am.histograms.size(); ++i) {
    const MetricsSnapshot::HistogramPoint& ah = am.histograms[i];
    const MetricsSnapshot::HistogramPoint& bh = bm.histograms[i];
    EXPECT_EQ(ah.name, bh.name);
    EXPECT_EQ(ah.count, bh.count) << ah.name;
    EXPECT_EQ(ah.sum, bh.sum) << ah.name;
    EXPECT_EQ(ah.min_seen, bh.min_seen) << ah.name;
    EXPECT_EQ(ah.max_seen, bh.max_seen) << ah.name;
    EXPECT_EQ(ah.buckets, bh.buckets) << ah.name;
  }
}

TEST(RunAll, BitIdenticalToSequentialRuns) {
  std::vector<ExperimentSpec> specs = MakeSpecs();

  std::vector<ExperimentResult> sequential;
  for (const ExperimentSpec& spec : specs) {
    auto policy = spec.make_policy();
    auto workload = spec.make_workload(spec.array);
    sequential.push_back(RunExperiment(*workload, *policy, spec.array, spec.options));
  }

  std::vector<ExperimentResult> parallel = RunAll(specs, 4);
  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    SCOPED_TRACE(specs[i].name);
    ExpectBitIdentical(parallel[i], sequential[i]);
  }

  // The Cello specs must keep reaching the paths they are there for.
  auto counter = [](const ExperimentResult& r, const std::string& name) {
    for (const MetricsSnapshot::CounterPoint& c : r.metrics.counters) {
      if (c.name == name) {
        return c.count;
      }
    }
    return std::int64_t{0};
  };
  for (std::size_t i = specs.size() - MainComparisonSchemes().size(); i < specs.size(); ++i) {
    const ExperimentResult& r = sequential[i];
    SCOPED_TRACE(r.policy_name);
    EXPECT_GT(r.cache_hit_rate, 0.0);
    EXPECT_EQ(r.migrations > 0, r.policy_name == "PDC" || r.policy_name == "Hibernator");
    EXPECT_EQ(r.rpm_changes > 0, r.policy_name == "DRPM" || r.policy_name == "Hibernator");
    EXPECT_EQ(counter(r, "policy.maid_copies_started") > 0, r.policy_name == "MAID");
  }
}

TEST(RunAll, ThreadCountDoesNotChangeResults) {
  std::vector<ExperimentSpec> specs = MakeSpecs();
  std::vector<ExperimentResult> one = RunAll(specs, 1);
  std::vector<ExperimentResult> many = RunAll(specs, 3);
  ASSERT_EQ(one.size(), many.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    SCOPED_TRACE(specs[i].name);
    ExpectBitIdentical(one[i], many[i]);
  }
}

TEST(RunAll, ResultsComeBackInSpecOrder) {
  std::vector<ExperimentSpec> specs = MakeSpecs();
  std::vector<ExperimentResult> results = RunAll(specs, 4);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    // Slot i must hold the run of spec i's policy, whichever thread ran it.
    EXPECT_EQ(results[i].policy_name, specs[i].make_policy()->Name());
  }
}

TEST(RunAll, PostRunHookSeesEachSpecsPolicy) {
  std::vector<ExperimentSpec> specs = MakeSpecs();
  std::vector<std::string> hook_names(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].post_run = [&hook_names, i](const PowerPolicy& policy,
                                         const ExperimentResult& result) {
      hook_names[i] = result.policy_name;
      (void)policy;
    };
  }
  std::vector<ExperimentResult> results = RunAll(specs, 4);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(hook_names[i], results[i].policy_name);
  }
}

TEST(RunAll, EmptySpecListReturnsEmpty) {
  EXPECT_TRUE(RunAll({}, 4).empty());
}

}  // namespace
}  // namespace hib

#include <gtest/gtest.h>

#include <memory>

#include "src/harness/experiment.h"
#include "src/harness/schemes.h"
#include "src/policy/full_power.h"
#include "src/trace/spc_reader.h"
#include "src/trace/synthetic.h"
#include "src/util/table.h"

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
  p.duration_ms = Hours(0.5);
  p.iops = 20.0;
  return p;
}

// ------------------------------------------------------- scheme registry ---

TEST(Schemes, AllSchemesHaveNames) {
  ASSERT_EQ(AllSchemes().size(), 10u);
  for (Scheme s : AllSchemes()) {
    EXPECT_STRNE(SchemeName(s), "?");
  }
}

TEST(Schemes, SchemeByNameInvertsSchemeName) {
  for (Scheme s : AllSchemes()) {
    EXPECT_EQ(SchemeByName(SchemeName(s)), s) << SchemeName(s);
  }
  EXPECT_EQ(SchemeByName("Hibernatr"), std::nullopt);
  EXPECT_EQ(SchemeByName("hibernator"), std::nullopt);
  EXPECT_EQ(SchemeByName(""), std::nullopt);
}

TEST(Schemes, MainComparisonOrderMatchesPaper) {
  std::vector<Scheme> schemes = MainComparisonSchemes();
  ASSERT_EQ(schemes.size(), 6u);
  EXPECT_EQ(schemes.front(), Scheme::kBase);
  EXPECT_EQ(schemes.back(), Scheme::kHibernator);
}

TEST(Schemes, ArrayForReshapesPdc) {
  SchemeConfig cfg;
  cfg.scheme = Scheme::kPdc;
  ArrayParams adjusted = ArrayFor(cfg, TinyArray());
  EXPECT_EQ(adjusted.group_width, 1);
  EXPECT_EQ(adjusted.num_cache_disks, 0);
}

TEST(Schemes, ArrayForAddsMaidCacheDisks) {
  SchemeConfig cfg;
  cfg.scheme = Scheme::kMaid;
  ArrayParams adjusted = ArrayFor(cfg, TinyArray());
  EXPECT_EQ(adjusted.group_width, 1);
  EXPECT_EQ(adjusted.num_cache_disks, 2);
}

TEST(Schemes, ArrayForLeavesStripedSchemesAlone) {
  for (Scheme s : {Scheme::kBase, Scheme::kTpm, Scheme::kDrpm, Scheme::kHibernator}) {
    SchemeConfig cfg;
    cfg.scheme = s;
    ArrayParams adjusted = ArrayFor(cfg, TinyArray());
    EXPECT_EQ(adjusted.group_width, 4) << SchemeName(s);
    EXPECT_EQ(adjusted.num_cache_disks, 0) << SchemeName(s);
  }
}

TEST(Schemes, MakePolicyProducesMatchingNames) {
  for (Scheme s : MainComparisonSchemes()) {
    SchemeConfig cfg;
    cfg.scheme = s;
    auto policy = MakePolicy(cfg);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->Name(), SchemeName(s));
  }
}

TEST(Schemes, HibernatorVariantsCarryConfig) {
  SchemeConfig cfg;
  cfg.scheme = Scheme::kHibernator;
  cfg.goal_ms = Ms(42.5);
  auto policy = MakePolicy(cfg);
  EXPECT_NE(policy->Describe().find("42.5"), std::string::npos);
}

// ---------------------------------------------------------- experiment -----

TEST(Experiment, DurationMatchesTracePlusDrain) {
  ArrayParams array = TinyArray();
  ConstantWorkload workload(TinyWorkload(array.DataSectors()));
  FullPowerPolicy dummy_check_not_needed;  // compile check for header export
  SchemeConfig cfg;
  cfg.scheme = Scheme::kBase;
  auto policy = MakePolicy(cfg);
  ExperimentOptions options;
  options.drain_ms = Seconds(10.0);
  ExperimentResult r = RunExperiment(workload, *policy, array, options);
  EXPECT_NEAR(r.sim_duration_ms.value(), (Hours(0.5) + Seconds(10.0)).value(), 1.0);
}

TEST(Experiment, InjectorStopsAtFirstRecordAfterStopTime) {
  ArrayParams params = TinyArray();
  const SimTime stop = Seconds(90.0);
  ConstantWorkload reference(TinyWorkload(params.DataSectors()));
  std::int64_t before_stop = 0;
  TraceRecord rec;
  while (reference.Next(&rec) && rec.time <= stop) {
    ++before_stop;
  }
  Simulator sim;
  ArrayController array(&sim, params);
  ConstantWorkload workload(TinyWorkload(params.DataSectors()));
  TraceInjector injector(&sim, &array, &workload, stop);
  injector.Start();
  sim.RunUntil(Hours(1.0));
  EXPECT_GT(before_stop, 1000);
  EXPECT_EQ(array.stats().total_responses, before_stop);
  // The source was pulled exactly one record past the stop.
  TraceRecord next;
  ASSERT_TRUE(reference.Next(&next));
  ASSERT_TRUE(workload.Next(&rec));
  EXPECT_EQ(rec.time, next.time);
}

TEST(Experiment, MeanPowerConsistentWithEnergy) {
  ArrayParams array = TinyArray();
  ConstantWorkload workload(TinyWorkload(array.DataSectors()));
  SchemeConfig cfg;
  cfg.scheme = Scheme::kBase;
  auto policy = MakePolicy(cfg);
  ExperimentResult r = RunExperiment(workload, *policy, array);
  EXPECT_NEAR(r.MeanPower().value(), (r.energy_total / r.sim_duration_ms).value(), 1e-9);
  // 4 idle-ish disks at 10.2-13.5 W.
  EXPECT_GT(r.MeanPower(), Watts(4 * 10.0));
  EXPECT_LT(r.MeanPower(), Watts(4 * 14.0));
}

TEST(Experiment, SavingsVsIsSymmetricallySane) {
  ExperimentResult a;
  a.energy_total = Joules(50.0);
  ExperimentResult b;
  b.energy_total = Joules(100.0);
  EXPECT_DOUBLE_EQ(a.SavingsVs(b), 0.5);
  EXPECT_DOUBLE_EQ(b.SavingsVs(b), 0.0);
  EXPECT_DOUBLE_EQ(b.SavingsVs(a), -1.0);
}

TEST(Experiment, SeriesDisabledByDefault) {
  ArrayParams array = TinyArray();
  ConstantWorkload workload(TinyWorkload(array.DataSectors()));
  SchemeConfig cfg;
  cfg.scheme = Scheme::kBase;
  auto policy = MakePolicy(cfg);
  ExperimentResult r = RunExperiment(workload, *policy, array);
  EXPECT_TRUE(r.series.empty());
}

TEST(Experiment, RequestsMatchTrace) {
  ArrayParams array = TinyArray();
  ConstantWorkload count_source(TinyWorkload(array.DataSectors()));
  TraceSummary summary = Summarize(count_source);

  ConstantWorkload workload(TinyWorkload(array.DataSectors()));
  SchemeConfig cfg;
  cfg.scheme = Scheme::kBase;
  auto policy = MakePolicy(cfg);
  ExperimentResult r = RunExperiment(workload, *policy, array);
  EXPECT_EQ(r.requests, summary.records);
}

TEST(Experiment, UnknownDurationSourceStillTerminates) {
  // SPC readers report no duration hint; the slice-discovery path must end.
  ArrayParams array = TinyArray();
  std::string trace =
      "0,100,4096,r,1.0\n"
      "0,200,4096,w,2.0\n"
      "0,300,4096,r,3600.0\n";  // spans an hour
  auto reader = SpcTraceReader::FromString(trace, array.DataSectors());
  SchemeConfig cfg;
  cfg.scheme = Scheme::kBase;
  auto policy = MakePolicy(cfg);
  ExperimentResult r = RunExperiment(*reader, *policy, array);
  EXPECT_EQ(r.requests, 3);
  EXPECT_GE(r.sim_duration_ms, Hours(1.0));
  EXPECT_LE(r.sim_duration_ms, Hours(3.5));  // 1h trace + <=2h discovery + drain
}

TEST(Experiment, EventCapacityHintIsClamped) {
  constexpr std::size_t kFloor = 4096;
  constexpr std::size_t kCeiling = std::size_t{1} << 20;
  // An absurd rate is capped instead of reserving billions of events.
  ArrayParams oltp = MakeOltpSetup().array;
  EXPECT_EQ(EventCapacityHintFor(oltp, 1e9), kCeiling);
  EXPECT_EQ(EventCapacityHintFor(oltp, 1e300), kCeiling);
  EXPECT_EQ(EventCapacityHintFor(oltp, -5.0), kFloor);
  // The benchmark's array shapes stay on the floor: an OLTP array at the
  // fleet's highest rate (300 IOPS, +25%), and the Cello array under every
  // scheme, MAID's cache disks included.
  EXPECT_EQ(EventCapacityHintFor(oltp, 300.0 * 1.25), kFloor);
  CelloSetup cello = MakeCelloSetup();
  for (Scheme s : MainComparisonSchemes()) {
    SchemeConfig cfg;
    cfg.scheme = s;
    EXPECT_EQ(EventCapacityHintFor(ArrayFor(cfg, cello.array), cello.peak_iops), kFloor)
        << SchemeName(s);
  }
  // Between the bounds the hint is unchanged: 64 per disk + 4 per IOPS.
  EXPECT_EQ(EventCapacityHintFor(oltp, 10000.0), 64u * 20u + 40000u);
}

TEST(Experiment, OltpSetupSpeedLevelsPropagate) {
  for (int levels : {1, 2, 5}) {
    OltpSetup setup = MakeOltpSetup(levels);
    EXPECT_EQ(setup.array.disk.num_speeds(), levels);
  }
}

}  // namespace
}  // namespace hib

#include <gtest/gtest.h>

#include "src/array/array.h"
#include "src/harness/experiment.h"
#include "src/hibernator/hibernator_policy.h"
#include "src/sim/simulator.h"
#include "src/trace/synthetic.h"

namespace hib {
namespace {

ArrayParams TestArray() {
  ArrayParams p;
  p.num_disks = 8;
  p.group_width = 4;
  p.disk = MakeUltrastar36Z15MultiSpeed(5);
  p.data_fraction = 0.1;
  p.cache_lines = 0;
  return p;
}

HibernatorParams TestParams(Duration goal_ms = Ms(25.0)) {
  HibernatorParams p;
  p.goal_ms = goal_ms;
  p.epoch_ms = Hours(0.25);  // 15-minute epochs keep the tests short
  return p;
}

// Replays a workload inline (pull-driven) against an array + policy.
void Replay(Simulator& sim, ArrayController& array, WorkloadSource& workload, SimTime until) {
  TraceInjector injector(&sim, &array, &workload);
  injector.Start();
  sim.RunUntil(until);
}

TEST(Hibernator, SlowsDownUnderLightLoad) {
  Simulator sim;
  ArrayController array(&sim, TestArray());
  HibernatorPolicy policy(TestParams(Ms(40.0)));
  policy.Attach(&sim, &array);

  ConstantWorkloadParams wp;
  wp.address_space_sectors = array.params().DataSectors();
  wp.duration_ms = Hours(1.0);
  wp.iops = 10.0;  // trivially light
  ConstantWorkload workload(wp);
  Replay(sim, array, workload, Hours(1.0));

  EXPECT_GE(policy.epochs_completed(), 3);
  int slow_disks = 0;
  for (int i = 0; i < array.num_data_disks(); ++i) {
    if (array.disk(i).target_rpm() < 15000) {
      ++slow_disks;
    }
  }
  EXPECT_EQ(slow_disks, 8);  // light + loose goal: everything slows
}

TEST(Hibernator, StaysFastWhenGoalIsTight) {
  Simulator sim;
  ArrayController array(&sim, TestArray());
  HibernatorPolicy policy(TestParams(Ms(7.0)));  // barely above service time
  policy.Attach(&sim, &array);

  ConstantWorkloadParams wp;
  wp.address_space_sectors = array.params().DataSectors();
  wp.duration_ms = Hours(1.0);
  wp.iops = 40.0;
  ConstantWorkload workload(wp);
  Replay(sim, array, workload, Hours(1.0));

  for (int i = 0; i < array.num_data_disks(); ++i) {
    EXPECT_EQ(array.disk(i).target_rpm(), 15000) << "disk " << i;
  }
}

TEST(Hibernator, EpochsTick) {
  Simulator sim;
  ArrayController array(&sim, TestArray());
  HibernatorPolicy policy(TestParams());
  policy.Attach(&sim, &array);
  sim.RunUntil(Hours(1.0));
  EXPECT_EQ(policy.epochs_completed(), 4);  // 15-min epochs
}

TEST(Hibernator, MigrationMovesHotDataUnderSkew) {
  Simulator sim;
  ArrayParams ap = TestArray();
  ArrayController array(&sim, ap);
  HibernatorParams hp = TestParams(Ms(40.0));
  hp.migration_budget_extents = 64;
  HibernatorPolicy policy(hp);
  policy.Attach(&sim, &array);

  OltpWorkloadParams wp;
  wp.address_space_sectors = ap.DataSectors();
  wp.duration_ms = Hours(2.0);
  wp.peak_iops = 60.0;
  wp.trough_iops = 60.0;
  wp.zipf_theta = 1.1;  // strong skew
  OltpWorkload workload(wp);
  Replay(sim, array, workload, Hours(2.0));

  EXPECT_GT(policy.migrations_requested(), 0);
  EXPECT_GT(array.stats().migrations_completed, 0);
}

TEST(Hibernator, NoMigrationFlagHonored) {
  Simulator sim;
  ArrayParams ap = TestArray();
  ArrayController array(&sim, ap);
  HibernatorParams hp = TestParams(Ms(40.0));
  hp.enable_migration = false;
  HibernatorPolicy policy(hp);
  policy.Attach(&sim, &array);

  OltpWorkloadParams wp;
  wp.address_space_sectors = ap.DataSectors();
  wp.duration_ms = Hours(1.0);
  wp.peak_iops = 60.0;
  wp.trough_iops = 60.0;
  OltpWorkload workload(wp);
  Replay(sim, array, workload, Hours(1.0));

  EXPECT_EQ(policy.migrations_requested(), 0);
  EXPECT_EQ(array.stats().migrations_completed, 0);
}

TEST(Hibernator, BoostTriggersWhenGoalViolated) {
  Simulator sim;
  ArrayController array(&sim, TestArray());
  // Impossible goal (below service time) with nonzero load: the credit
  // account must go negative and trigger a boost almost immediately.
  HibernatorParams hp = TestParams(Ms(1.0));
  hp.credit_cap_requests = 100.0;
  HibernatorPolicy policy(hp);
  policy.Attach(&sim, &array);

  ConstantWorkloadParams wp;
  wp.address_space_sectors = array.params().DataSectors();
  wp.duration_ms = Hours(0.5);
  wp.iops = 30.0;
  ConstantWorkload workload(wp);
  Replay(sim, array, workload, Hours(0.5));

  EXPECT_GE(policy.boosts(), 1);
  EXPECT_TRUE(policy.boosted());  // goal unreachable: stays boosted
  for (int i = 0; i < array.num_data_disks(); ++i) {
    EXPECT_EQ(array.disk(i).target_rpm(), 15000);
  }
}

TEST(Hibernator, NoBoostWhenDisabled) {
  Simulator sim;
  ArrayController array(&sim, TestArray());
  HibernatorParams hp = TestParams(Ms(1.0));  // impossible goal
  hp.enable_boost = false;
  HibernatorPolicy policy(hp);
  policy.Attach(&sim, &array);

  ConstantWorkloadParams wp;
  wp.address_space_sectors = array.params().DataSectors();
  wp.duration_ms = Hours(0.5);
  wp.iops = 30.0;
  ConstantWorkload workload(wp);
  Replay(sim, array, workload, Hours(0.5));

  EXPECT_EQ(policy.boosts(), 0);
}

TEST(Hibernator, UtilizationThresholdVariantRuns) {
  Simulator sim;
  ArrayController array(&sim, TestArray());
  HibernatorParams hp = TestParams(Ms(40.0));
  hp.use_cr = false;
  hp.enable_boost = false;  // isolate the speed-setting path
  HibernatorPolicy policy(hp);
  EXPECT_EQ(policy.Name(), "Hibernator-UT");
  policy.Attach(&sim, &array);

  ConstantWorkloadParams wp;
  wp.address_space_sectors = array.params().DataSectors();
  wp.duration_ms = Hours(1.0);
  wp.iops = 10.0;
  ConstantWorkload workload(wp);
  Replay(sim, array, workload, Hours(1.0));

  // The naive variant also slows down under light load.
  int slow = 0;
  for (int i = 0; i < array.num_data_disks(); ++i) {
    slow += array.disk(i).target_rpm() < 15000 ? 1 : 0;
  }
  EXPECT_GT(slow, 0);
}

TEST(Hibernator, GroupLevelsMatchDiskSpeeds) {
  Simulator sim;
  ArrayController array(&sim, TestArray());
  HibernatorPolicy policy(TestParams(Ms(40.0)));
  policy.Attach(&sim, &array);

  ConstantWorkloadParams wp;
  wp.address_space_sectors = array.params().DataSectors();
  wp.duration_ms = Hours(1.0);
  wp.iops = 10.0;
  ConstantWorkload workload(wp);
  Replay(sim, array, workload, Hours(1.0));

  const DiskParams& dp = array.params().disk;
  const LayoutManager& layout = array.layout();
  for (int g = 0; g < layout.num_groups(); ++g) {
    int expected_rpm =
        dp.speeds[static_cast<std::size_t>(policy.group_levels()[static_cast<std::size_t>(g)])]
            .rpm;
    for (int slot = 0; slot < layout.group_width(); ++slot) {
      EXPECT_EQ(array.disk(layout.GroupDisk(g, slot)).target_rpm(), expected_rpm);
    }
  }
}

TEST(Hibernator, BoostOverridesPendingStaggeredChanges) {
  // Regression: a boost arriving while an epoch's staggered slow-down is
  // still in flight must leave every disk targeting full speed.  (The old
  // code compared against the intended assignment and skipped groups whose
  // staggered change had not fired yet, stranding them slow.)
  Simulator sim;
  ArrayController array(&sim, TestArray());
  HibernatorParams hp = TestParams(Ms(1.0));  // impossible goal: boost will fire
  hp.stagger_ms = Seconds(300.0);     // changes 5 minutes apart
  HibernatorPolicy policy(hp);
  policy.Attach(&sim, &array);

  ConstantWorkloadParams wp;
  wp.address_space_sectors = array.params().DataSectors();
  wp.duration_ms = Hours(1.0);
  wp.iops = 30.0;
  ConstantWorkload workload(wp);
  Replay(sim, array, workload, Hours(1.0));

  ASSERT_TRUE(policy.boosted());
  for (int i = 0; i < array.num_data_disks(); ++i) {
    EXPECT_EQ(array.disk(i).target_rpm(), 15000) << "disk " << i;
  }
}

TEST(Hibernator, DescribeMentionsConfiguration) {
  HibernatorParams hp = TestParams(Ms(33.0));
  hp.enable_migration = false;
  HibernatorPolicy policy(hp);
  std::string desc = policy.Describe();
  EXPECT_NE(desc.find("33"), std::string::npos);
  EXPECT_NE(desc.find("no-migration"), std::string::npos);
}

}  // namespace
}  // namespace hib

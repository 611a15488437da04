#include <gtest/gtest.h>

#include "src/array/array.h"
#include "src/policy/drpm.h"
#include "src/policy/full_power.h"
#include "src/policy/maid.h"
#include "src/policy/pdc.h"
#include "src/policy/tpm.h"
#include "src/policy/tpm_adaptive.h"
#include "src/sim/simulator.h"

namespace hib {
namespace {

ArrayParams TestArray(int width = 4, int cache_disks = 0) {
  ArrayParams p;
  p.num_disks = 8;
  p.group_width = width;
  p.num_cache_disks = cache_disks;
  p.disk = MakeUltrastar36Z15MultiSpeed(5);
  p.data_fraction = 0.1;
  p.cache_lines = 0;
  return p;
}

TraceRecord MakeRecord(SectorAddr lba, bool write = false) {
  TraceRecord rec;
  rec.lba = lba;
  rec.count = 8;
  rec.is_write = write;
  return rec;
}

// ---------------------------------------------------------------- TPM ------

TEST(TpmBreakEven, MatchesClosedForm) {
  DiskParams disk = MakeUltrastar36Z15MultiSpeed(5);
  // (13 + 135) J / (10.2 - 1.5) W = ~17.0 s, plus transition times.
  Duration expected = Seconds((13.0 + 135.0) / (10.2 - 1.5)) + Ms(1500.0) + Ms(10900.0);
  EXPECT_NEAR(TpmBreakEvenMs(disk).value(), expected.value(), 1e-6);
}

TEST(TpmBreakEven, InfiniteWhenStandbySavesNothing) {
  DiskParams disk = MakeUltrastar36Z15MultiSpeed(5);
  disk.standby_power = disk.speeds.back().idle_power;
  EXPECT_GT(TpmBreakEvenMs(disk), Ms(1e12));
}

TEST(Tpm, SpinsDownIdleDisksAfterThreshold) {
  Simulator sim;
  ArrayController array(&sim, TestArray());
  TpmParams params;
  params.idle_threshold_ms = Seconds(10.0);
  TpmPolicy policy(params);
  policy.Attach(&sim, &array);
  sim.RunUntil(Seconds(5.0));
  EXPECT_EQ(array.disk(0).state(), DiskPowerState::kIdle);  // not yet
  sim.RunUntil(Seconds(30.0));
  for (int i = 0; i < array.num_data_disks(); ++i) {
    EXPECT_EQ(array.disk(i).state(), DiskPowerState::kStandby) << "disk " << i;
  }
}

TEST(Tpm, ActivityResetsIdleClock) {
  Simulator sim;
  ArrayController array(&sim, TestArray());
  TpmParams params;
  params.idle_threshold_ms = Seconds(20.0);
  TpmPolicy policy(params);
  policy.Attach(&sim, &array);
  // Keep one extent (group 0) warm with periodic I/O.
  sim.SchedulePeriodic(Seconds(5.0), Seconds(5.0),
                       [&] { array.Submit(MakeRecord(0)); });
  sim.RunUntil(Seconds(60.0));
  bool group0_up = false;
  for (int i = 0; i < 4; ++i) {
    group0_up |= array.disk(i).state() != DiskPowerState::kStandby;
  }
  EXPECT_TRUE(group0_up);
  // Group 1 received nothing and must be asleep.
  for (int i = 4; i < 8; ++i) {
    EXPECT_EQ(array.disk(i).state(), DiskPowerState::kStandby);
  }
}

TEST(Tpm, SpinUpOnDemandServesRequest) {
  Simulator sim;
  ArrayController array(&sim, TestArray());
  TpmParams params;
  params.idle_threshold_ms = Seconds(5.0);
  TpmPolicy policy(params);
  policy.Attach(&sim, &array);
  sim.RunUntil(Seconds(20.0));
  ASSERT_EQ(array.disk(0).state(), DiskPowerState::kStandby);
  Duration response = Ms(-1.0);
  array.set_completion_hook([&](const TraceRecord&, Duration r) { response = r; });
  array.Submit(MakeRecord(0));
  sim.RunUntil(Seconds(60.0));
  EXPECT_GT(response, Seconds(10.0));  // paid the spin-up
}

TEST(Tpm, DefaultThresholdIsBreakEven) {
  Simulator sim;
  ArrayController array(&sim, TestArray());
  TpmPolicy policy;
  policy.Attach(&sim, &array);
  EXPECT_EQ(policy.threshold(), TpmBreakEvenMs(array.params().disk));
  EXPECT_NE(policy.Describe().find("TPM"), std::string::npos);
}

// --------------------------------------------------------------- DRPM ------

TEST(Drpm, StepsDownWhenIdle) {
  Simulator sim;
  ArrayController array(&sim, TestArray());
  DrpmParams params;
  params.control_period_ms = Seconds(2.0);
  DrpmPolicy policy(params);
  policy.Attach(&sim, &array);
  sim.RunUntil(Seconds(120.0));
  // With zero load every disk should have walked down to the lowest level.
  for (int i = 0; i < array.num_data_disks(); ++i) {
    EXPECT_EQ(array.disk(i).target_rpm(), 3000) << "disk " << i;
  }
}

TEST(Drpm, StepDownIsGradual) {
  Simulator sim;
  ArrayController array(&sim, TestArray());
  DrpmParams params;
  params.control_period_ms = Seconds(2.0);
  DrpmPolicy policy(params);
  policy.Attach(&sim, &array);
  sim.RunUntil(Seconds(2.5));  // one control tick
  EXPECT_EQ(array.disk(0).target_rpm(), 12000);  // one step, not a plunge
}

TEST(Drpm, QueueBuildupJumpsToFullSpeed) {
  Simulator sim;
  ArrayController array(&sim, TestArray());
  DrpmParams params;
  params.control_period_ms = Seconds(2.0);
  params.queue_up_watermark = 3;
  DrpmPolicy policy(params);
  policy.Attach(&sim, &array);
  sim.RunUntil(Seconds(60.0));  // everyone slow now
  ASSERT_EQ(array.disk(0).target_rpm(), 3000);
  // Flood group 0's first disk with reads of one extent.
  sim.SchedulePeriodic(Seconds(60.0), Ms(2.0), [&] { array.Submit(MakeRecord(0)); });
  sim.RunUntil(Seconds(70.0));
  bool any_full = false;
  for (int i = 0; i < 4; ++i) {
    any_full |= array.disk(i).target_rpm() == 15000;
  }
  EXPECT_TRUE(any_full);
}

TEST(Drpm, ManyTransitionsUnderOscillatingLoad) {
  // DRPM's defining weakness: frequent speed changes.
  Simulator sim;
  ArrayController array(&sim, TestArray());
  DrpmParams params;
  params.control_period_ms = Seconds(2.0);
  DrpmPolicy policy(params);
  policy.Attach(&sim, &array);
  sim.RunUntil(Seconds(300.0));
  std::int64_t changes = 0;
  for (int i = 0; i < array.num_data_disks(); ++i) {
    changes += array.disk(i).stats().rpm_changes;
  }
  EXPECT_GE(changes, 8 * 4);  // at least the full walk-down for each disk
}

// ---------------------------------------------------------------- PDC ------

TEST(Pdc, MigratesHotExtentsToFirstDisks) {
  Simulator sim;
  ArrayController array(&sim, TestArray(1));
  PdcParams params;
  params.reorg_period_ms = Seconds(60.0);
  params.idle_threshold_ms = Hours(10.0);  // disable spin-down for this test
  PdcPolicy policy(params);
  policy.Attach(&sim, &array);

  // Heat up one extent that starts on a later disk.
  std::int64_t hot_extent = 5;  // round-robin start: group 5
  ASSERT_EQ(array.layout().GroupOf(hot_extent), 5);
  SectorAddr hot_lba = hot_extent * array.params().extent_sectors;
  sim.SchedulePeriodic(Ms(100.0), Ms(100.0), [&] { array.Submit(MakeRecord(hot_lba)); });
  sim.RunUntil(Seconds(180.0));
  EXPECT_EQ(array.layout().GroupOf(hot_extent), 0);
  EXPECT_GT(array.stats().migrations_completed, 0);
}

TEST(Pdc, ColdDisksSpinDown) {
  Simulator sim;
  ArrayController array(&sim, TestArray(1));
  PdcParams params;
  params.reorg_period_ms = Seconds(60.0);
  params.idle_threshold_ms = Seconds(10.0);
  PdcPolicy policy(params);
  policy.Attach(&sim, &array);
  sim.RunUntil(Seconds(40.0));
  int asleep = 0;
  for (int i = 0; i < array.num_data_disks(); ++i) {
    asleep += array.disk(i).state() == DiskPowerState::kStandby ? 1 : 0;
  }
  EXPECT_EQ(asleep, 8);  // no load at all: everything sleeps
}

TEST(Pdc, RespectsMigrationBudget) {
  Simulator sim;
  ArrayController array(&sim, TestArray(1));
  PdcParams params;
  params.reorg_period_ms = Seconds(30.0);
  params.migration_budget_extents = 3;
  params.idle_threshold_ms = Hours(10.0);
  PdcPolicy policy(params);
  policy.Attach(&sim, &array);
  sim.RunUntil(Seconds(59.0));  // one reorg pass, time to drain 3 moves
  EXPECT_LE(array.stats().migrations_completed, 3);
}

// --------------------------------------------------------------- MAID ------

TEST(Maid, CopiesReadExtentToCacheDisk) {
  Simulator sim;
  ArrayController array(&sim, TestArray(1, /*cache_disks=*/1));
  MaidParams params;
  params.idle_threshold_ms = Hours(10.0);
  MaidPolicy policy(params);
  policy.Attach(&sim, &array);
  array.Submit(MakeRecord(0));
  sim.RunUntil(Seconds(30.0));
  EXPECT_EQ(policy.copies_started(), 1);
  EXPECT_GT(array.disk(array.cache_disk_id(0)).stats().sectors_written, 0);
}

TEST(Maid, SecondReadHitsCacheDisk) {
  Simulator sim;
  ArrayController array(&sim, TestArray(1, 1));
  MaidParams params;
  params.idle_threshold_ms = Hours(10.0);
  MaidPolicy policy(params);
  policy.Attach(&sim, &array);
  array.Submit(MakeRecord(0));
  sim.RunUntil(Seconds(30.0));
  std::int64_t data_reads_before = array.disk(0).stats().foreground_completed;
  array.Submit(MakeRecord(0));
  sim.RunUntil(Seconds(60.0));
  EXPECT_EQ(policy.cache_hits(), 1);
  // The second read went to the cache disk, not back to data disk 0.
  EXPECT_EQ(array.disk(0).stats().foreground_completed, data_reads_before);
}

TEST(Maid, WriteInvalidatesCachedExtent) {
  Simulator sim;
  ArrayController array(&sim, TestArray(1, 1));
  MaidParams params;
  params.idle_threshold_ms = Hours(10.0);
  MaidPolicy policy(params);
  policy.Attach(&sim, &array);
  array.Submit(MakeRecord(0));
  sim.RunUntil(Seconds(30.0));
  array.Submit(MakeRecord(0, /*write=*/true));
  sim.RunUntil(Seconds(60.0));
  array.Submit(MakeRecord(0));
  sim.RunUntil(Seconds(90.0));
  EXPECT_EQ(policy.cache_hits(), 0);
  EXPECT_EQ(policy.copies_started(), 2);  // re-cached after invalidation
}

TEST(Maid, LruEvictionWhenCacheFull) {
  Simulator sim;
  ArrayController array(&sim, TestArray(1, 1));
  MaidParams params;
  params.cache_extents = 2;
  params.idle_threshold_ms = Hours(10.0);
  MaidPolicy policy(params);
  policy.Attach(&sim, &array);
  SectorCount ext = array.params().extent_sectors;
  for (std::int64_t e : {0, 1, 2}) {  // third insert evicts extent 0
    array.Submit(MakeRecord(e * ext));
    sim.RunUntil(sim.Now() + Seconds(20.0));
  }
  array.Submit(MakeRecord(0));
  sim.RunUntil(sim.Now() + Seconds(20.0));
  EXPECT_EQ(policy.cache_hits(), 0);
  EXPECT_EQ(policy.copies_started(), 4);
}

TEST(Maid, DataDisksSleepCacheDisksStayOn) {
  Simulator sim;
  ArrayController array(&sim, TestArray(1, 1));
  MaidParams params;
  params.idle_threshold_ms = Seconds(10.0);
  MaidPolicy policy(params);
  policy.Attach(&sim, &array);
  sim.RunUntil(Seconds(60.0));
  for (int i = 0; i < array.num_data_disks(); ++i) {
    EXPECT_EQ(array.disk(i).state(), DiskPowerState::kStandby);
  }
  EXPECT_EQ(array.disk(array.cache_disk_id(0)).state(), DiskPowerState::kIdle);
}

// ------------------------------------------------------- AdaptiveTpm -------

TEST(AdaptiveTpm, StartsAtWeightedMeanOfExperts) {
  Simulator sim;
  ArrayController array(&sim, TestArray());
  AdaptiveTpmPolicy policy;
  policy.Attach(&sim, &array);
  // Uniform weights: threshold = break-even * mean(multipliers).
  DiskParams dp = array.params().disk;
  double mean_mult = (0.25 + 0.5 + 1.0 + 2.0 + 4.0) / 5.0;
  EXPECT_NEAR(policy.ThresholdOf(0).value(), (TpmBreakEvenMs(dp) * mean_mult).value(), 1.0);
}

TEST(AdaptiveTpm, SpinsDownAfterLearnedThreshold) {
  Simulator sim;
  ArrayController array(&sim, TestArray());
  AdaptiveTpmPolicy policy;
  policy.Attach(&sim, &array);
  sim.RunUntil(Hours(1.0));  // totally idle
  for (int i = 0; i < array.num_data_disks(); ++i) {
    EXPECT_EQ(array.disk(i).state(), DiskPowerState::kStandby) << "disk " << i;
  }
}

TEST(AdaptiveTpm, LongGapsLowerTheThreshold) {
  Simulator sim;
  ArrayController array(&sim, TestArray());
  AdaptiveTpmPolicy policy;
  policy.Attach(&sim, &array);
  Duration initial = policy.ThresholdOf(0);
  // A request every 30 minutes leaves gaps far beyond every expert: the
  // aggressive (small) experts have the least regret and gain weight.
  sim.SchedulePeriodic(Hours(0.5), Hours(0.5), [&] {
    TraceRecord rec;
    rec.lba = 0;
    rec.count = 8;
    array.Submit(rec);
  });
  sim.RunUntil(Hours(8.0));
  EXPECT_LT(policy.ThresholdOf(0), initial);
}

TEST(AdaptiveTpm, ShortGapsRaiseTheThreshold) {
  Simulator sim;
  ArrayController array(&sim, TestArray());
  AdaptiveTpmPolicy policy;
  policy.Attach(&sim, &array);
  Duration initial = policy.ThresholdOf(0);
  // Gaps just over the smallest expert but far under break-even: spinning
  // down on them wastes energy, so small experts lose weight.
  Duration gap = 0.4 * TpmBreakEvenMs(array.params().disk);
  sim.SchedulePeriodic(gap, gap, [&] {
    TraceRecord rec;
    rec.lba = 0;
    rec.count = 8;
    array.Submit(rec);
  });
  sim.RunUntil(Hours(8.0));
  EXPECT_GT(policy.ThresholdOf(0), initial);
}

TEST(AdaptiveTpm, DescribeListsExperts) {
  AdaptiveTpmPolicy policy;
  Simulator sim;
  ArrayController array(&sim, TestArray());
  policy.Attach(&sim, &array);
  EXPECT_NE(policy.Describe().find("experts"), std::string::npos);
}

// ---------------------------------------------------------- FullPower ------

TEST(FullPower, NeverChangesAnything) {
  Simulator sim;
  ArrayController array(&sim, TestArray());
  FullPowerPolicy policy;
  policy.Attach(&sim, &array);
  sim.RunUntil(Hours(1.0));
  for (int i = 0; i < array.num_data_disks(); ++i) {
    EXPECT_EQ(array.disk(i).current_rpm(), 15000);
    EXPECT_EQ(array.disk(i).stats().rpm_changes, 0);
    EXPECT_EQ(array.disk(i).stats().spin_downs, 0);
  }
}

}  // namespace
}  // namespace hib

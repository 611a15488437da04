#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/array/array.h"
#include "src/array/cache.h"
#include "src/array/layout.h"
#include "src/sim/simulator.h"
#include "src/util/random.h"

namespace hib {
namespace {

LayoutParams SmallLayout(int width = 4) {
  LayoutParams p;
  p.num_disks = 8;
  p.group_width = width;
  p.num_extents = 1000;
  p.extent_sectors = 2048;
  p.stripe_unit_sectors = 128;
  p.disk_capacity_sectors = 10'000'000;
  return p;
}

ArrayParams SmallArray(int width = 4) {
  ArrayParams p;
  p.num_disks = 8;
  p.group_width = width;
  p.disk = MakeUltrastar36Z15MultiSpeed(5);
  p.data_fraction = 0.1;  // keep extent tables small in tests
  p.cache_lines = 0;      // cache off unless a test turns it on
  return p;
}

// ------------------------------------------------------ LayoutManager ------

TEST(Layout, RoundRobinInitialAssignment) {
  LayoutManager layout(SmallLayout());
  EXPECT_EQ(layout.num_groups(), 2);
  EXPECT_EQ(layout.GroupOf(0), 0);
  EXPECT_EQ(layout.GroupOf(1), 1);
  EXPECT_EQ(layout.GroupOf(2), 0);
  EXPECT_EQ(layout.extents_per_group()[0], 500);
  EXPECT_EQ(layout.extents_per_group()[1], 500);
}

TEST(Layout, SetGroupMaintainsCounts) {
  LayoutManager layout(SmallLayout());
  layout.SetGroup(0, 1);
  EXPECT_EQ(layout.GroupOf(0), 1);
  EXPECT_EQ(layout.extents_per_group()[0], 499);
  EXPECT_EQ(layout.extents_per_group()[1], 501);
  layout.SetGroup(0, 1);  // idempotent
  EXPECT_EQ(layout.extents_per_group()[1], 501);
}

TEST(Layout, GroupDisksAreContiguous) {
  LayoutManager layout(SmallLayout());
  EXPECT_EQ(layout.GroupDisks(0), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(layout.GroupDisks(1), (std::vector<int>{4, 5, 6, 7}));
}

TEST(Layout, MapStaysInsideGroup) {
  LayoutManager layout(SmallLayout());
  for (std::int64_t e : {0, 1, 17, 999}) {
    int group = layout.GroupOf(e);
    for (SectorAddr off = 0; off < 2048; off += 128) {
      StripeTarget t = layout.Map(e, off);
      EXPECT_GE(t.data_disk, group * 4);
      EXPECT_LT(t.data_disk, (group + 1) * 4);
      EXPECT_GE(t.parity_disk, group * 4);
      EXPECT_LT(t.parity_disk, (group + 1) * 4);
      EXPECT_NE(t.data_disk, t.parity_disk);
      EXPECT_GE(t.data_sector, 0);
      EXPECT_LT(t.data_sector, 10'000'000);
    }
  }
}

TEST(Layout, ParityRotatesAcrossRows) {
  LayoutManager layout(SmallLayout());
  std::set<int> parity_disks;
  // Rows are (width-1) units of 128 sectors; walk several rows.
  for (SectorAddr off = 0; off < 2048; off += 128 * 3) {
    parity_disks.insert(layout.Map(0, off).parity_disk);
  }
  EXPECT_GT(parity_disks.size(), 1u);
}

TEST(Layout, DataUnitsSpreadAcrossGroupDisks) {
  LayoutManager layout(SmallLayout());
  std::set<int> data_disks;
  for (SectorAddr off = 0; off < 2048; off += 128) {
    data_disks.insert(layout.Map(0, off).data_disk);
  }
  EXPECT_EQ(data_disks.size(), 4u);  // all four disks carry data units
}

TEST(Layout, WidthOneHasNoParity) {
  LayoutManager layout(SmallLayout(1));
  EXPECT_EQ(layout.num_groups(), 8);
  StripeTarget t = layout.Map(5, 256);
  EXPECT_EQ(t.parity_disk, -1);
  EXPECT_EQ(t.data_disk, layout.GroupOf(5));
}

TEST(Layout, WidthTwoMirrors) {
  LayoutManager layout(SmallLayout(2));
  StripeTarget t = layout.Map(3, 0);
  EXPECT_GE(t.parity_disk, 0);
  EXPECT_NE(t.data_disk, t.parity_disk);
  EXPECT_EQ(t.data_sector, t.parity_sector);
}

TEST(Layout, DifferentExtentsDifferentPhysicalBases) {
  LayoutManager layout(SmallLayout());
  EXPECT_NE(layout.Map(0, 0).data_sector, layout.Map(2, 0).data_sector);
}

TEST(Layout, ResetRoundRobinRestores) {
  LayoutManager layout(SmallLayout());
  layout.SetGroup(0, 1);
  layout.SetGroup(2, 1);
  layout.ResetRoundRobin();
  EXPECT_EQ(layout.GroupOf(0), 0);
  EXPECT_EQ(layout.extents_per_group()[0], 500);
}

// ------------------------------------------------- TemperatureTracker ------

TEST(Temperature, TouchAccumulates) {
  TemperatureTracker temps(10, 0.5);
  temps.Touch(3);
  temps.Touch(3);
  temps.Touch(5, 2.5);
  EXPECT_DOUBLE_EQ(temps.TemperatureOf(3), 2.0);
  EXPECT_DOUBLE_EQ(temps.TemperatureOf(5), 2.5);
  EXPECT_DOUBLE_EQ(temps.TemperatureOf(0), 0.0);
}

TEST(Temperature, EpochDecay) {
  TemperatureTracker temps(4, 0.5);
  temps.Touch(1);
  temps.Touch(1);
  temps.EndEpoch();
  EXPECT_DOUBLE_EQ(temps.TemperatureOf(1), 2.0);
  temps.EndEpoch();
  EXPECT_DOUBLE_EQ(temps.TemperatureOf(1), 1.0);
  temps.Touch(1);
  EXPECT_DOUBLE_EQ(temps.TemperatureOf(1), 2.0);  // decayed 1.0 + window 1.0
}

TEST(Temperature, SortedHottestFirst) {
  TemperatureTracker temps(5, 0.5);
  temps.Touch(2, 10.0);
  temps.Touch(4, 5.0);
  temps.Touch(0, 1.0);
  std::vector<std::int64_t> order = temps.SortedHottestFirst();
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 4);
  EXPECT_EQ(order[2], 0);
}

TEST(Temperature, TotalTemperature) {
  TemperatureTracker temps(3, 0.5);
  temps.Touch(0, 1.0);
  temps.Touch(1, 2.0);
  EXPECT_DOUBLE_EQ(temps.TotalTemperature(), 3.0);
  temps.EndEpoch();
  EXPECT_DOUBLE_EQ(temps.TotalTemperature(), 3.0);
  temps.EndEpoch();
  EXPECT_DOUBLE_EQ(temps.TotalTemperature(), 1.5);
}

TEST(Temperature, SharedRecordsMatchStandalone) {
  // An array's tracker keeps its windows in the layout's extent records; it
  // must read exactly like a standalone tracker, and regrouping an extent
  // must leave every window alone.
  LayoutManager layout(SmallLayout());
  TemperatureTracker shared(&layout, 0.5);
  TemperatureTracker alone(layout.num_extents(), 0.5);
  std::vector<int> groups(static_cast<std::size_t>(layout.num_extents()));
  for (std::int64_t e = 0; e < layout.num_extents(); ++e) {
    groups[static_cast<std::size_t>(e)] = layout.GroupOf(e);
  }
  auto expect_same = [&](int step) {
    for (std::int64_t e = 0; e < layout.num_extents(); ++e) {
      ASSERT_EQ(shared.TemperatureOf(e), alone.TemperatureOf(e)) << "extent " << e << " step " << step;
      ASSERT_EQ(layout.GroupOf(e), groups[static_cast<std::size_t>(e)]) << "extent " << e;
    }
    ASSERT_EQ(shared.SortedHottestFirst(), alone.SortedHottestFirst()) << "step " << step;
    ASSERT_EQ(shared.TotalTemperature(), alone.TotalTemperature()) << "step " << step;
  };
  Pcg32 rng(77);
  for (int step = 0; step < 50000; ++step) {
    std::int64_t extent = rng.NextInRange(0, layout.num_extents() - 1);
    double pick = rng.NextDouble();
    if (pick < 0.8) {
      double weight = 3.0 * rng.NextDouble();  // rarely a float: exercises rounding
      shared.Touch(extent, weight);
      alone.Touch(extent, weight);
    } else if (pick < 0.998) {
      int group = static_cast<int>(rng.NextBounded(static_cast<std::uint32_t>(layout.num_groups())));
      double before = shared.TemperatureOf(extent);
      layout.SetGroup(extent, group);
      groups[static_cast<std::size_t>(extent)] = group;
      ASSERT_EQ(shared.TemperatureOf(extent), before) << "SetGroup changed a window";
    } else {
      shared.EndEpoch();
      alone.EndEpoch();
      expect_same(step);
    }
  }
  expect_same(-1);
}

// ------------------------------------------------------------ LruCache -----

TEST(Cache, MissThenHit) {
  LruCache cache(8, 128);
  EXPECT_FALSE(cache.Lookup(0, 8));
  cache.Insert(0, 8);
  EXPECT_TRUE(cache.Lookup(0, 8));
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(Cache, PartialCoverageIsMiss) {
  LruCache cache(8, 128);
  cache.Insert(0, 128);  // line 0 only
  EXPECT_FALSE(cache.Lookup(0, 256));  // needs lines 0 and 1
  cache.Insert(128, 128);
  EXPECT_TRUE(cache.Lookup(0, 256));
}

TEST(Cache, InvalidateRemoves) {
  LruCache cache(8, 128);
  cache.Insert(0, 128);
  cache.Invalidate(0, 1);  // overlaps line 0
  EXPECT_FALSE(cache.Lookup(0, 8));
}

TEST(Cache, EvictsLru) {
  LruCache cache(2, 128);
  cache.Insert(0, 1);      // line 0
  cache.Insert(128, 1);    // line 1
  EXPECT_TRUE(cache.Lookup(0, 1));   // touch line 0 (now MRU)
  cache.Insert(256, 1);    // line 2 evicts line 1
  EXPECT_TRUE(cache.Lookup(0, 1));
  EXPECT_FALSE(cache.Lookup(128, 1));
  EXPECT_TRUE(cache.Lookup(256, 1));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(Cache, ZeroCapacityAlwaysMisses) {
  LruCache cache(0, 128);
  cache.Insert(0, 8);
  EXPECT_FALSE(cache.Lookup(0, 8));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Cache, HitRate) {
  LruCache cache(8, 128);
  cache.Insert(0, 8);
  cache.Lookup(0, 8);
  cache.Lookup(4096, 8);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.5);
}

TEST(Cache, SteadyStateHoldsFullCapacity) {
  // Once warmed, the cache sits at size() == capacity() forever: every
  // insert of a new line recycles the LRU tail instead of shrinking or
  // growing the table (the flat table is fully allocated up front).
  LruCache cache(16, 128);
  for (int i = 0; i < 64; ++i) {
    cache.Insert(static_cast<SectorAddr>(i) * 128, 1);
    if (i >= 15) {
      ASSERT_EQ(cache.size(), cache.capacity()) << "insert " << i;
    }
  }
  // Steady-state churn: lookups, re-inserts and fresh inserts never move it.
  for (int i = 0; i < 256; ++i) {
    cache.Lookup(static_cast<SectorAddr>(48 + i % 16) * 128, 1);
    cache.Insert(static_cast<SectorAddr>(64 + i) * 128, 1);
    ASSERT_EQ(cache.size(), cache.capacity()) << "churn " << i;
  }
}

// ------------------------------------------------------ ArrayController ----

class ArrayTest : public ::testing::Test {
 protected:
  Simulator sim_;
};

TraceRecord MakeRecord(SectorAddr lba, SectorCount count, bool write) {
  TraceRecord rec;
  rec.time = SimTime{};
  rec.lba = lba;
  rec.count = count;
  rec.is_write = write;
  return rec;
}

TEST_F(ArrayTest, ReadIssuesOneSubop) {
  ArrayController array(&sim_, SmallArray());
  array.Submit(MakeRecord(0, 8, false));
  sim_.RunUntil(Seconds(5.0));
  EXPECT_EQ(array.stats().subops, 1);
  EXPECT_EQ(array.stats().reads, 1);
  EXPECT_EQ(array.stats().total_responses, 1);
}

TEST_F(ArrayTest, Raid5WriteIssuesFourSubops) {
  ArrayController array(&sim_, SmallArray());
  array.Submit(MakeRecord(0, 8, true));
  sim_.RunUntil(Seconds(5.0));
  EXPECT_EQ(array.stats().subops, 4);  // read old data+parity, write both
  EXPECT_EQ(array.stats().writes, 1);
}

TEST_F(ArrayTest, WidthOneWriteIsSingleSubop) {
  ArrayController array(&sim_, SmallArray(1));
  array.Submit(MakeRecord(0, 8, true));
  sim_.RunUntil(Seconds(5.0));
  EXPECT_EQ(array.stats().subops, 1);
}

TEST_F(ArrayTest, WidthTwoWriteMirrors) {
  ArrayController array(&sim_, SmallArray(2));
  array.Submit(MakeRecord(0, 8, true));
  sim_.RunUntil(Seconds(5.0));
  EXPECT_EQ(array.stats().subops, 2);
}

TEST_F(ArrayTest, WriteSlowerThanReadUnderRaid5) {
  ArrayParams params = SmallArray();
  Duration read_resp;
  Duration write_resp;
  {
    Simulator sim;
    ArrayController array(&sim, params);
    array.Submit(MakeRecord(0, 8, false), [&](Duration r) { read_resp = r; });
    sim.RunUntil(Seconds(5.0));
  }
  {
    Simulator sim;
    ArrayController array(&sim, params);
    array.Submit(MakeRecord(0, 8, true), [&](Duration r) { write_resp = r; });
    sim.RunUntil(Seconds(5.0));
  }
  EXPECT_GT(write_resp, read_resp);
}

TEST_F(ArrayTest, LargeRequestSpansMultipleUnits) {
  ArrayController array(&sim_, SmallArray());
  array.Submit(MakeRecord(0, 512, false));  // 4 stripe units
  sim_.RunUntil(Seconds(5.0));
  EXPECT_EQ(array.stats().subops, 4);
  EXPECT_EQ(array.stats().total_responses, 1);
}

TEST_F(ArrayTest, CacheHitServedFast) {
  ArrayParams params = SmallArray();
  params.cache_lines = 64;
  ArrayController array(&sim_, params);
  Duration first = Ms(-1.0);
  Duration second = Ms(-1.0);
  array.Submit(MakeRecord(0, 8, false), [&](Duration r) { first = r; });
  sim_.RunUntil(Seconds(5.0));
  array.Submit(MakeRecord(0, 8, false), [&](Duration r) { second = r; });
  sim_.RunUntil(Seconds(10.0));
  EXPECT_GT(first, 2.0 * params.cache_hit_ms);
  EXPECT_NEAR(second.value(), params.cache_hit_ms.value(), 1e-9);
  EXPECT_EQ(array.stats().cache_hits, 1);
}

TEST_F(ArrayTest, WriteInvalidatesCache) {
  ArrayParams params = SmallArray();
  params.cache_lines = 64;
  ArrayController array(&sim_, params);
  array.Submit(MakeRecord(0, 8, false));
  sim_.RunUntil(Seconds(5.0));
  array.Submit(MakeRecord(0, 8, true));
  sim_.RunUntil(Seconds(10.0));
  Duration third = Ms(-1.0);
  array.Submit(MakeRecord(0, 8, false), [&](Duration r) { third = r; });
  sim_.RunUntil(Seconds(15.0));
  EXPECT_GT(third, Ms(1.0));  // not a cache hit
}

TEST_F(ArrayTest, TemperatureTouchedPerAccess) {
  ArrayController array(&sim_, SmallArray());
  array.Submit(MakeRecord(0, 8, false));
  array.Submit(MakeRecord(0, 8, false));
  array.Submit(MakeRecord(array.params().extent_sectors * 5, 8, true));
  sim_.RunUntil(Seconds(5.0));
  EXPECT_DOUBLE_EQ(array.temperatures().TemperatureOf(0), 2.0);
  EXPECT_DOUBLE_EQ(array.temperatures().TemperatureOf(5), 1.0);
}

TEST_F(ArrayTest, CompletionHookFires) {
  ArrayController array(&sim_, SmallArray());
  int hook_calls = 0;
  array.set_completion_hook([&](const TraceRecord&, Duration) { ++hook_calls; });
  array.Submit(MakeRecord(0, 8, false));
  array.Submit(MakeRecord(4096, 8, true));
  sim_.RunUntil(Seconds(5.0));
  EXPECT_EQ(hook_calls, 2);
}

TEST_F(ArrayTest, ReadRouterRedirects) {
  ArrayParams params = SmallArray(1);
  params.num_cache_disks = 1;
  ArrayController array(&sim_, params);
  int cache_disk = array.cache_disk_id(0);
  array.set_read_router([&](std::int64_t, int) { return cache_disk; });
  array.Submit(MakeRecord(0, 8, false));
  sim_.RunUntil(Seconds(5.0));
  EXPECT_EQ(array.disk(cache_disk).stats().requests_completed, 1);
}

TEST_F(ArrayTest, MigrationMovesExtent) {
  ArrayController array(&sim_, SmallArray());
  std::int64_t extent = 0;
  ASSERT_EQ(array.layout().GroupOf(extent), 0);
  array.RequestMigration(extent, 1);
  sim_.RunUntil(Seconds(30.0));
  EXPECT_EQ(array.layout().GroupOf(extent), 1);
  EXPECT_EQ(array.stats().migrations_completed, 1);
  EXPECT_EQ(array.stats().migrated_sectors, array.params().extent_sectors);
}

TEST_F(ArrayTest, MigrationToSameGroupSkipped) {
  ArrayController array(&sim_, SmallArray());
  array.RequestMigration(0, 0);
  sim_.RunUntil(Seconds(30.0));
  EXPECT_EQ(array.stats().migrations_completed, 0);
}

TEST_F(ArrayTest, MigrationPauseDefersWork) {
  ArrayController array(&sim_, SmallArray());
  array.PauseMigration(true);
  array.RequestMigration(0, 1);
  sim_.RunUntil(Seconds(30.0));
  EXPECT_EQ(array.layout().GroupOf(0), 0);
  EXPECT_EQ(array.MigrationBacklog(), 1u);
  array.PauseMigration(false);
  sim_.RunUntil(Seconds(60.0));
  EXPECT_EQ(array.layout().GroupOf(0), 1);
}

TEST_F(ArrayTest, CancelQueuedMigrations) {
  ArrayController array(&sim_, SmallArray());
  array.PauseMigration(true);
  array.RequestMigration(0, 1);
  array.RequestMigration(2, 1);
  array.CancelQueuedMigrations();
  array.PauseMigration(false);
  sim_.RunUntil(Seconds(30.0));
  EXPECT_EQ(array.stats().migrations_completed, 0);
}

TEST_F(ArrayTest, ConcurrentMigrationCapRespected) {
  ArrayParams params = SmallArray();
  params.max_concurrent_migrations = 1;
  ArrayController array(&sim_, params);
  for (std::int64_t e = 0; e < 10; e += 2) {
    array.RequestMigration(e, 1);  // even extents start in group 0
  }
  // Backlog drains one at a time but all eventually complete.
  sim_.RunUntil(Seconds(120.0));
  EXPECT_EQ(array.stats().migrations_completed, 5);
}

TEST_F(ArrayTest, MigrationUsesBackgroundPriority) {
  ArrayController array(&sim_, SmallArray());
  array.RequestMigration(0, 1);
  sim_.RunUntil(Seconds(30.0));
  std::int64_t bg = 0;
  for (int i = 0; i < array.num_data_disks(); ++i) {
    bg += array.disk(i).stats().background_completed;
  }
  EXPECT_GT(bg, 0);
}

TEST_F(ArrayTest, TotalEnergySumsDisks) {
  ArrayParams params = SmallArray();
  ArrayController array(&sim_, params);
  sim_.RunUntil(Seconds(10.0));
  DiskEnergy total = array.TotalEnergy();
  EXPECT_NEAR(total.idle.value(),
              (8.0 * EnergyOf(params.disk.speeds.back().idle_power, Seconds(10.0))).value(), 1e-6);
  EXPECT_NEAR(total.TotalMs().value(), (8.0 * Seconds(10.0)).value(), 1e-6);
}

TEST_F(ArrayTest, WindowStatsTrackAndReset) {
  ArrayController array(&sim_, SmallArray());
  array.Submit(MakeRecord(0, 8, false));
  sim_.RunUntil(Seconds(5.0));
  EXPECT_EQ(array.stats().window_responses, 1);
  EXPECT_GT(array.stats().WindowMeanResponse(), Duration{});
  array.stats().ResetWindow();
  EXPECT_EQ(array.stats().window_responses, 0);
  EXPECT_EQ(array.stats().total_responses, 1);  // cumulative survives
}

TEST_F(ArrayTest, DataSectorsWholeExtents) {
  ArrayParams params = SmallArray();
  EXPECT_EQ(params.DataSectors() % params.extent_sectors, 0);
  EXPECT_GT(params.NumExtents(), 0);
}

}  // namespace
}  // namespace hib

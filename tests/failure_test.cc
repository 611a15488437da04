// Failure injection, degraded RAID5 operation, and rebuild.
#include <gtest/gtest.h>

#include "src/array/array.h"
#include "src/sim/simulator.h"

namespace hib {
namespace {

ArrayParams SmallArray(int width = 4) {
  ArrayParams p;
  p.num_disks = 8;
  p.group_width = width;
  p.disk = MakeUltrastar36Z15MultiSpeed(5);
  p.data_fraction = 0.02;  // small extent table keeps rebuilds fast
  p.cache_lines = 0;
  return p;
}

TraceRecord MakeRecord(SectorAddr lba, SectorCount count, bool write) {
  TraceRecord rec;
  rec.lba = lba;
  rec.count = count;
  rec.is_write = write;
  return rec;
}

// Finds an lba within extent 0 whose data unit maps to `disk`; -1 if none.
SectorAddr LbaOnDisk(const ArrayController& array, int disk) {
  const LayoutManager& layout = array.layout();
  for (SectorAddr off = 0; off < array.params().extent_sectors;
       off += array.params().stripe_unit_sectors) {
    if (layout.Map(0, off).data_disk == disk) {
      return off;  // extent 0 starts at logical 0
    }
  }
  return -1;
}

class FailureTest : public ::testing::Test {
 protected:
  Simulator sim_;
};

TEST_F(FailureTest, DegradedReadFansOutToSurvivors) {
  ArrayController array(&sim_, SmallArray());
  SectorAddr lba = LbaOnDisk(array, 0);
  ASSERT_GE(lba, 0);
  array.FailDisk(0);
  EXPECT_TRUE(array.IsDiskFailed(0));

  Duration response = Ms(-1.0);
  array.set_completion_hook([&](const TraceRecord&, Duration r) { response = r; });
  array.Submit(MakeRecord(lba, 8, false));
  sim_.RunUntil(Seconds(5.0));
  EXPECT_GT(response, Duration{});
  EXPECT_EQ(array.stats().degraded_reads, 1);
  // width - 1 = 3 peer reads instead of 1.
  EXPECT_EQ(array.stats().subops, 3);
  EXPECT_EQ(array.disk(0).stats().requests_completed, 0);
}

TEST_F(FailureTest, HealthyUnitsUnaffectedByFailureElsewhere) {
  ArrayController array(&sim_, SmallArray());
  array.FailDisk(0);
  SectorAddr lba = LbaOnDisk(array, 1);
  ASSERT_GE(lba, 0);
  array.Submit(MakeRecord(lba, 8, false));
  sim_.RunUntil(Seconds(5.0));
  EXPECT_EQ(array.stats().degraded_reads, 0);
  EXPECT_EQ(array.stats().subops, 1);
}

TEST_F(FailureTest, DegradedWriteUpdatesParityOnly) {
  ArrayController array(&sim_, SmallArray());
  SectorAddr lba = LbaOnDisk(array, 0);
  ASSERT_GE(lba, 0);
  array.FailDisk(0);
  Duration response = Ms(-1.0);
  array.set_completion_hook([&](const TraceRecord&, Duration r) { response = r; });
  array.Submit(MakeRecord(lba, 8, true));
  sim_.RunUntil(Seconds(5.0));
  EXPECT_GT(response, Duration{});
  EXPECT_EQ(array.stats().parity_only_writes, 1);
  // Reconstruct-write: width-2 = 2 peer reads + 1 parity write.
  EXPECT_EQ(array.stats().subops, 3);
  EXPECT_EQ(array.disk(0).stats().requests_completed, 0);
}

TEST_F(FailureTest, ParityFailureWritesDataWithoutParity) {
  ArrayController array(&sim_, SmallArray());
  SectorAddr lba = LbaOnDisk(array, 0);
  ASSERT_GE(lba, 0);
  int parity_disk = array.layout().Map(0, lba).parity_disk;
  array.FailDisk(parity_disk);
  array.Submit(MakeRecord(lba, 8, true));
  sim_.RunUntil(Seconds(5.0));
  EXPECT_EQ(array.stats().subops, 1);  // plain data write
  EXPECT_EQ(array.stats().lost_accesses, 0);
}

TEST_F(FailureTest, DoubleFailureLosesData) {
  ArrayController array(&sim_, SmallArray());
  SectorAddr lba = LbaOnDisk(array, 0);
  ASSERT_GE(lba, 0);
  array.FailDisk(0);
  array.FailDisk(1);  // same group
  Duration response = Ms(-1.0);
  array.set_completion_hook([&](const TraceRecord&, Duration r) { response = r; });
  array.Submit(MakeRecord(lba, 8, false));
  sim_.RunUntil(Seconds(5.0));
  EXPECT_GE(response, Duration{});  // request still completes (reports the loss)
  EXPECT_GE(array.stats().lost_accesses, 1);
}

TEST_F(FailureTest, UnprotectedWidthOneLosesAccesses) {
  ArrayController array(&sim_, SmallArray(1));
  std::int64_t extent = 0;
  int disk = array.layout().GroupOf(extent);
  array.FailDisk(disk);
  array.Submit(MakeRecord(0, 8, false));
  array.Submit(MakeRecord(0, 8, true));
  sim_.RunUntil(Seconds(5.0));
  EXPECT_EQ(array.stats().lost_accesses, 2);
  EXPECT_EQ(array.stats().subops, 0);
}

TEST_F(FailureTest, MirrorReadsSurvivingCopy) {
  ArrayController array(&sim_, SmallArray(2));
  StripeTarget t = array.layout().Map(0, 0);
  array.FailDisk(t.data_disk);
  Duration response = Ms(-1.0);
  array.set_completion_hook([&](const TraceRecord&, Duration r) { response = r; });
  array.Submit(MakeRecord(0, 8, false));
  sim_.RunUntil(Seconds(5.0));
  EXPECT_GT(response, Duration{});
  EXPECT_EQ(array.stats().degraded_reads, 1);
  EXPECT_EQ(array.disk(t.parity_disk).stats().requests_completed, 1);
}

TEST_F(FailureTest, RebuildRestoresHealthAndCountsExtents) {
  ArrayParams params = SmallArray();
  ArrayController array(&sim_, params);
  array.FailDisk(0);
  bool rebuilt = false;
  array.ReplaceDisk(0, [&] { rebuilt = true; });
  EXPECT_TRUE(array.IsRebuilding(0));
  sim_.RunUntil(Hours(12.0));
  EXPECT_TRUE(rebuilt);
  EXPECT_FALSE(array.IsDiskFailed(0));
  EXPECT_FALSE(array.IsRebuilding(0));
  // Every extent of group 0 was rebuilt.
  EXPECT_EQ(array.stats().rebuilt_extents, array.layout().extents_per_group()[0]);
  EXPECT_GT(array.disk(0).stats().sectors_written, 0);
}

TEST_F(FailureTest, ReadsHealthyAgainAfterRebuild) {
  ArrayController array(&sim_, SmallArray());
  SectorAddr lba = LbaOnDisk(array, 0);
  ASSERT_GE(lba, 0);
  array.FailDisk(0);
  array.ReplaceDisk(0);
  sim_.RunUntil(Hours(12.0));
  ASSERT_FALSE(array.IsDiskFailed(0));
  std::int64_t degraded_before = array.stats().degraded_reads;
  array.Submit(MakeRecord(lba, 8, false));
  sim_.RunUntil(sim_.Now() + Seconds(5.0));
  EXPECT_EQ(array.stats().degraded_reads, degraded_before);
  EXPECT_GT(array.disk(0).stats().foreground_completed, 0);
}

TEST_F(FailureTest, ReplaceHealthyDiskIsNoOp) {
  ArrayController array(&sim_, SmallArray());
  bool called = false;
  array.ReplaceDisk(3, [&] { called = true; });
  sim_.RunUntil(Seconds(5.0));
  EXPECT_FALSE(called);
  EXPECT_FALSE(array.IsRebuilding(3));
}

TEST_F(FailureTest, DemandTrafficServedDuringRebuild) {
  ArrayController array(&sim_, SmallArray());
  SectorAddr lba = LbaOnDisk(array, 0);
  ASSERT_GE(lba, 0);
  array.FailDisk(0);
  array.ReplaceDisk(0);
  // While rebuilding, reads of the lost disk's units stay degraded but
  // complete; the rebuild's background I/O must not starve them.
  Duration response = Ms(-1.0);
  array.set_completion_hook([&](const TraceRecord&, Duration r) { response = r; });
  array.Submit(MakeRecord(lba, 8, false));
  sim_.RunUntil(sim_.Now() + Seconds(30.0));
  EXPECT_GT(response, Duration{});
  EXPECT_GE(array.stats().degraded_reads, 1);
}

TEST_F(FailureTest, MigrationAvoidsFailedDisks) {
  ArrayController array(&sim_, SmallArray());
  array.FailDisk(4);  // in group 1, the migration destination
  array.RequestMigration(0, 1);
  sim_.RunUntil(Seconds(60.0));
  EXPECT_EQ(array.layout().GroupOf(0), 1);
  EXPECT_EQ(array.disk(4).stats().requests_completed, 0);
}

TEST_F(FailureTest, FailDiskIsIdempotent) {
  ArrayController array(&sim_, SmallArray());
  array.FailDisk(2);
  array.FailDisk(2);
  EXPECT_TRUE(array.IsDiskFailed(2));
}

}  // namespace
}  // namespace hib

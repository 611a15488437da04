// Extent-based data layout over fixed RAID groups.
//
// The array's disks are statically partitioned into stripe groups of
// `group_width` disks (width 1 = no striping/parity, as PDC and MAID assume;
// width >= 3 = rotating-parity RAID5).  The logical address space is divided
// into fixed-size extents; each extent lives entirely within one group and is
// striped across that group's disks.  Moving an extent between groups is the
// unit of data migration.
//
// This is the layout Hibernator's multi-tier scheme builds on: a *tier* is a
// set of groups running at the same RPM, so changing a group's speed moves no
// data, and only temperature-driven promotion/demotion of extents between
// groups costs I/O.
#ifndef HIBERNATOR_SRC_ARRAY_LAYOUT_H_
#define HIBERNATOR_SRC_ARRAY_LAYOUT_H_

#include <cstdint>
#include <vector>

#include "src/util/units.h"

namespace hib {

struct LayoutParams {
  int num_disks = 16;
  int group_width = 4;               // disks per stripe group; num_disks % width == 0
  std::int64_t num_extents = 0;      // required
  SectorCount extent_sectors = 2048;  // 1 MB extents
  SectorCount stripe_unit_sectors = 128;  // 64 KB stripe unit
  SectorAddr disk_capacity_sectors = 0;   // required (physical placement hash)
};

// What the per-request path keeps per extent, in one 8-byte record, so
// Submit's temperature touch and its layout lookup share a cache line.
struct ExtentRecord {
  std::int32_t group = 0;  // the extent's stripe group
  float window = 0.0f;     // accesses this epoch
};
static_assert(sizeof(ExtentRecord) == 8, "one extent's record must stay 8 bytes");

// Where one stripe-unit-sized piece of an extent lands.
struct StripeTarget {
  int data_disk = -1;
  int parity_disk = -1;  // -1 when the group has no parity
  SectorAddr data_sector = 0;
  SectorAddr parity_sector = 0;
};

class LayoutManager {
 public:
  explicit LayoutManager(LayoutParams params);

  int num_groups() const { return num_groups_; }
  int group_width() const { return params_.group_width; }
  std::int64_t num_extents() const { return params_.num_extents; }
  SectorCount extent_sectors() const { return params_.extent_sectors; }

  int GroupOf(std::int64_t extent) const {
    return extents_[static_cast<std::size_t>(extent)].group;
  }

  // Instantly rebinds an extent to a group.  Callers that model migration
  // cost (ArrayController::MigrateExtent) issue the I/O first and flip the
  // mapping on completion.
  void SetGroup(std::int64_t extent, int group);

  // Disk ids belonging to a group (a contiguous slice of the array).
  std::vector<int> GroupDisks(int group) const;
  int GroupDisk(int group, int slot) const { return group * params_.group_width + slot; }

  // Maps (extent, byte offset within extent expressed in sectors) to the
  // data/parity disks and physical sectors for the stripe unit containing
  // that offset.
  StripeTarget Map(std::int64_t extent, SectorAddr offset_in_extent) const;

  // Live count of extents per group (maintained incrementally).
  const std::vector<std::int64_t>& extents_per_group() const { return extents_per_group_; }

  // Spreads all extents round-robin across groups (the initial layout).
  void ResetRoundRobin();

  // --- temperature -------------------------------------------------------
  // Per-extent access frequency with exponential decay across epochs; this
  // is the "temperature" that decides which extents belong on fast disks.
  void Touch(std::int64_t extent) { extents_[static_cast<std::size_t>(extent)].window += 1.0f; }

  // Folds the current window into the decayed temperature and clears it.
  void EndEpoch();

  double TemperatureOf(std::int64_t extent) const {
    auto i = static_cast<std::size_t>(extent);
    return temperature_[i] + extents_[i].window;
  }

  // Extent ids sorted hottest-first.  O(n log n); called once per epoch.
  std::vector<std::int64_t> SortedHottestFirst() const;

 private:
  LayoutParams params_;
  int num_groups_;
  std::vector<ExtentRecord> extents_;
  std::vector<std::int64_t> extents_per_group_;
  std::vector<float> temperature_;  // decayed through the last EndEpoch
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_ARRAY_LAYOUT_H_

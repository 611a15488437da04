#include "src/array/layout.h"

#include <algorithm>
#include <numeric>

#include "src/util/check.h"

namespace hib {

LayoutManager::LayoutManager(LayoutParams params) : params_(params) {
  HIB_CHECK_GT(params_.num_disks, 0);
  HIB_CHECK_GT(params_.group_width, 0);
  HIB_CHECK_EQ(params_.num_disks % params_.group_width, 0)
      << "group width must divide the disk count";
  HIB_CHECK_GT(params_.num_extents, 0);
  HIB_CHECK_GT(params_.disk_capacity_sectors, params_.extent_sectors);
  HIB_CHECK_EQ(params_.extent_sectors % params_.stripe_unit_sectors, 0)
      << "extents must hold whole stripe units";
  num_groups_ = params_.num_disks / params_.group_width;
  extents_.resize(static_cast<std::size_t>(params_.num_extents));
  extents_per_group_.assign(static_cast<std::size_t>(num_groups_), 0);
  ResetRoundRobin();
}

void LayoutManager::ResetRoundRobin() {
  std::fill(extents_per_group_.begin(), extents_per_group_.end(), 0);
  std::int32_t g = 0;
  for (ExtentRecord& record : extents_) {
    record.group = g;
    ++extents_per_group_[static_cast<std::size_t>(g)];
    if (++g == num_groups_) {
      g = 0;
    }
  }
}

void LayoutManager::SetGroup(std::int64_t extent, int group) {
  HIB_DCHECK(group >= 0 && group < num_groups_) << "group " << group;
  ExtentRecord& record = extents_[static_cast<std::size_t>(extent)];
  if (record.group == group) {
    return;
  }
  --extents_per_group_[static_cast<std::size_t>(record.group)];
  ++extents_per_group_[static_cast<std::size_t>(group)];
  record.group = static_cast<std::int32_t>(group);
}

std::vector<int> LayoutManager::GroupDisks(int group) const {
  std::vector<int> disks(static_cast<std::size_t>(params_.group_width));
  std::iota(disks.begin(), disks.end(), group * params_.group_width);
  return disks;
}

StripeTarget LayoutManager::Map(std::int64_t extent, SectorAddr offset_in_extent) const {
  HIB_DCHECK(offset_in_extent >= 0 && offset_in_extent < params_.extent_sectors)
      << "offset " << offset_in_extent;
  int group = GroupOf(extent);
  int width = params_.group_width;
  StripeTarget t;

  // Physical placement: hash the extent onto the disk surface so different
  // extents land on different cylinders (seek distances stay realistic).
  SectorAddr usable = params_.disk_capacity_sectors - params_.extent_sectors;
  SectorAddr base = static_cast<SectorAddr>(
      (static_cast<unsigned long long>(extent) * 2654435761ULL) %
      static_cast<unsigned long long>(usable));

  if (width == 1) {
    t.data_disk = GroupDisk(group, 0);
    t.parity_disk = -1;
    t.data_sector = base + offset_in_extent;
    return t;
  }

  std::int64_t unit = offset_in_extent / params_.stripe_unit_sectors;
  SectorAddr within_unit = offset_in_extent % params_.stripe_unit_sectors;

  if (width == 2) {
    // Mirroring: data on slot 0, mirror ("parity") on slot 1.
    t.data_disk = GroupDisk(group, static_cast<int>(unit % 2));
    t.parity_disk = GroupDisk(group, static_cast<int>((unit + 1) % 2));
    t.data_sector = base + unit * params_.stripe_unit_sectors + within_unit;
    t.parity_sector = t.data_sector;
    return t;
  }

  // Left-symmetric RAID5 with `width - 1` data units per row.
  int data_per_row = width - 1;
  std::int64_t row = unit / data_per_row;
  int pos = static_cast<int>(unit % data_per_row);
  int parity_slot = static_cast<int>((width - 1 - (row % width)) % width);
  int data_slot = (parity_slot + 1 + pos) % width;
  t.data_disk = GroupDisk(group, data_slot);
  t.parity_disk = GroupDisk(group, parity_slot);
  SectorAddr row_sector = base + row * params_.stripe_unit_sectors;
  t.data_sector = row_sector + within_unit;
  t.parity_sector = row_sector + within_unit;
  return t;
}

TemperatureTracker::TemperatureTracker(std::int64_t num_extents, double decay)
    : decay_(decay),
      temperature_(static_cast<std::size_t>(num_extents), 0.0f),
      own_records_(static_cast<std::size_t>(num_extents)),
      records_(own_records_.data()) {}

TemperatureTracker::TemperatureTracker(LayoutManager* layout, double decay)
    : decay_(decay),
      temperature_(layout->extents_.size(), 0.0f),
      records_(layout->extents_.data()) {}

void TemperatureTracker::Touch(std::int64_t extent, double weight) {
  records_[static_cast<std::size_t>(extent)].window += static_cast<float>(weight);
}

void TemperatureTracker::EndEpoch() {
  for (std::size_t i = 0; i < temperature_.size(); ++i) {
    temperature_[i] =
        static_cast<float>(decay_ * static_cast<double>(temperature_[i])) + records_[i].window;
    records_[i].window = 0.0f;
  }
}

std::vector<std::int64_t> TemperatureTracker::SortedHottestFirst() const {
  std::vector<std::int64_t> order(temperature_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [this](std::int64_t a, std::int64_t b) {
    return TemperatureOf(a) > TemperatureOf(b);
  });
  return order;
}

double TemperatureTracker::TotalTemperature() const {
  double total = 0.0;
  for (std::size_t i = 0; i < temperature_.size(); ++i) {
    total += static_cast<double>(temperature_[i]) + static_cast<double>(records_[i].window);
  }
  return total;
}

}  // namespace hib

#include "src/policy/maid.h"

#include <sstream>

#include "src/util/check.h"

namespace hib {

std::string MaidPolicy::Describe() const {
  std::ostringstream out;
  out << "MAID(cache_disks=" << (array_ ? array_->num_cache_disks() : 0)
      << ", cache_extents=" << capacity_extents_
      << ", threshold=" << ToSeconds(tpm_.threshold()) << "s)";
  return out.str();
}

void MaidPolicy::Attach(Simulator* sim, ArrayController* array) {
  HIB_CHECK_GT(array->num_cache_disks(), 0) << "MAID needs at least one cache disk";
  sim_ = sim;
  array_ = array;
  if (params_.cache_extents > 0) {
    capacity_extents_ = params_.cache_extents;
  } else {
    capacity_extents_ = static_cast<std::int64_t>(array->num_cache_disks()) *
                        (array->params().disk.TotalSectors() / array->params().extent_sectors);
  }

  // Reads for cached extents are redirected to their cache disk; the
  // physical sector on the cache disk is immaterial to the timing model, so
  // the data-disk sector is reused as-is.
  array_->set_read_router([this](std::int64_t extent, int intended_disk) {
    int cache_disk = LookupCache(extent);
    if (cache_disk >= 0) {
      ++cache_hits_;
      return cache_disk;
    }
    ++cache_misses_;
    return intended_disk;
  });

  // Misses trigger a background copy onto a cache disk; writes invalidate.
  array_->set_completion_hook([this](const TraceRecord& rec, Duration /*response*/) {
    std::int64_t extent = rec.lba / array_->params().extent_sectors;
    if (rec.is_write) {
      auto it = resident_.find(extent);
      if (it != resident_.end()) {
        lru_.erase(it->second.lru_it);
        resident_.erase(it);
      }
      return;
    }
    if (resident_.find(extent) == resident_.end()) {
      InsertCache(extent);
    }
  });

  tpm_.Attach(sim, array);
}

void MaidPolicy::Finish() {
  MetricsRegistry& metrics = sim_->obs().metrics;
  metrics.GetCounter("policy.maid_cache_hits").Add(cache_hits_);
  metrics.GetCounter("policy.maid_cache_misses").Add(cache_misses_);
  metrics.GetCounter("policy.maid_copies_started").Add(copies_started_);
}

int MaidPolicy::LookupCache(std::int64_t extent) {
  auto it = resident_.find(extent);
  if (it == resident_.end()) {
    return -1;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.cache_disk;
}

void MaidPolicy::InsertCache(std::int64_t extent) {
  EvictIfNeeded();
  int cache_disk = array_->cache_disk_id(next_cache_disk_);
  next_cache_disk_ = (next_cache_disk_ + 1) % array_->num_cache_disks();

  lru_.push_front(extent);
  resident_[extent] = CacheEntry{cache_disk, lru_.begin()};
  ++copies_started_;

  // Background copy-in: one streaming write of the extent image.  (The read
  // side already happened — the demand miss fetched the data.)
  DiskRequest req;
  req.sector = array_->layout().Map(extent, 0).data_sector;
  req.count = array_->params().extent_sectors;
  req.is_write = true;
  req.background = true;
  array_->SubmitRaw(cache_disk, std::move(req));
}

void MaidPolicy::EvictIfNeeded() {
  while (static_cast<std::int64_t>(resident_.size()) >= capacity_extents_ && !lru_.empty()) {
    std::int64_t victim = lru_.back();
    lru_.pop_back();
    resident_.erase(victim);
  }
}

}  // namespace hib

// MAID: Massive Array of Idle Disks (Colarelli & Grunwald, SC 2002).
//
// A small set of always-on *cache disks* fronts the data disks: reads whose
// extent is resident on a cache disk are served there; misses go to the data
// disk and the extent is copied to a cache disk in the background.  Data
// disks are spun down by a TPM threshold once the cache absorbs their load.
// Writes go to the data disks (write-through) and invalidate any cached copy.
//
// As in the paper's evaluation, MAID helps only when the working set fits the
// cache disks; data-center working sets typically do not, so data disks keep
// waking up and the added cache disks can even cost energy.
#ifndef HIBERNATOR_SRC_POLICY_MAID_H_
#define HIBERNATOR_SRC_POLICY_MAID_H_

#include <list>
#include <string>
#include <map>

#include "src/policy/policy.h"
#include "src/policy/tpm.h"

namespace hib {

struct MaidParams {
  // Capacity of the cache-disk LRU, in extents (<= 0 sizes it from the cache
  // disks' raw capacity).
  std::int64_t cache_extents = -1;
  // TPM threshold for data disks; <= 0 = break-even.
  Duration idle_threshold_ms = Ms(-1.0);
};

class MaidPolicy : public PowerPolicy {
 public:
  explicit MaidPolicy(MaidParams params = {})
      : params_(params), tpm_(TpmParams{params.idle_threshold_ms}) {}

  std::string Name() const override { return "MAID"; }
  std::string Describe() const override;

  void Attach(Simulator* sim, ArrayController* array) override;
  // Adds the hit, miss and copy counts to the registry.
  void Finish() override;

  std::int64_t cache_hits() const { return cache_hits_; }
  std::int64_t cache_misses() const { return cache_misses_; }
  std::int64_t copies_started() const { return copies_started_; }

 private:
  // Returns the cache disk holding `extent`, or -1; refreshes LRU position.
  int LookupCache(std::int64_t extent);
  void InsertCache(std::int64_t extent);
  void EvictIfNeeded();

  MaidParams params_;
  TpmPolicy tpm_;
  Simulator* sim_ = nullptr;
  ArrayController* array_ = nullptr;
  std::int64_t capacity_extents_ = 0;
  int next_cache_disk_ = 0;

  struct CacheEntry {
    int cache_disk = -1;
    std::list<std::int64_t>::iterator lru_it;
  };
  std::list<std::int64_t> lru_;  // front = most recent
  // Ordered by extent id so any iteration over the resident set (stats,
  // future shard merges) is deterministic (HIB011).
  std::map<std::int64_t, CacheEntry> resident_;

  std::int64_t cache_hits_ = 0;
  std::int64_t cache_misses_ = 0;
  std::int64_t copies_started_ = 0;
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_POLICY_MAID_H_

// The simulated disk array: controller cache, RAID fan-out, extent
// temperature tracking, and a rate-limited background migration engine.
//
// Logical requests arrive through Submit() (typically replayed from a
// WorkloadSource by the harness).  The controller:
//   1. checks the LRU read cache (hits complete at cache_hit_ms);
//   2. splits the request along extent and stripe-unit boundaries;
//   3. issues the per-disk sub-I/Os — one read per data unit for reads, and
//      the classic RAID5 small-write sequence (read old data + old parity,
//      then write new data + new parity) for writes in parity groups;
//   4. completes the logical request when the last sub-I/O finishes and
//      reports the response time to the stats and to the policy hook.
//
// Policies interact through: per-disk speed/standby control (via disk(i)),
// the read-routing hook (MAID cache disks), the completion hook, and the
// migration queue (Hibernator and PDC data reorganization).
//
// Memory discipline: steady-state dispatch performs zero heap allocations.
// Request contexts come from a generation-stamped SlotPool, sub-I/O plans
// live in inline SmallVector storage, completion callbacks capture only
// [this, PoolHandle] (16 bytes — inside every SSO buffer in the system), and
// background fan-ins (rebuild, migration) use intrusive counters instead of
// make_shared<int>.  simlint HIB017 keeps it that way.
#ifndef HIBERNATOR_SRC_ARRAY_ARRAY_H_
#define HIBERNATOR_SRC_ARRAY_ARRAY_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/array/cache.h"
#include "src/array/layout.h"
#include "src/array/request_pool.h"
#include "src/disk/disk.h"
#include "src/sim/simulator.h"
#include "src/trace/trace.h"
#include "src/util/small_vector.h"
#include "src/util/stats.h"
#include "src/util/thread_annotations.h"

namespace hib {

struct ArrayParams {
  int num_disks = 16;
  int num_cache_disks = 0;  // extra disks addressable only via SubmitRaw (MAID)
  int group_width = 4;      // stripe-group width; 1 disables striping/parity
  DiskParams disk = MakeUltrastar36Z15MultiSpeed(5);
  SectorCount stripe_unit_sectors = 128;  // 64 KB
  SectorCount extent_sectors = 2048;      // 1 MB
  double data_fraction = 0.6;  // logical data size as a fraction of raw capacity
  std::size_t cache_lines = 2048;         // 128 MB controller cache of 64 KB lines
  Duration cache_hit_ms = Ms(0.05);
  int max_concurrent_migrations = 2;
  std::uint64_t seed = 1234;

  // Logical data space (whole extents).
  SectorAddr DataSectors() const;
  std::int64_t NumExtents() const { return DataSectors() / extent_sectors; }
};

struct ArrayStats {
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  std::int64_t cache_hits = 0;
  std::int64_t subops = 0;
  RunningStats response_ms;
  PercentileReservoir response_pct{16384, 99};
  std::int64_t migrations_completed = 0;
  std::int64_t migrated_sectors = 0;

  // Failure / recovery accounting.
  std::int64_t degraded_reads = 0;      // reads reconstructed from peers
  std::int64_t parity_only_writes = 0;  // writes absorbed by parity while degraded
  std::int64_t lost_accesses = 0;       // unprotected accesses to a failed disk
  std::int64_t rebuilt_extents = 0;

  // Rolling window (policies read + ResetWindow once per epoch/check).
  Duration window_response_sum_ms;
  std::int64_t window_responses = 0;

  // Cumulative sums backing the performance guarantee.
  Duration total_response_sum_ms;
  std::int64_t total_responses = 0;

  void ResetWindow() {
    window_response_sum_ms = Duration{};
    window_responses = 0;
  }
  Duration WindowMeanResponse() const {
    return window_responses > 0 ? window_response_sum_ms / static_cast<double>(window_responses)
                                : Duration{};
  }
  Duration CumulativeMeanResponse() const {
    return total_responses > 0 ? total_response_sum_ms / static_cast<double>(total_responses)
                               : Duration{};
  }
};

// Shard-local: one controller per shard universe, single-threaded within it.
// Escaping its address (or the Simulator's) past the shard run is an HIB022.
class HIB_SHARD_LOCAL ArrayController {
 public:
  ArrayController(Simulator* sim, ArrayParams params);

  ArrayController(const ArrayController&) = delete;
  ArrayController& operator=(const ArrayController&) = delete;

  // Submits a logical request; its response time goes to the stats and the
  // completion hook.
  void Submit(const TraceRecord& record);

  // Direct access to a disk's queue (policy-private traffic, e.g. MAID
  // cache-disk fills).  `disk_id` may name a cache disk.
  void SubmitRaw(int disk_id, DiskRequest request);

  // --- topology ----------------------------------------------------------
  int num_data_disks() const { return params_.num_disks; }
  int num_cache_disks() const { return params_.num_cache_disks; }
  int num_disks_total() const { return params_.num_disks + params_.num_cache_disks; }
  Disk& disk(int id) { return *disks_[static_cast<std::size_t>(id)]; }
  const Disk& disk(int id) const { return *disks_[static_cast<std::size_t>(id)]; }
  // Cache disks occupy ids [num_data_disks, num_disks_total).
  int cache_disk_id(int index) const { return params_.num_disks + index; }

  LayoutManager& layout() { return layout_; }
  const LayoutManager& layout() const { return layout_; }
  LruCache& cache() { return cache_; }
  const ArrayParams& params() const { return params_; }
  Simulator& sim() { return *sim_; }

  // --- policy hooks ------------------------------------------------------
  // May redirect a read sub-op to another disk (return the replacement disk
  // id, or a negative value to keep the intended disk).
  using ReadRouter = std::function<int(std::int64_t extent, int intended_disk)>;
  void set_read_router(ReadRouter router) { read_router_ = std::move(router); }

  using CompletionHook = std::function<void(const TraceRecord&, Duration response_ms)>;
  void set_completion_hook(CompletionHook hook) { completion_hook_ = std::move(hook); }

  // --- migration ---------------------------------------------------------
  // Queues an extent move; executed in the background (idle-priority disk
  // I/O, at most max_concurrent_migrations in flight).
  void RequestMigration(std::int64_t extent, int target_group);
  void PauseMigration(bool paused);
  std::size_t MigrationBacklog() const { return migration_queue_.size() + active_migrations_; }

  // --- failure injection and recovery --------------------------------------
  // Marks a data disk failed: reads of its units are served degraded
  // (reconstructed from the group's surviving disks), writes fall back to
  // parity-only updates, and unprotected (width-1) accesses are counted as
  // lost.  Idempotent.
  void FailDisk(int disk_id);

  // Installs a replacement for a failed disk and starts a background rebuild
  // (reads every extent's surviving shares, rewrites the lost share).  The
  // disk serves demand traffic degraded until the rebuild finishes, then
  // `on_complete` fires and the disk rejoins.  No-op if the disk isn't failed
  // or is already rebuilding.
  void ReplaceDisk(int disk_id, std::function<void()> on_complete = nullptr);

  bool IsDiskFailed(int disk_id) const {
    return disk_failed_[static_cast<std::size_t>(disk_id)];
  }
  bool IsRebuilding(int disk_id) const {
    return disk_rebuilding_[static_cast<std::size_t>(disk_id)];
  }

  // --- metrics -----------------------------------------------------------
  ArrayStats& stats() { return stats_; }
  const ArrayStats& stats() const { return stats_; }

  // Pool occupancy, for tests and leak hunting: every logical request in
  // flight holds exactly one pooled context.
  std::size_t InFlightRequests() const { return request_pool_.live(); }

  // Sum of per-disk metered energy (data + cache disks), through now.
  DiskEnergy TotalEnergy() const;

  // Closes every disk's open power-state span and adds the array's and the
  // disks' counts to the registry.  Call once at end of run, before
  // exporting a trace or taking a metrics snapshot.
  void FlushObs();

 private:
  struct PendingWrite {
    int disk_id = -1;
    SectorAddr sector = 0;
    SectorCount count = 0;
  };

  // Tracks one logical request across its sub-I/Os.  For RAID5 small writes
  // the pre-read phase (old data + old parity) runs first; the write phase is
  // stashed in `phase2` and issued when the pre-reads drain.  Pooled: reused
  // across requests, so Reset() clears only what Submit doesn't overwrite.
  struct RequestContext {
    TraceRecord record;
    SimTime arrival;
    int pending = 0;
    std::int64_t obs_id = 0;
    bool cache_hit = false;
    // Four inline slots cover every single-stripe-unit request (RAID5 small
    // write = 2 writes); multi-unit requests spill once, then the grown
    // buffer is reused by the slot's later tenants.
    SmallVector<PendingWrite, 4> phase2;

    void Reset() {
      pending = 0;
      cache_hit = false;
      phase2.clear();
    }
  };

  // One in-flight extent move: phase 1 reads every live source share, phase 2
  // writes every live destination share, then the extent flips groups.
  struct MigrationState {
    std::int64_t extent = 0;
    int target_group = 0;
    int reads_left = 0;
    int writes_left = 0;
    SectorAddr base = 0;
    SectorCount share_dst = 0;
    SimTime started;
  };

  PoolHandle AcquireContext(const TraceRecord& record);
  // HIB_REQUIRES_LIVE: callers must hold a live (unreleased) handle — either
  // freshly acquired or checked with IsLive() after a completion callback
  // (simlint HIB024 propagates the obligation up the call graph; the
  // annotation argument must name the parameter as the definitions spell it).
  void IssueRead(PoolHandle h, int disk_id, SectorAddr sector, SectorCount count)
      HIB_REQUIRES_LIVE(h);
  void IssueWritePhase(PoolHandle h) HIB_REQUIRES_LIVE(h);
  void FinishLogical(PoolHandle h) HIB_REQUIRES_LIVE(h);
  void PumpMigrations();
  void StartMigration(std::int64_t extent, int target_group);
  void DoMigrationWrites(PoolHandle mig) HIB_REQUIRES_LIVE(mig);
  // Reads the stripe unit degraded: one read per surviving group disk.
  void IssueDegradedRead(PoolHandle h, int group, int failed_disk, SectorAddr sector,
                         SectorCount count) HIB_REQUIRES_LIVE(h);
  void RebuildNextExtent(int disk_id);
  void WriteRebuildShare(int disk_id);
  void FinishRebuild(int disk_id);

  Simulator* sim_;
  ArrayParams params_;
  SectorAddr data_sectors_;  // params_.DataSectors(), for Submit's bound check
  std::vector<std::unique_ptr<Disk>> disks_;
  LayoutManager layout_;
  LruCache cache_;
  ReadRouter read_router_;
  CompletionHook completion_hook_;
  ArrayStats stats_;

  SlotPool<RequestContext> request_pool_;
  SlotPool<MigrationState, 16> migration_pool_;

  std::deque<std::pair<std::int64_t, int>> migration_queue_;
  int active_migrations_ = 0;
  bool migration_paused_ = false;

  std::vector<bool> disk_failed_;
  std::vector<bool> disk_rebuilding_;
  // Per-disk rebuild progress, keyed by disk id; ordered so concurrent
  // rebuilds are always walked in disk order (HIB011).
  struct RebuildState {
    std::vector<std::int64_t> worklist;
    std::size_t cursor = 0;  // next index into worklist to copy
    std::function<void()> on_complete;
    SimTime started;         // for the rebuild trace span
    int reads_left = 0;      // fan-in for the current extent's source reads
    SectorAddr base = 0;     // current extent's base sector
    SectorCount share = 0;   // per-disk share of the current extent
  };
  std::map<int, RebuildState> rebuilds_;

  LogLinearHistogram* obs_response_ms_;  // resolved once from the registry
  std::int64_t obs_req_seq_ = 0;  // logical-request trace id counter
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_ARRAY_ARRAY_H_

#include "src/array/array.h"

#include <algorithm>

#include "src/util/log.h"

#include "src/util/check.h"

namespace hib {

SectorAddr ArrayParams::DataSectors() const {
  double raw = static_cast<double>(num_disks) * static_cast<double>(disk.TotalSectors());
  auto sectors = static_cast<SectorAddr>(raw * data_fraction);
  return (sectors / extent_sectors) * extent_sectors;
}

namespace {
LayoutParams MakeLayoutParams(const ArrayParams& p) {
  LayoutParams lp;
  lp.num_disks = p.num_disks;
  lp.group_width = p.group_width;
  lp.num_extents = p.NumExtents();
  lp.extent_sectors = p.extent_sectors;
  lp.stripe_unit_sectors = p.stripe_unit_sectors;
  lp.disk_capacity_sectors = p.disk.TotalSectors();
  return lp;
}
}  // namespace

ArrayController::ArrayController(Simulator* sim, ArrayParams params)
    : sim_(sim),
      params_(params),
      data_sectors_(params.DataSectors()),
      layout_(MakeLayoutParams(params)),
      temperatures_(&layout_, params.temperature_decay),
      cache_(params.cache_lines, params.cache_line_sectors) {
  HIB_CHECK_EQ(params_.num_disks % params_.group_width, 0)
      << "group width must divide the data-disk count";
  int total = num_disks_total();
  disk_failed_.assign(static_cast<std::size_t>(total), false);
  disk_rebuilding_.assign(static_cast<std::size_t>(total), false);
  disks_.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    disks_.push_back(std::make_unique<Disk>(sim_, params_.disk, i,
                                            params_.seed + static_cast<std::uint64_t>(i)));
  }
  obs_response_ms_ = &sim_->obs().metrics.GetHistogram("array.response_ms");
}

void ArrayController::FlushObs() {
  for (auto& d : disks_) {
    d->FlushObs();
  }
  MetricsRegistry& metrics = sim_->obs().metrics;
  metrics.GetCounter("array.reads").Add(stats_.reads);
  metrics.GetCounter("array.writes").Add(stats_.writes);
  metrics.GetCounter("array.cache_hits").Add(stats_.cache_hits);
  metrics.GetCounter("array.subops").Add(stats_.subops);
  metrics.GetCounter("array.migrations").Add(stats_.migrations_completed);
  metrics.GetCounter("array.rebuilt_extents").Add(stats_.rebuilt_extents);
}

PoolHandle ArrayController::AcquireContext(const TraceRecord& record,
                                           std::function<void(Duration)> done) {
  PoolHandle h = request_pool_.Acquire();
  RequestContext& ctx = request_pool_.Get(h);
  ctx.Reset();
  ctx.record = record;
  ctx.arrival = sim_->Now();
  ctx.done = std::move(done);
  ctx.obs_id = obs_req_seq_++;
  return h;
}

void ArrayController::Submit(const TraceRecord& record, std::function<void(Duration)> done) {
  HIB_DCHECK(record.lba >= 0 && record.count > 0) << "malformed trace record";
  HIB_DCHECK_LE(record.lba + record.count, data_sectors_)
      << "trace record beyond the logical address space";

  if (record.is_write) {
    ++stats_.writes;
  } else {
    ++stats_.reads;
  }

  // Temperature accounting per touched extent.
  for (SectorAddr addr = record.lba; addr < record.lba + record.count;) {
    std::int64_t extent = addr / params_.extent_sectors;
    SectorAddr extent_end = (extent + 1) * params_.extent_sectors;
    temperatures_.Touch(extent);
    addr = std::min<SectorAddr>(extent_end, record.lba + record.count);
  }

  if (!record.is_write && cache_.Lookup(record.lba, record.count)) {
    ++stats_.cache_hits;
    PoolHandle hit = AcquireContext(record, std::move(done));
    RequestContext& ctx = request_pool_.Get(hit);
    ctx.pending = 1;
    ctx.cache_hit = true;
    sim_->ScheduleIn(params_.cache_hit_ms, [this, hit] {
      if (--request_pool_.Get(hit).pending == 0) {
        FinishLogical(hit);
      }
    });
    return;
  }

  if (record.is_write) {
    // Keep the read cache coherent: drop overlapping lines immediately.
    cache_.Invalidate(record.lba, record.count);
  }

  PoolHandle h = AcquireContext(record, std::move(done));
  RequestContext& ctx = request_pool_.Get(h);

  // Split into stripe-unit-aligned pieces and plan the sub-I/Os.  The
  // pending counter starts at 1 so completions racing the planning loop
  // cannot finish the request early; the guard is released at the end.
  ctx.pending = 1;
  SectorAddr addr = record.lba;
  SectorCount remaining = record.count;
  while (remaining > 0) {
    std::int64_t extent = addr / params_.extent_sectors;
    SectorAddr offset = addr % params_.extent_sectors;
    SectorAddr unit_end =
        (offset / params_.stripe_unit_sectors + 1) * params_.stripe_unit_sectors;
    SectorCount len = std::min<SectorCount>(remaining, unit_end - offset);
    len = std::min<SectorCount>(len, params_.extent_sectors - offset);
    StripeTarget target = layout_.Map(extent, offset);

    int group = layout_.GroupOf(extent);
    bool data_failed = disk_failed_[static_cast<std::size_t>(target.data_disk)];
    bool parity_failed =
        target.parity_disk >= 0 && disk_failed_[static_cast<std::size_t>(target.parity_disk)];

    if (!record.is_write) {
      int disk_id = target.data_disk;
      if (read_router_) {
        int routed = read_router_(extent, disk_id);
        if (routed >= 0 && routed < num_disks_total() &&
            !disk_failed_[static_cast<std::size_t>(routed)]) {
          disk_id = routed;
        }
      }
      if (!disk_failed_[static_cast<std::size_t>(disk_id)]) {
        ++ctx.pending;
        IssueRead(h, disk_id, target.data_sector, len);
      } else if (layout_.group_width() == 1) {
        ++stats_.lost_accesses;  // no redundancy to reconstruct from
      } else if (layout_.group_width() == 2) {
        if (parity_failed) {
          ++stats_.lost_accesses;
        } else {
          ++stats_.degraded_reads;
          ++ctx.pending;
          IssueRead(h, target.parity_disk, target.parity_sector, len);
        }
      } else {
        IssueDegradedRead(h, group, disk_id, target.data_sector, len);
      }
    } else if (target.parity_disk < 0) {
      // Unprotected layout (group width 1): plain write.
      if (data_failed) {
        ++stats_.lost_accesses;
      } else {
        ctx.phase2.push_back({target.data_disk, target.data_sector, len});
      }
    } else if (layout_.group_width() == 2) {
      // Mirroring: write the surviving copies, no pre-read.
      if (!data_failed) {
        ctx.phase2.push_back({target.data_disk, target.data_sector, len});
      }
      if (!parity_failed) {
        ctx.phase2.push_back({target.parity_disk, target.parity_sector, len});
      }
      if (data_failed && parity_failed) {
        ++stats_.lost_accesses;
      }
    } else if (data_failed && parity_failed) {
      ++stats_.lost_accesses;  // double failure in one stripe
    } else if (data_failed) {
      // Reconstruct-write: the lost data unit is absorbed into parity.  Read
      // the row's surviving data units, then write the new parity.
      ++stats_.parity_only_writes;
      for (int slot = 0; slot < layout_.group_width(); ++slot) {
        int peer = layout_.GroupDisk(group, slot);
        if (peer == target.data_disk || peer == target.parity_disk ||
            disk_failed_[static_cast<std::size_t>(peer)]) {
          continue;
        }
        ++ctx.pending;
        IssueRead(h, peer, target.data_sector, len);
      }
      ctx.phase2.push_back({target.parity_disk, target.parity_sector, len});
    } else if (parity_failed) {
      // Parity lost: the data write proceeds without parity maintenance.
      ctx.phase2.push_back({target.data_disk, target.data_sector, len});
    } else {
      // RAID5 small write: pre-read old data and old parity...
      ctx.pending += 2;
      IssueRead(h, target.data_disk, target.data_sector, len);
      IssueRead(h, target.parity_disk, target.parity_sector, len);
      // ...then write new data and new parity.
      ctx.phase2.push_back({target.data_disk, target.data_sector, len});
      ctx.phase2.push_back({target.parity_disk, target.parity_sector, len});
    }

    addr += len;
    remaining -= len;
  }

  // Release the planning guard.
  if (--ctx.pending == 0) {
    IssueWritePhase(h);
  }
}

void ArrayController::IssueRead(PoolHandle h, int disk_id, SectorAddr sector,
                                SectorCount count) {
  ++stats_.subops;
  DiskRequest req;
  req.sector = sector;
  req.count = count;
  req.is_write = false;
  // [this, handle] is 16 trivially-copyable bytes: fits std::function's SSO
  // buffer, so this closure never touches the heap.
  req.on_complete = [this, h](SimTime) {
    if (--request_pool_.Get(h).pending == 0) {
      IssueWritePhase(h);
    }
  };
  disks_[static_cast<std::size_t>(disk_id)]->Submit(std::move(req));
}

void ArrayController::IssueWritePhase(PoolHandle h) {
  RequestContext& ctx = request_pool_.Get(h);
  if (ctx.phase2.empty()) {
    FinishLogical(h);
    return;
  }
  ctx.pending = static_cast<int>(ctx.phase2.size());
  // Disk completions only ever fire from the event loop, never inside
  // Submit(), so iterating the plan in place is safe; clear() afterwards
  // keeps any spilled capacity for the slot's next tenant.
  for (const PendingWrite& w : ctx.phase2) {
    ++stats_.subops;
    DiskRequest req;
    req.sector = w.sector;
    req.count = w.count;
    req.is_write = true;
    req.on_complete = [this, h](SimTime) {
      if (--request_pool_.Get(h).pending == 0) {
        FinishLogical(h);
      }
    };
    disks_[static_cast<std::size_t>(w.disk_id)]->Submit(std::move(req));
  }
  ctx.phase2.clear();
}

void ArrayController::FinishLogical(PoolHandle h) {
  RequestContext& ctx = request_pool_.Get(h);
  Duration response = sim_->Now() - ctx.arrival;
  obs_response_ms_->Record(response / Ms(1.0));
  HIB_TRACE_SPAN(sim_->obs().tracer, SpanKind::kRequest, kTrackArray,
                 ctx.record.is_write ? "write" : (ctx.cache_hit ? "read(hit)" : "read"),
                 ctx.arrival, sim_->Now(), ctx.obs_id,
                 static_cast<double>(ctx.record.count));
  stats_.response_ms.Add(response);
  stats_.response_pct.Add(response);
  stats_.window_response_sum_ms += response;
  ++stats_.window_responses;
  stats_.total_response_sum_ms += response;
  ++stats_.total_responses;

  // Copy out what outlives the slot, release, then run side effects: the
  // completion hook or `done` may Submit() reentrantly and reuse this slot.
  TraceRecord record = ctx.record;
  std::function<void(Duration)> done = std::move(ctx.done);
  request_pool_.Release(h);

  if (!record.is_write) {
    cache_.Insert(record.lba, record.count);
  }
  if (completion_hook_) {
    completion_hook_(record, response);
  }
  if (done) {
    done(response);
  }
}

void ArrayController::SubmitRaw(int disk_id, DiskRequest request) {
  HIB_CHECK(disk_id >= 0 && disk_id < num_disks_total()) << "disk id " << disk_id;
  ++stats_.subops;
  disks_[static_cast<std::size_t>(disk_id)]->Submit(std::move(request));
}

DiskEnergy ArrayController::TotalEnergy() const {
  DiskEnergy total;
  for (const auto& d : disks_) {
    DiskEnergy e = d->MeteredEnergy();
    total.active += e.active;
    total.idle += e.idle;
    total.standby += e.standby;
    total.transition += e.transition;
    total.active_ms += e.active_ms;
    total.idle_ms += e.idle_ms;
    total.standby_ms += e.standby_ms;
    total.transition_ms += e.transition_ms;
  }
  return total;
}

void ArrayController::IssueDegradedRead(PoolHandle h, int group, int failed_disk,
                                        SectorAddr sector, SectorCount count) {
  // Reconstruction needs every surviving unit of the row: one read per
  // surviving disk in the group.
  int issued = 0;
  for (int slot = 0; slot < layout_.group_width(); ++slot) {
    int peer = layout_.GroupDisk(group, slot);
    if (peer == failed_disk) {
      continue;
    }
    if (disk_failed_[static_cast<std::size_t>(peer)]) {
      // Second failure in the group: the data is unrecoverable.
      ++stats_.lost_accesses;
      return;
    }
    ++issued;
  }
  ++stats_.degraded_reads;
  request_pool_.Get(h).pending += issued;
  for (int slot = 0; slot < layout_.group_width(); ++slot) {
    int peer = layout_.GroupDisk(group, slot);
    if (peer != failed_disk) {
      IssueRead(h, peer, sector, count);
    }
  }
}

void ArrayController::FailDisk(int disk_id) {
  HIB_CHECK(disk_id >= 0 && disk_id < num_disks_total()) << "disk id " << disk_id;
  disk_failed_[static_cast<std::size_t>(disk_id)] = true;
}

void ArrayController::ReplaceDisk(int disk_id, std::function<void()> on_complete) {
  HIB_CHECK(disk_id >= 0 && disk_id < num_disks_total()) << "disk id " << disk_id;
  if (!disk_failed_[static_cast<std::size_t>(disk_id)] ||
      disk_rebuilding_[static_cast<std::size_t>(disk_id)]) {
    return;
  }
  if (disk_id >= num_data_disks()) {
    // Cache disks hold no primary data: replacement is immediate.
    disk_failed_[static_cast<std::size_t>(disk_id)] = false;
    if (on_complete) {
      on_complete();
    }
    return;
  }
  disk_rebuilding_[static_cast<std::size_t>(disk_id)] = true;
  int group = disk_id / layout_.group_width();
  std::vector<std::int64_t> worklist;
  for (std::int64_t e = 0; e < layout_.num_extents(); ++e) {
    if (layout_.GroupOf(e) == group) {
      worklist.push_back(e);
    }
  }
  RebuildState& rebuild = rebuilds_[disk_id];
  rebuild.worklist = std::move(worklist);
  rebuild.cursor = 0;
  rebuild.on_complete = std::move(on_complete);
  rebuild.started = sim_->Now();
  RebuildNextExtent(disk_id);
}

void ArrayController::RebuildNextExtent(int disk_id) {
  RebuildState& rebuild = rebuilds_[disk_id];
  std::vector<std::int64_t>& worklist = rebuild.worklist;
  std::size_t& cursor = rebuild.cursor;
  int group = disk_id / layout_.group_width();
  // Skip extents that migrated away since the worklist was built.
  while (cursor < worklist.size() && layout_.GroupOf(worklist[cursor]) != group) {
    ++cursor;
  }
  if (cursor >= worklist.size()) {
    FinishRebuild(disk_id);
    return;
  }
  std::int64_t extent = worklist[cursor];
  ++cursor;

  rebuild.share = params_.extent_sectors / layout_.group_width();
  rebuild.base = layout_.Map(extent, 0).data_sector;
  // Fan-in for this extent's source reads lives in the rebuild state itself
  // (one extent in flight per rebuilding disk), not a heap counter.
  rebuild.reads_left = 0;
  for (int slot = 0; slot < layout_.group_width(); ++slot) {
    int peer = layout_.GroupDisk(group, slot);
    if (peer != disk_id && !disk_failed_[static_cast<std::size_t>(peer)]) {
      ++rebuild.reads_left;
    }
  }
  if (rebuild.reads_left == 0) {
    // Nothing to reconstruct from; count the extent and move on.
    ++stats_.rebuilt_extents;
    RebuildNextExtent(disk_id);
    return;
  }
  int i = 0;
  for (int slot = 0; slot < layout_.group_width(); ++slot) {
    int peer = layout_.GroupDisk(group, slot);
    if (peer == disk_id || disk_failed_[static_cast<std::size_t>(peer)]) {
      continue;
    }
    DiskRequest req;
    req.sector = rebuild.base + static_cast<SectorAddr>(i) * rebuild.share;
    req.count = rebuild.share;
    req.is_write = false;
    req.background = true;
    req.on_complete = [this, disk_id](SimTime) {
      auto it = rebuilds_.find(disk_id);
      HIB_DCHECK(it != rebuilds_.end()) << "rebuild read completed after rebuild finished";
      if (--it->second.reads_left == 0) {
        WriteRebuildShare(disk_id);
      }
    };
    SubmitRaw(peer, std::move(req));
    ++i;
  }
}

void ArrayController::WriteRebuildShare(int disk_id) {
  RebuildState& rebuild = rebuilds_[disk_id];
  DiskRequest req;
  req.sector = rebuild.base;
  req.count = rebuild.share;
  req.is_write = true;
  req.background = true;
  req.on_complete = [this, disk_id](SimTime) {
    ++stats_.rebuilt_extents;
    RebuildNextExtent(disk_id);
  };
  SubmitRaw(disk_id, std::move(req));
}

void ArrayController::FinishRebuild(int disk_id) {
  std::function<void()> fn;
  auto it = rebuilds_.find(disk_id);
  if (it != rebuilds_.end()) {
    HIB_TRACE_SPAN(sim_->obs().tracer, SpanKind::kRebuild, disk_id, "rebuild",
                   it->second.started, sim_->Now(), disk_id, 0.0);
    fn = std::move(it->second.on_complete);
    rebuilds_.erase(it);
  }
  disk_failed_[static_cast<std::size_t>(disk_id)] = false;
  disk_rebuilding_[static_cast<std::size_t>(disk_id)] = false;
  if (fn) {
    fn();
  }
}

// ----------------------------------------------------------- migration -----

void ArrayController::RequestMigration(std::int64_t extent, int target_group) {
  HIB_CHECK(extent >= 0 && extent < layout_.num_extents()) << "extent " << extent;
  HIB_CHECK(target_group >= 0 && target_group < layout_.num_groups())
      << "group " << target_group;
  migration_queue_.emplace_back(extent, target_group);
  PumpMigrations();
}

void ArrayController::PauseMigration(bool paused) {
  migration_paused_ = paused;
  if (!paused) {
    PumpMigrations();
  }
}

void ArrayController::CancelQueuedMigrations() { migration_queue_.clear(); }

void ArrayController::PumpMigrations() {
  while (!migration_paused_ && active_migrations_ < params_.max_concurrent_migrations &&
         !migration_queue_.empty()) {
    auto [extent, target] = migration_queue_.front();
    migration_queue_.pop_front();
    if (layout_.GroupOf(extent) == target) {
      continue;  // already there (duplicate request or racing plan)
    }
    StartMigration(extent, target);
  }
}

void ArrayController::StartMigration(std::int64_t extent, int target_group) {
  ++active_migrations_;
  int source_group = layout_.GroupOf(extent);
  std::vector<int> src_disks = layout_.GroupDisks(source_group);
  std::vector<int> dst_disks = layout_.GroupDisks(target_group);
  SectorCount share_src =
      params_.extent_sectors / static_cast<SectorCount>(src_disks.size());

  PoolHandle mig = migration_pool_.Acquire();
  MigrationState& st = migration_pool_.Get(mig);
  st.extent = extent;
  st.target_group = target_group;
  st.reads_left = 0;
  st.writes_left = 0;
  st.base = layout_.Map(extent, 0).data_sector;
  st.share_dst = params_.extent_sectors / static_cast<SectorCount>(dst_disks.size());
  st.started = sim_->Now();

  // Phase 1: background reads of the extent's share on every source disk.
  // Failed disks contribute nothing (their share is reconstructable);
  // prune them up front so the completion count matches issued requests.
  std::vector<int> live_sources;
  for (int d : src_disks) {
    if (!disk_failed_[static_cast<std::size_t>(d)]) {
      live_sources.push_back(d);
    }
  }
  st.reads_left = static_cast<int>(live_sources.size());
  if (live_sources.empty()) {
    DoMigrationWrites(mig);
    return;
  }
  for (std::size_t i = 0; i < live_sources.size(); ++i) {
    DiskRequest req;
    req.sector = st.base + static_cast<SectorAddr>(i) * share_src;
    req.count = share_src;
    req.is_write = false;
    req.background = true;
    req.on_complete = [this, mig](SimTime) {
      if (--migration_pool_.Get(mig).reads_left == 0) {
        DoMigrationWrites(mig);
      }
    };
    SubmitRaw(live_sources[i], std::move(req));
  }
}

void ArrayController::DoMigrationWrites(PoolHandle mig) {
  MigrationState& st = migration_pool_.Get(mig);
  // Group membership is static, so the destination set recomputed here is the
  // one StartMigration saw; only the failure mask can have changed.
  std::vector<int> dst_disks = layout_.GroupDisks(st.target_group);
  std::vector<int> live_dsts;
  for (int d : dst_disks) {
    if (!disk_failed_[static_cast<std::size_t>(d)]) {
      live_dsts.push_back(d);
    }
  }
  if (live_dsts.empty()) {
    // Nowhere to write; abandon the move (the extent stays put).
    migration_pool_.Release(mig);
    --active_migrations_;
    PumpMigrations();
    return;
  }
  st.writes_left = static_cast<int>(live_dsts.size());
  for (std::size_t i = 0; i < live_dsts.size(); ++i) {
    DiskRequest req;
    req.sector = st.base + static_cast<SectorAddr>(i) * st.share_dst;
    req.count = st.share_dst;
    req.is_write = true;
    req.background = true;
    req.on_complete = [this, mig](SimTime) {
      MigrationState& mst = migration_pool_.Get(mig);
      if (--mst.writes_left != 0) {
        return;
      }
      std::int64_t extent = mst.extent;
      int target_group = mst.target_group;
      SimTime mig_start = mst.started;
      migration_pool_.Release(mig);
      layout_.SetGroup(extent, target_group);
      ++stats_.migrations_completed;
      stats_.migrated_sectors += params_.extent_sectors;
      HIB_TRACE_SPAN(sim_->obs().tracer, SpanKind::kMigration, kTrackArray, "migrate",
                     mig_start, sim_->Now(), extent, static_cast<double>(target_group));
      --active_migrations_;
      PumpMigrations();
    };
    SubmitRaw(live_dsts[i], std::move(req));
  }
}

}  // namespace hib

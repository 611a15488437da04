// Workload zoo extensions beyond the paper's OLTP/Cello pair.
//
// Two shapes the energy schemes were never tuned for, chosen because they
// stress opposite ends of the policy space:
//
//   ML training:  a near-100% read storm — shuffled shard-sequential reads at
//                 a high sustained rate for epoch after epoch, punctuated by
//                 large checkpoint write bursts.  There are no idle valleys,
//                 so the interesting question is how little the schemes *hurt*
//                 (spin-downs should never pay for themselves here).
//   Backup/scrub: a nightly window of near-sequential full-array scanning,
//                 with only sparse verify reads outside it.  The inverse
//                 shape: the array is almost always idle, but the nightly
//                 scan touches everything, defeating popularity-based layouts
//                 that assume a small hot set.
//
// Both are deterministic given their seed, like the generators in
// synthetic.h, and both are exposed through `tracec gen mltrain|backup`.
#ifndef HIBERNATOR_SRC_TRACE_ZOO_H_
#define HIBERNATOR_SRC_TRACE_ZOO_H_

#include <cstdint>
#include <vector>

#include "src/trace/trace.h"
#include "src/util/random.h"

namespace hib {

struct MlTrainingWorkloadParams {
  SectorAddr address_space_sectors = 0;  // required
  Duration duration_ms = Hours(24.0);
  double read_iops = 400.0;        // sustained dataloader read rate
  int shards = 64;                 // dataset shards, reshuffled every epoch
  Duration epoch_ms = Hours(1.0);  // one pass over the shard order
  SectorCount read_sectors = 256;  // 128 KB streaming reads
  // Checkpoint burst at each epoch boundary: large sequential writes into the
  // top of the address space, back to back.
  int checkpoint_writes = 64;
  SectorCount checkpoint_sectors = 2048;  // 1 MB writes
  Duration checkpoint_gap_ms = Ms(2.0);
  std::uint64_t seed = 77;
};

class MlTrainingWorkload : public WorkloadSource {
 public:
  explicit MlTrainingWorkload(MlTrainingWorkloadParams params);

  bool Next(TraceRecord* out) override;
  void Reset() override;
  SectorAddr AddressSpaceSectors() const override { return params_.address_space_sectors; }
  Duration DurationHint() const override { return params_.duration_ms; }
  double PeakIopsHint() const override;

 private:
  void ShuffleShards();

  MlTrainingWorkloadParams params_;
  Pcg32 rng_;
  SimTime now_;
  std::vector<int> shard_order_;
  std::int64_t reads_this_epoch_ = 0;
  std::int64_t epoch_ = 0;
  SectorAddr shard_pos_ = 0;  // sequential read offset within the active shard
  int checkpoint_remaining_ = 0;
  SectorAddr checkpoint_lba_ = 0;
};

struct BackupScanWorkloadParams {
  SectorAddr address_space_sectors = 0;  // required
  Duration duration_ms = Hours(24.0);
  Duration day_ms = Hours(24.0);          // window recurrence period
  Duration window_start_ms = Hours(1.0);  // nightly scan window start
  Duration window_ms = Hours(4.0);
  double scan_iops = 300.0;       // sequential scan rate inside the window
  SectorCount scan_sectors = 512;  // 256 KB sequential reads
  double background_iops = 2.0;   // sparse verify reads outside the window
  SectorCount background_sectors = 8;
  std::uint64_t seed = 78;
};

class BackupScanWorkload : public WorkloadSource {
 public:
  explicit BackupScanWorkload(BackupScanWorkloadParams params);

  bool Next(TraceRecord* out) override;
  void Reset() override;
  SectorAddr AddressSpaceSectors() const override { return params_.address_space_sectors; }
  Duration DurationHint() const override { return params_.duration_ms; }
  double PeakIopsHint() const override;

  // True when the scan window covers time t; exposed for the tests.
  bool InWindow(SimTime t) const;

 private:
  BackupScanWorkloadParams params_;
  Pcg32 rng_;
  SimTime now_;
  SectorAddr scan_pos_ = 0;  // sequential scan cursor, wraps over the space
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_TRACE_ZOO_H_

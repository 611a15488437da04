// Synthetic workload generators standing in for the paper's traces.
//
// The paper evaluated Hibernator on (a) an OLTP trace collected from TPC-C
// running against a commercial database and (b) HP's Cello99 file-server
// trace.  Neither trace is redistributable, so we generate synthetic streams
// with the properties the paper's results depend on:
//
//   OLTP:  steady high request rate with a mild day/night swing, small
//          (4-8 KB) random I/Os, Zipf-skewed spatial popularity, read-mostly.
//   Cello: strongly diurnal and bursty, write-heavy, very high spatial skew,
//          long nearly idle valleys at night (these valleys are what let
//          every scheme save energy, and the skew is what multi-tier layouts
//          exploit).
//
// Both generators are fully deterministic given their seed.
#ifndef HIBERNATOR_SRC_TRACE_SYNTHETIC_H_
#define HIBERNATOR_SRC_TRACE_SYNTHETIC_H_

#include <algorithm>
#include <cstdint>
#include <memory>

#include "src/trace/trace.h"
#include "src/util/random.h"

namespace hib {

// Popularity is drawn over fixed-size "locality chunks" and scrambled with a
// multiplicative hash so hot chunks are spread across the address space
// (consecutive-hot layouts would make data concentration trivially easy).
// The number of chunks (at least 1), which is the Zipf rank count.
std::int64_t NumChunks(SectorAddr address_space_sectors, SectorCount chunk_sectors);

struct OltpWorkloadParams {
  SectorAddr address_space_sectors = 0;  // required
  Duration duration_ms = Hours(24.0);
  double peak_iops = 200.0;   // aggregate arrival rate at the daily peak
  double trough_iops = 60.0;  // rate at the nightly trough
  double read_fraction = 0.66;
  double zipf_theta = 0.86;
  SectorCount chunk_sectors = 2048;
  // Request size mix: mostly 4 KB with a tail of 16 KB table scans.
  double large_fraction = 0.1;
  SectorCount small_sectors = 8;    // 4 KB
  SectorCount large_sectors = 32;   // 16 KB
  // Optional load surge (for the performance-guarantee experiment): rate is
  // multiplied by surge_factor inside [surge_start_ms, surge_end_ms).
  Duration surge_start_ms = Ms(-1.0);
  Duration surge_end_ms = Ms(-1.0);
  double surge_factor = 1.0;
  // Diurnal phase shift: the daily cycle is evaluated at (t + phase_ms), so
  // a fleet can stagger its arrays across timezones.  0 = the paper's shape.
  Duration phase_ms = Ms(0.0);
  std::uint64_t seed = 42;
};

class OltpWorkload : public WorkloadSource {
 public:
  // A non-null `zipf_table` must be built for NumChunks(address space,
  // chunk_sectors) and zipf_theta (checked); it is shared, not rebuilt.
  explicit OltpWorkload(OltpWorkloadParams params,
                        std::shared_ptr<const ZipfTable> zipf_table = nullptr);

  const OltpWorkloadParams& params() const { return params_; }

  bool Next(TraceRecord* out) override;
  void Reset() override;
  SectorAddr AddressSpaceSectors() const override { return params_.address_space_sectors; }
  Duration DurationHint() const override { return params_.duration_ms; }
  double PeakIopsHint() const override {
    return params_.peak_iops * std::max(1.0, params_.surge_factor);
  }

  // Instantaneous arrival rate at time t (requests/second); exposed so the
  // tests can check the generator against its own model.
  double RateAt(SimTime t) const;

  // The popularity table draws invert (null above ZipfGenerator's limit).
  const ZipfTable* zipf_table() const { return zipf_.table(); }

 private:
  OltpWorkloadParams params_;
  Pcg32 rng_;
  ZipfGenerator zipf_;
  SimTime now_;
};

struct CelloWorkloadParams {
  SectorAddr address_space_sectors = 0;  // required
  Duration duration_ms = Hours(24.0);
  double peak_iops = 90.0;
  double trough_iops = 4.0;   // nights are nearly idle
  double read_fraction = 0.45;
  double zipf_theta = 1.05;   // higher skew than OLTP
  SectorCount chunk_sectors = 2048;
  // Bursts: arrivals come in Pareto-sized clumps with short intra-burst gaps.
  double burst_alpha = 1.5;
  double mean_burst_size = 8.0;
  Duration intra_burst_gap_ms = Ms(6.0);
  // Some bursts are sequential runs (file reads/writes).
  double sequential_fraction = 0.3;
  SectorCount io_sectors = 16;  // 8 KB typical file-server block
  // Diurnal phase shift, as in OltpWorkloadParams.
  Duration phase_ms = Ms(0.0);
  std::uint64_t seed = 43;
};

class CelloWorkload : public WorkloadSource {
 public:
  // `zipf_table` as for OltpWorkload.
  explicit CelloWorkload(CelloWorkloadParams params,
                         std::shared_ptr<const ZipfTable> zipf_table = nullptr);

  const CelloWorkloadParams& params() const { return params_; }

  bool Next(TraceRecord* out) override;
  void Reset() override;
  SectorAddr AddressSpaceSectors() const override { return params_.address_space_sectors; }
  Duration DurationHint() const override { return params_.duration_ms; }
  double PeakIopsHint() const override { return params_.peak_iops; }

  double RateAt(SimTime t) const;

  const ZipfTable* zipf_table() const { return zipf_.table(); }

 private:
  void StartBurst();

  CelloWorkloadParams params_;
  Pcg32 rng_;
  ZipfGenerator zipf_;
  SimTime now_;
  int burst_remaining_ = 0;
  bool burst_sequential_ = false;
  SectorAddr burst_next_lba_ = 0;
  bool burst_is_write_ = false;
};

// Constant-rate Poisson stream with uniform addresses; the tests' workhorse.
struct ConstantWorkloadParams {
  SectorAddr address_space_sectors = 0;
  Duration duration_ms = Hours(1.0);
  double iops = 50.0;
  double read_fraction = 0.7;
  SectorCount io_sectors = 8;
  std::uint64_t seed = 7;
};

class ConstantWorkload : public WorkloadSource {
 public:
  explicit ConstantWorkload(ConstantWorkloadParams params);

  const ConstantWorkloadParams& params() const { return params_; }

  bool Next(TraceRecord* out) override;
  void Reset() override;
  SectorAddr AddressSpaceSectors() const override { return params_.address_space_sectors; }
  Duration DurationHint() const override { return params_.duration_ms; }
  double PeakIopsHint() const override { return params_.iops; }

 private:
  ConstantWorkloadParams params_;
  Pcg32 rng_;
  SimTime now_;
};

// The multiplier ScrambleRank hashes with: a prime below 2^32.
inline constexpr std::int64_t kScramblePrime = 2654435761LL;

// Maps a popularity rank in [0, num_chunks) to a scrambled chunk index
// (bijective over [0, num_chunks)); shared by the generators and by tests.
std::int64_t ScrambleRank(std::int64_t rank, std::int64_t num_chunks);

}  // namespace hib

#endif  // HIBERNATOR_SRC_TRACE_SYNTHETIC_H_

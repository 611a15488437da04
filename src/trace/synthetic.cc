#include "src/trace/synthetic.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/util/check.h"

namespace hib {

namespace {
constexpr Duration kDayMs = Hours(24.0);

// Smooth diurnal shape in [0, 1]: 0 at t = 0 (midnight), 1 at t = 12 h.
double DiurnalShape(SimTime t) { return 0.5 * (1.0 - std::cos(2.0 * M_PI * t / kDayMs)); }
}  // namespace

std::int64_t NumChunks(SectorAddr address_space_sectors, SectorCount chunk_sectors) {
  return std::max<std::int64_t>(1, address_space_sectors / chunk_sectors);
}

std::int64_t ScrambleRank(std::int64_t rank, std::int64_t num_chunks) {
  if (num_chunks <= 1) {
    return 0;
  }
  if (num_chunks == kScramblePrime) {
    return rank;  // degenerate; the multiplier would not be coprime
  }
  HIB_DCHECK(rank >= 0 && rank < num_chunks) << "rank " << rank << " of " << num_chunks;
  // rank -> (rank * p) mod n is a bijection because p is prime and n < p
  // in all realistic configurations (n is a chunk count, p ~ 2.65e9).
  if (num_chunks < (std::int64_t{1} << 32)) {
    // rank < n < 2^32 and p < 2^32, so the product fits 64 bits: one
    // hardware divide instead of a libgcc 128-bit modulo call.
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(rank) *
                                     static_cast<std::uint64_t>(kScramblePrime) %
                                     static_cast<std::uint64_t>(num_chunks));
  }
  __int128 prod = static_cast<__int128>(rank) * kScramblePrime;
  return static_cast<std::int64_t>(prod % num_chunks);
}

// ---------------------------------------------------------------- OLTP -----

OltpWorkload::OltpWorkload(OltpWorkloadParams params,
                           std::shared_ptr<const ZipfTable> zipf_table)
    : params_(params),
      rng_(params.seed),
      zipf_(NumChunks(params.address_space_sectors, params.chunk_sectors), params.zipf_theta,
            std::move(zipf_table)) {
  HIB_CHECK_GT(params_.address_space_sectors, 0) << "workload needs a positive address space";
  HIB_CHECK_GT(params_.peak_iops, 0.0) << "peak_iops must be positive";
  HIB_CHECK_GE(params_.trough_iops, 0.0) << "trough_iops must be non-negative";
}

double OltpWorkload::RateAt(SimTime t) const {
  double rate = params_.trough_iops +
                (params_.peak_iops - params_.trough_iops) * DiurnalShape(t + params_.phase_ms);
  if (t >= params_.surge_start_ms && t < params_.surge_end_ms) {
    rate *= params_.surge_factor;
  }
  return rate;
}

bool OltpWorkload::Next(TraceRecord* out) {
  if (now_ >= params_.duration_ms) {
    return false;
  }
  double rate = std::max(1e-6, RateAt(now_));  // arrivals per second
  now_ += Seconds(rng_.NextExponential(1.0 / rate));
  if (now_ >= params_.duration_ms) {
    return false;
  }
  std::int64_t num_chunks = zipf_.n();
  std::int64_t chunk = ScrambleRank(zipf_.Next(rng_), num_chunks);
  SectorCount count =
      rng_.NextDouble() < params_.large_fraction ? params_.large_sectors : params_.small_sectors;
  SectorCount slots = std::max<SectorCount>(1, params_.chunk_sectors / count);
  SectorAddr lba = chunk * params_.chunk_sectors + rng_.NextInRange(0, slots - 1) * count;
  lba = std::min(lba, params_.address_space_sectors - count);
  out->time = now_;
  out->lba = lba;
  out->count = count;
  out->is_write = rng_.NextDouble() >= params_.read_fraction;
  out->stream = 0;
  return true;
}

void OltpWorkload::Reset() {
  rng_ = Pcg32(params_.seed);
  now_ = SimTime{};
}

// --------------------------------------------------------------- Cello -----

CelloWorkload::CelloWorkload(CelloWorkloadParams params,
                             std::shared_ptr<const ZipfTable> zipf_table)
    : params_(params),
      rng_(params.seed),
      zipf_(NumChunks(params.address_space_sectors, params.chunk_sectors), params.zipf_theta,
            std::move(zipf_table)) {
  HIB_CHECK_GT(params_.address_space_sectors, 0) << "workload needs a positive address space";
  HIB_CHECK_GT(params_.peak_iops, 0.0) << "peak_iops must be positive";
  HIB_CHECK_GE(params_.trough_iops, 0.0) << "trough_iops must be non-negative";
}

double CelloWorkload::RateAt(SimTime t) const {
  double s = DiurnalShape(t + params_.phase_ms);
  // Cubing sharpens the valleys: nights sit near the trough for hours.
  return params_.trough_iops + (params_.peak_iops - params_.trough_iops) * s * s * s;
}

void CelloWorkload::StartBurst() {
  double pareto_min = params_.mean_burst_size * (params_.burst_alpha - 1.0) / params_.burst_alpha;
  double size = rng_.NextPareto(params_.burst_alpha, std::max(1.0, pareto_min));
  burst_remaining_ = static_cast<int>(std::min(size, 200.0));
  if (burst_remaining_ < 1) {
    burst_remaining_ = 1;
  }
  burst_sequential_ = rng_.NextDouble() < params_.sequential_fraction;
  burst_is_write_ = rng_.NextDouble() >= params_.read_fraction;
  std::int64_t num_chunks = zipf_.n();
  std::int64_t chunk = ScrambleRank(zipf_.Next(rng_), num_chunks);
  SectorCount slots = std::max<SectorCount>(1, params_.chunk_sectors / params_.io_sectors);
  burst_next_lba_ =
      chunk * params_.chunk_sectors + rng_.NextInRange(0, slots - 1) * params_.io_sectors;
}

bool CelloWorkload::Next(TraceRecord* out) {
  if (now_ >= params_.duration_ms) {
    return false;
  }
  if (burst_remaining_ == 0) {
    // Gap to the next burst: burst arrivals form a (slowly modulated) Poisson
    // process with rate = request_rate / mean_burst_size.
    double rate = std::max(1e-6, RateAt(now_) / params_.mean_burst_size);
    now_ += Seconds(rng_.NextExponential(1.0 / rate));
    if (now_ >= params_.duration_ms) {
      return false;
    }
    StartBurst();
  } else {
    now_ += Ms(rng_.NextExponential(params_.intra_burst_gap_ms.value()));
    if (now_ >= params_.duration_ms) {
      return false;
    }
  }
  --burst_remaining_;

  SectorAddr lba;
  if (burst_sequential_) {
    lba = burst_next_lba_;
    burst_next_lba_ += params_.io_sectors;
    if (burst_next_lba_ + params_.io_sectors > params_.address_space_sectors) {
      burst_next_lba_ = 0;
    }
  } else {
    std::int64_t chunk = ScrambleRank(zipf_.Next(rng_), zipf_.n());
    SectorCount slots = std::max<SectorCount>(1, params_.chunk_sectors / params_.io_sectors);
    lba = chunk * params_.chunk_sectors + rng_.NextInRange(0, slots - 1) * params_.io_sectors;
  }
  lba = std::min(lba, params_.address_space_sectors - params_.io_sectors);
  out->time = now_;
  out->lba = lba;
  out->count = params_.io_sectors;
  out->is_write = burst_is_write_;
  out->stream = 1;
  return true;
}

void CelloWorkload::Reset() {
  rng_ = Pcg32(params_.seed);
  now_ = SimTime{};
  burst_remaining_ = 0;
  burst_sequential_ = false;
  burst_next_lba_ = 0;
  burst_is_write_ = false;
}

// ------------------------------------------------------------ Constant -----

ConstantWorkload::ConstantWorkload(ConstantWorkloadParams params)
    : params_(params), rng_(params.seed) {
  HIB_CHECK_GT(params_.address_space_sectors, 0) << "workload needs a positive address space";
  HIB_CHECK_GT(params_.iops, 0.0) << "iops must be positive";
}

bool ConstantWorkload::Next(TraceRecord* out) {
  now_ += Seconds(rng_.NextExponential(1.0 / params_.iops));
  if (now_ >= params_.duration_ms) {
    return false;
  }
  SectorCount count = params_.io_sectors;
  SectorAddr max_lba = params_.address_space_sectors - count;
  out->time = now_;
  out->lba = rng_.NextInRange(0, max_lba / count) * count;
  out->lba = std::min(out->lba, max_lba);
  out->count = count;
  out->is_write = rng_.NextDouble() >= params_.read_fraction;
  out->stream = 2;
  return true;
}

void ConstantWorkload::Reset() {
  rng_ = Pcg32(params_.seed);
  now_ = SimTime{};
}

}  // namespace hib

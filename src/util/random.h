// Deterministic random number generation for the simulator.
//
// Every source of randomness in the system derives from a seeded Pcg32 so that
// simulation runs are exactly reproducible.  The distributions implemented here
// (Zipf, exponential, Pareto) are the ones the workload generators need.
#ifndef HIBERNATOR_SRC_UTIL_RANDOM_H_
#define HIBERNATOR_SRC_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace hib {

// PCG-XSH-RR 64/32: small, fast, statistically strong, fully deterministic.
class Pcg32 {
 public:
  explicit Pcg32(std::uint64_t seed, std::uint64_t stream = 0xda3e39cb94b95bdbULL);

  // Uniform 32-bit value.
  std::uint32_t Next();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform integer in [0, bound) without modulo bias.
  std::uint32_t NextBounded(std::uint32_t bound);

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t NextInRange(std::int64_t lo, std::int64_t hi);

  // Exponentially distributed value with the given mean (> 0).
  double NextExponential(double mean);

  // Pareto-distributed value with shape `alpha` and scale `x_min`.
  double NextPareto(double alpha, double x_min);

  // Normally distributed value (Box-Muller).
  double NextGaussian(double mean, double stddev);

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

// Normalised Zipf(theta) CDF over ranks {0, ..., n-1}, plus a guide that
// narrows every inverse-CDF search to one bucket.  Immutable once built, so
// one table can back every generator that shares (n, theta): a fleet builds
// one before RunAll and every shard reads it.
class ZipfTable {
 public:
  // A RangeRunner calls `body` on disjoint [begin, end) slices that tile
  // [0, n), in any order and on any threads.
  using RangeBody = std::function<void(std::int64_t begin, std::int64_t end)>;
  using RangeRunner = std::function<void(std::int64_t n, const RangeBody& body)>;

  // Guide resolution: the top kGuideBits bits of u pick the bucket.
  static constexpr int kGuideBits = 16;
  static constexpr std::size_t kGuideBuckets = std::size_t{1} << kGuideBits;

  // `n` ranks (at least 1, and below 2^32: the guide stores uint32 ranks).
  // Fills the 1/(i+1)^theta terms through `for_ranges` (on this thread when
  // empty); the prefix sum, normalisation and guide are one serial pass in
  // rank order, so the table is bit-identical for any split.
  ZipfTable(std::int64_t n, double theta, const RangeRunner& for_ranges = {});

  // The first rank whose CDF is >= u, for u in [0, 1): a binary search of
  // [guide[k], guide[k + 1]], k = floor(u * 2^kGuideBits).
  std::int64_t Rank(double u) const {
    auto k = static_cast<std::size_t>(u * static_cast<double>(kGuideBuckets));
    std::uint32_t lo = guide_[k];
    std::uint32_t hi = guide_[k + 1];
    while (lo < hi) {
      std::uint32_t mid = lo + (hi - lo) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  std::int64_t n() const { return static_cast<std::int64_t>(cdf_.size()); }
  double theta() const { return theta_; }
  // cdf()[i] = P(rank <= i).
  const std::vector<double>& cdf() const { return cdf_; }
  // guide()[k] = the first rank with CDF >= k * 2^-kGuideBits, for k in
  // [0, kGuideBuckets].
  const std::vector<std::uint32_t>& guide() const { return guide_; }

 private:
  double theta_;
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;
};

// Samples ranks from a Zipf(theta) distribution over {0, ..., n-1}; rank 0 is
// the most popular.  Up to kMaxTableSize ranks it inverts a ZipfTable (O(n)
// setup, O(log bucket) per sample, exact distribution); above that it
// inverts the continuous approximation analytically.
class ZipfGenerator {
 public:
  static constexpr std::int64_t kMaxTableSize = std::int64_t{1} << 22;

  // `n` items, skew `theta` in (0, ~1.2]; theta -> 0 degenerates to uniform.
  // A non-null `table` (built for exactly this n and theta) is shared
  // instead of building one.
  ZipfGenerator(std::int64_t n, double theta, std::shared_ptr<const ZipfTable> table = nullptr);

  // Draws one rank in [0, n).
  std::int64_t Next(Pcg32& rng) const;

  std::int64_t n() const { return n_; }
  double theta() const { return theta_; }
  // The table draws invert; null above kMaxTableSize.
  const ZipfTable* table() const { return table_.get(); }

  // Fraction of total probability mass held by the first `k` ranks.
  double MassOfTop(std::int64_t k) const;

 private:
  std::int64_t n_;
  double theta_;
  std::shared_ptr<const ZipfTable> table_;
  double harmonic_ = 0.0;  // analytic path: approximate H_{n,theta}
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_UTIL_RANDOM_H_

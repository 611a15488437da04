// Streaming statistics used by the simulator's metering and the policies'
// online load estimation.
#ifndef HIBERNATOR_SRC_UTIL_STATS_H_
#define HIBERNATOR_SRC_UTIL_STATS_H_

#include <cstdint>
#include <vector>

#include "src/util/units.h"

namespace hib {

// Welford-style running mean/variance with min/max.
class RunningStats {
 public:
  void Add(double x);
  // Quantities unwrap at the stats boundary; samples are recorded in the
  // quantity's canonical unit (ms / W / J).
  template <int P, int T, int A>
  void Add(Quantity<P, T, A> q) {
    Add(q.value());
  }
  void Reset();
  // Merges another accumulator into this one.
  void Merge(const RunningStats& other);

  std::int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return count_ > 0 ? mean_ * static_cast<double>(count_) : 0.0; }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Fixed-size uniform reservoir for percentile estimation (Vitter's algorithm R).
class PercentileReservoir {
 public:
  explicit PercentileReservoir(std::size_t capacity = 16384, std::uint64_t seed = 1);

  void Add(double x);
  template <int P, int T, int A>
  void Add(Quantity<P, T, A> q) {
    Add(q.value());
  }
  void Reset();

  // Returns the p-th percentile (p in [0, 100]) of the sampled values;
  // 0 when empty.  Not const: each query selects its order statistics in
  // O(n) with std::nth_element, which reorders the samples.
  double Percentile(double p);

  std::int64_t count() const { return count_; }

 private:
  std::size_t capacity_;
  std::vector<double> samples_;
  std::int64_t count_ = 0;
  std::uint64_t rng_state_;

  std::uint64_t NextRand();
};

// Exponentially weighted moving average with a configurable smoothing factor.
class Ewma {
 public:
  explicit Ewma(double alpha = 0.3) : alpha_(alpha) {}

  void Add(double x);
  template <int P, int T, int A>
  void Add(Quantity<P, T, A> q) {
    Add(q.value());
  }
  void Reset();
  double current() const { return value_; }
  bool empty() const { return !initialized_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_UTIL_STATS_H_

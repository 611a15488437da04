#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

namespace hib {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Reset() { *this = RunningStats(); }

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  double na = static_cast<double>(count_);
  double nb = static_cast<double>(other.count_);
  double delta = other.mean_ - mean_;
  double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

PercentileReservoir::PercentileReservoir(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity == 0 ? 1 : capacity), rng_state_(seed | 1) {
  samples_.reserve(capacity_);
}

std::uint64_t PercentileReservoir::NextRand() {
  // xorshift64*
  rng_state_ ^= rng_state_ >> 12;
  rng_state_ ^= rng_state_ << 25;
  rng_state_ ^= rng_state_ >> 27;
  return rng_state_ * 2685821657736338717ULL;
}

void PercentileReservoir::Add(double x) {
  ++count_;
  if (samples_.size() < capacity_) {
    samples_.push_back(x);
    return;
  }
  std::uint64_t j = NextRand() % static_cast<std::uint64_t>(count_);
  if (j < capacity_) {
    samples_[static_cast<std::size_t>(j)] = x;
  }
}

void PercentileReservoir::Reset() {
  samples_.clear();
  count_ = 0;
}

double PercentileReservoir::Percentile(double p) {
  if (samples_.empty()) {
    return 0.0;
  }
  double rank = (p / 100.0) * static_cast<double>(samples_.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  double frac = rank - static_cast<double>(lo);
  auto lo_it = samples_.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(samples_.begin(), lo_it, samples_.end());
  double lo_value = *lo_it;
  double hi_value = hi > lo ? *std::min_element(lo_it + 1, samples_.end()) : lo_value;
  return lo_value * (1.0 - frac) + hi_value * frac;
}

void Ewma::Add(double x) {
  if (!initialized_) {
    value_ = x;
    initialized_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
}

void Ewma::Reset() {
  value_ = 0.0;
  initialized_ = false;
}

}  // namespace hib

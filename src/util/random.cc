#include "src/util/random.h"

#include <cmath>
#include <cstdlib>
#include <utility>

#include "src/util/check.h"

namespace hib {

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream) : state_(0), inc_((stream << 1u) | 1u) {
  Next();
  state_ += seed;
  Next();
}

std::uint32_t Pcg32::Next() {
  std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  std::uint32_t xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

double Pcg32::NextDouble() {
  // 32 random bits -> [0, 1) with 2^-32 resolution; plenty for simulation.
  return static_cast<double>(Next()) * (1.0 / 4294967296.0);
}

std::uint32_t Pcg32::NextBounded(std::uint32_t bound) {
  if (bound == 0) {
    return 0;
  }
  // Lemire-style rejection to remove modulo bias.
  std::uint32_t threshold = static_cast<std::uint32_t>(-bound) % bound;
  for (;;) {
    std::uint32_t r = Next();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

std::int64_t Pcg32::NextInRange(std::int64_t lo, std::int64_t hi) {
  if (hi <= lo) {
    return lo;
  }
  std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Compose two 32-bit draws for 64-bit spans.
  std::uint64_t r = (static_cast<std::uint64_t>(Next()) << 32) | Next();
  return lo + static_cast<std::int64_t>(r % span);
}

double Pcg32::NextExponential(double mean) {
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Pcg32::NextPareto(double alpha, double x_min) {
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return x_min / std::pow(u, 1.0 / alpha);
}

ZipfTable::ZipfTable(std::int64_t n, double theta, const RangeRunner& for_ranges)
    : theta_(theta),
      cdf_(static_cast<std::size_t>(n < 1 ? 1 : n)),
      guide_(kGuideBuckets + 1) {
  RangeBody fill_terms = [this](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) {
      cdf_[static_cast<std::size_t>(i)] = 1.0 / std::pow(static_cast<double>(i + 1), theta_);
    }
  };
  std::int64_t size = this->n();
  if (for_ranges) {
    for_ranges(size, fill_terms);
  } else {
    fill_terms(0, size);
  }
  double sum = 0.0;
  for (double& v : cdf_) {
    sum += v;
    v = sum;
  }
  // Normalise and fill the guide in one walk: the CDF is non-decreasing, so
  // bucket edge k is crossed at the first rank whose CDF reaches it.  The
  // last entry is sum / sum == 1.0 exactly, so every edge k * 2^-16 <= 1 is
  // reached and the walk fills the whole guide.
  constexpr double kEdgeStep = 1.0 / static_cast<double>(kGuideBuckets);
  std::size_t k = 0;
  for (std::size_t i = 0; i < cdf_.size(); ++i) {
    cdf_[i] /= sum;
    while (k <= kGuideBuckets && cdf_[i] >= static_cast<double>(k) * kEdgeStep) {
      guide_[k++] = static_cast<std::uint32_t>(i);
    }
  }
}

ZipfGenerator::ZipfGenerator(std::int64_t n, double theta, std::shared_ptr<const ZipfTable> table)
    : n_(n < 1 ? 1 : n), theta_(theta), table_(std::move(table)) {
  if (table_) {
    HIB_CHECK_EQ(table_->n(), n_) << "shared Zipf table built for another rank count";
    HIB_CHECK_EQ(table_->theta(), theta_) << "shared Zipf table built for another theta";
  } else if (n_ <= kMaxTableSize) {
    table_ = std::make_shared<const ZipfTable>(n_, theta_);
  } else {
    // Approximate H_{n,theta} by the integral; only used for enormous spaces
    // where per-rank exactness is irrelevant.
    double nd = static_cast<double>(n_);
    harmonic_ = theta_ == 1.0 ? std::log(nd) + 0.5772156649
                              : (std::pow(nd, 1.0 - theta_) - 1.0) / (1.0 - theta_) + 0.5772156649;
  }
}

std::int64_t ZipfGenerator::Next(Pcg32& rng) const {
  double u = rng.NextDouble();
  if (table_) {
    return table_->Rank(u);
  }
  // Analytic inverse of the continuous approximation.
  double target = u * harmonic_;
  double rank;
  if (theta_ == 1.0) {
    rank = std::exp(target) - 1.0;
  } else {
    rank = std::pow(target * (1.0 - theta_) + 1.0, 1.0 / (1.0 - theta_)) - 1.0;
  }
  auto r = static_cast<std::int64_t>(rank);
  if (r < 0) {
    r = 0;
  }
  if (r >= n_) {
    r = n_ - 1;
  }
  return r;
}

double ZipfGenerator::MassOfTop(std::int64_t k) const {
  if (k <= 0) {
    return 0.0;
  }
  if (k >= n_) {
    return 1.0;
  }
  if (table_) {
    return table_->cdf()[static_cast<std::size_t>(k - 1)];
  }
  double kd = static_cast<double>(k);
  double hk = theta_ == 1.0 ? std::log(kd) + 0.5772156649
                            : (std::pow(kd, 1.0 - theta_) - 1.0) / (1.0 - theta_) + 0.5772156649;
  return hk / harmonic_;
}

}  // namespace hib

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "src/harness/parallel.h"
#include "src/util/inplace_function.h"
#include "src/util/random.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/units.h"

namespace hib {
namespace {

// ------------------------------------------------------------- units -------

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(ToSeconds(Ms(1500.0)), 1.5);
  EXPECT_DOUBLE_EQ(Seconds(2.0).value(), 2000.0);
  EXPECT_DOUBLE_EQ(Hours(1.0).value(), 3600000.0);
  EXPECT_DOUBLE_EQ(Hours(0.5).value(), 1800000.0);
  EXPECT_DOUBLE_EQ(Minutes(2.0).value(), 120000.0);
  EXPECT_DOUBLE_EQ(PerSecond(500.0).value(), 0.5);
  EXPECT_DOUBLE_EQ(ToPerSecond(PerMs(0.5)), 500.0);
}

TEST(Units, EnergyOfIsPowerTimesSeconds) {
  EXPECT_DOUBLE_EQ(EnergyOf(Watts(10.0), Seconds(1.0)).value(), 10.0);
  EXPECT_DOUBLE_EQ(EnergyOf(Watts(0.0), Ms(123456.0)).value(), 0.0);
  EXPECT_DOUBLE_EQ(EnergyOf(Watts(13.5), Hours(1.0)).value(), 13.5 * 3600.0);
}

TEST(Units, DimensionalArithmetic) {
  // Energy / time and energy / power round-trip.
  EXPECT_DOUBLE_EQ((Joules(20.0) / Seconds(2.0)).value(), 10.0);
  EXPECT_DOUBLE_EQ((Joules(20.0) / Watts(10.0)).value(), Seconds(2.0).value());
  // Rho = lambda * service time is a plain double.
  double rho = PerSecond(100.0) * Ms(5.0);
  EXPECT_DOUBLE_EQ(rho, 0.5);
  // One revolution at 6000 RPM takes 10 ms.
  EXPECT_DOUBLE_EQ((Rev(1.0) / Rpm(6000.0)).value(), 10.0);
  // count / Duration -> Frequency.
  Frequency f = 10.0 / Ms(20.0);
  EXPECT_DOUBLE_EQ(ToPerSecond(f), 500.0);
  // Same-dimension comparisons and accumulation.
  Duration d = Ms(1.0);
  d += Seconds(1.0);
  EXPECT_EQ(d, Ms(1001.0));
  EXPECT_LT(Ms(999.0), Seconds(1.0));
}

TEST(Units, ZeroOverheadRepresentation) {
  static_assert(sizeof(Duration) == sizeof(double));
  static_assert(sizeof(Joules) == sizeof(double));
  static_assert(std::is_trivially_copyable_v<Watts>);
  EXPECT_EQ(std::numeric_limits<SimTime>::infinity().value(),
            std::numeric_limits<double>::infinity());
  EXPECT_TRUE(IsFinite(Ms(1.0)));
  EXPECT_FALSE(IsFinite(std::numeric_limits<Duration>::infinity()));
  EXPECT_EQ(Abs(Ms(-3.0)), Ms(3.0));
}

// -------------------------------------------------------------- Pcg32 ------

TEST(Pcg32, DeterministicForSameSeed) {
  Pcg32 a(42);
  Pcg32 b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Pcg32, DifferentSeedsDiffer) {
  Pcg32 a(1);
  Pcg32 b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(Pcg32, NextDoubleInUnitInterval) {
  Pcg32 rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Pcg32, NextBoundedRespectsBound) {
  Pcg32 rng(9);
  for (std::uint32_t bound : {1u, 2u, 7u, 100u, 1000000u}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(Pcg32, NextBoundedZeroIsZero) {
  Pcg32 rng(9);
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(Pcg32, NextBoundedCoversRange) {
  Pcg32 rng(11);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) {
    ++seen[rng.NextBounded(10)];
  }
  for (int count : seen) {
    EXPECT_GT(count, 700);  // roughly uniform
    EXPECT_LT(count, 1300);
  }
}

TEST(Pcg32, NextInRangeInclusive) {
  Pcg32 rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    std::int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Pcg32, NextInRangeDegenerate) {
  Pcg32 rng(13);
  EXPECT_EQ(rng.NextInRange(5, 5), 5);
  EXPECT_EQ(rng.NextInRange(5, 4), 5);
}

TEST(Pcg32, ExponentialHasRequestedMean) {
  Pcg32 rng(17);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    double x = rng.NextExponential(10.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kN, 10.0, 0.2);
}

TEST(Pcg32, ParetoRespectsMinimumAndMean) {
  Pcg32 rng(19);
  double alpha = 3.0;
  double x_min = 2.0;
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    double x = rng.NextPareto(alpha, x_min);
    EXPECT_GE(x, x_min);
    sum += x;
  }
  // E[X] = alpha x_min / (alpha - 1) = 3.
  EXPECT_NEAR(sum / kN, 3.0, 0.1);
}

// ------------------------------------------------------------- Zipf --------

TEST(Zipf, RankZeroMostPopular) {
  ZipfGenerator zipf(100, 0.9);
  Pcg32 rng(1);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[zipf.Next(rng)];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[50]);
  EXPECT_GT(counts[10], counts[90]);
}

TEST(Zipf, AllRanksInRange) {
  ZipfGenerator zipf(17, 1.0);
  Pcg32 rng(2);
  for (int i = 0; i < 10000; ++i) {
    std::int64_t r = zipf.Next(rng);
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 17);
  }
}

TEST(Zipf, MassOfTopMonotoneAndBounded) {
  ZipfGenerator zipf(1000, 0.86);
  double prev = 0.0;
  for (std::int64_t k : {1, 10, 100, 500, 1000}) {
    double mass = zipf.MassOfTop(k);
    EXPECT_GT(mass, prev);
    EXPECT_LE(mass, 1.0);
    prev = mass;
  }
  EXPECT_DOUBLE_EQ(zipf.MassOfTop(1000), 1.0);
  EXPECT_DOUBLE_EQ(zipf.MassOfTop(0), 0.0);
}

TEST(Zipf, HighThetaIsMoreSkewed) {
  ZipfGenerator mild(1000, 0.5);
  ZipfGenerator sharp(1000, 1.1);
  EXPECT_LT(mild.MassOfTop(10), sharp.MassOfTop(10));
}

TEST(Zipf, EmpiricalMassMatchesAnalytic) {
  ZipfGenerator zipf(200, 0.86);
  Pcg32 rng(3);
  constexpr int kN = 200000;
  int top20 = 0;
  for (int i = 0; i < kN; ++i) {
    if (zipf.Next(rng) < 20) {
      ++top20;
    }
  }
  EXPECT_NEAR(static_cast<double>(top20) / kN, zipf.MassOfTop(20), 0.01);
}

TEST(Zipf, SingleItemDegenerates) {
  ZipfGenerator zipf(1, 0.9);
  Pcg32 rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zipf.Next(rng), 0);
  }
}

TEST(ZipfGeneratorDeathTest, RejectsATableForAnotherShape) {
  auto table = std::make_shared<const ZipfTable>(100, 0.86);
  EXPECT_DEATH(ZipfGenerator(101, 0.86, table), "another rank count");
  EXPECT_DEATH(ZipfGenerator(100, 0.9, table), "another theta");
}

// ---------------------------------------------------------- ZipfTable ------

// The reference: the first rank whose CDF is >= u, by a search of the whole
// table (clamped to n - 1).
std::int64_t FullSearchRank(const ZipfTable& table, double u) {
  const std::vector<double>& cdf = table.cdf();
  auto rank = std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
  return std::min<std::int64_t>(rank, table.n() - 1);
}

TEST(ZipfTable, GuidedRankMatchesFullSearch) {
  struct Shape {
    std::int64_t n;
    double theta;
  };
  const Shape kShapes[] = {{1, 0.9},       {2, 0.86},      {1000, 1e-9},
                           {424968, 0.86}, {254981, 1.05}, {std::int64_t{1} << 22, 1.2}};
  for (const Shape& shape : kShapes) {
    ZipfTable table(shape.n, shape.theta);
    Pcg32 rng(static_cast<std::uint64_t>(shape.n));
    for (int i = 0; i < 1000000; ++i) {
      double u = rng.NextDouble();
      ASSERT_EQ(table.Rank(u), FullSearchRank(table, u)) << "n " << shape.n << " u " << u;
    }
    // Every bucket edge k * 2^-16 in [0, 1), and the double just below each.
    constexpr auto kBuckets = static_cast<double>(ZipfTable::kGuideBuckets);
    for (std::size_t k = 0; k <= ZipfTable::kGuideBuckets; ++k) {
      double edge = static_cast<double>(k) / kBuckets;
      if (k < ZipfTable::kGuideBuckets) {
        ASSERT_EQ(table.Rank(edge), FullSearchRank(table, edge)) << "n " << shape.n << " k " << k;
      }
      if (k > 0) {
        double below = std::nextafter(edge, 0.0);
        ASSERT_EQ(table.Rank(below), FullSearchRank(table, below))
            << "n " << shape.n << " below k " << k;
      }
    }
  }
}

TEST(ZipfTable, ParallelFillMatchesSerial) {
  constexpr std::int64_t kN = 100003;  // prime: no thread count divides it
  ZipfTable serial(kN, 0.86);
  for (int threads : {1, 3, 4}) {
    ZipfTable filled(kN, 0.86, [threads](std::int64_t n, const ZipfTable::RangeBody& body) {
      ParallelFor(n, threads, body);
    });
    // Exact, not approximate: only the terms are filled in parallel.
    EXPECT_EQ(filled.cdf(), serial.cdf()) << threads << " threads";
    EXPECT_EQ(filled.guide(), serial.guide()) << threads << " threads";
  }
}

TEST(ZipfTable, SharedTableDrawsLikeAnOwnedOne) {
  auto table = std::make_shared<const ZipfTable>(5000, 0.86);
  ZipfGenerator shared(5000, 0.86, table);
  ZipfGenerator owned(5000, 0.86);
  EXPECT_EQ(shared.table(), table.get());
  EXPECT_NE(owned.table(), table.get());
  Pcg32 a(11);
  Pcg32 b(11);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(shared.Next(a), owned.Next(b));
  }
}

// ------------------------------------------------------- RunningStats ------

TEST(RunningStats, MatchesDirectComputation) {
  std::vector<double> xs = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  RunningStats stats;
  for (double x : xs) {
    stats.Add(x);
  }
  double mean = 0.0;
  for (double x : xs) {
    mean += x;
  }
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) {
    var += (x - mean) * (x - mean);
  }
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_DOUBLE_EQ(stats.mean(), mean);
  EXPECT_NEAR(stats.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_EQ(stats.count(), 8);
  EXPECT_NEAR(stats.sum(), 31.0, 1e-9);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 0.0);
}

TEST(RunningStats, MergeEqualsCombined) {
  Pcg32 rng(5);
  RunningStats a, b, all;
  for (int i = 0; i < 1000; ++i) {
    double x = rng.NextDouble() * 100.0;
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.Add(1.0);
  a.Add(2.0);
  RunningStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 2);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(RunningStats, ResetClears) {
  RunningStats stats;
  stats.Add(10.0);
  stats.Reset();
  EXPECT_EQ(stats.count(), 0);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
}

// -------------------------------------------------- PercentileReservoir ----

TEST(PercentileReservoir, ExactOnSmallSamples) {
  PercentileReservoir res(100);
  for (int i = 1; i <= 99; ++i) {
    res.Add(static_cast<double>(i));
  }
  EXPECT_NEAR(res.Percentile(50.0), 50.0, 1.0);
  EXPECT_NEAR(res.Percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(res.Percentile(100.0), 99.0, 1e-9);
  EXPECT_NEAR(res.Percentile(95.0), 95.0, 1.5);
}

TEST(PercentileReservoir, EmptyReturnsZero) {
  PercentileReservoir res(10);
  EXPECT_DOUBLE_EQ(res.Percentile(50.0), 0.0);
}

TEST(PercentileReservoir, SamplesLargeStream) {
  PercentileReservoir res(4096, 99);
  Pcg32 rng(6);
  for (int i = 0; i < 200000; ++i) {
    res.Add(rng.NextDouble());  // uniform [0,1)
  }
  EXPECT_EQ(res.count(), 200000);
  EXPECT_NEAR(res.Percentile(50.0), 0.5, 0.05);
  EXPECT_NEAR(res.Percentile(90.0), 0.9, 0.05);
}

TEST(PercentileReservoir, AddAfterPercentileStillWorks) {
  PercentileReservoir res(16);
  res.Add(1.0);
  EXPECT_DOUBLE_EQ(res.Percentile(50.0), 1.0);
  res.Add(3.0);
  EXPECT_NEAR(res.Percentile(100.0), 3.0, 1e-9);
}

// Pin: every query selects over the samples the previous query reordered,
// so repeated queries must return bit-identical percentiles, all matching a
// plain sorted-vector interpolation.
TEST(PercentileReservoir, SelectAndSortPathsAgreeExactly) {
  for (double p : {50.0, 95.0, 99.0}) {
    PercentileReservoir res(512);
    Pcg32 rng(77);
    std::vector<double> values;
    for (int i = 0; i < 500; ++i) {
      double v = rng.NextDouble() * 100.0;
      values.push_back(v);
      res.Add(v);
    }
    std::sort(values.begin(), values.end());
    double rank = (p / 100.0) * static_cast<double>(values.size() - 1);
    auto lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = rank - static_cast<double>(lo);
    double expected = values[lo] * (1.0 - frac) + values[hi] * frac;
    double first = res.Percentile(p);
    double second = res.Percentile(p);
    double third = res.Percentile(p);
    double fourth = res.Percentile(p);
    EXPECT_DOUBLE_EQ(first, expected) << "p" << p;
    EXPECT_DOUBLE_EQ(second, first) << "p" << p;
    EXPECT_DOUBLE_EQ(third, first) << "p" << p;
    EXPECT_DOUBLE_EQ(fourth, first) << "p" << p;
  }
}

// --------------------------------------------------- InplaceFunction -------

TEST(InplaceFunction, InvokesCapturedLambda) {
  int x = 0;
  InplaceFunction<void(), 32> f([&x] { x = 42; });
  ASSERT_TRUE(static_cast<bool>(f));
  f();
  EXPECT_EQ(x, 42);
}

TEST(InplaceFunction, ReturnsValuesAndTakesArguments) {
  InplaceFunction<int(int, int), 16> add([](int a, int b) { return a + b; });
  EXPECT_EQ(add(2, 3), 5);
}

TEST(InplaceFunction, MoveTransfersOwnership) {
  int calls = 0;
  InplaceFunction<void(), 32> a([&calls] { ++calls; });
  InplaceFunction<void(), 32> b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(calls, 1);
  InplaceFunction<void(), 32> c;
  c = std::move(b);
  c();
  EXPECT_EQ(calls, 2);
}

TEST(InplaceFunction, EmplaceReplacesExistingCallable) {
  int which = 0;
  InplaceFunction<void(), 32> f([&which] { which = 1; });
  f.Emplace([&which] { which = 2; });
  f();
  EXPECT_EQ(which, 2);
}

TEST(InplaceFunction, NonTrivialCaptureIsDestroyed) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    InplaceFunction<int(), 32> f([token] { return *token; });
    token.reset();
    EXPECT_FALSE(watch.expired());  // alive inside the function
    EXPECT_EQ(f(), 7);
    // Moving must hand the capture over, not duplicate or leak it.
    InplaceFunction<int(), 32> g(std::move(f));
    EXPECT_EQ(g(), 7);
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());  // destroyed with the function
}

TEST(InplaceFunction, NullptrClearsAndBoolReflectsIt) {
  InplaceFunction<void(), 16> f([] {});
  EXPECT_TRUE(static_cast<bool>(f));
  f = nullptr;
  EXPECT_FALSE(static_cast<bool>(f));
  InplaceFunction<void(), 16> empty;
  EXPECT_FALSE(static_cast<bool>(empty));
}

// --------------------------------------------------------------- Ewma ------

TEST(Ewma, FirstValueInitializes) {
  Ewma e(0.5);
  EXPECT_TRUE(e.empty());
  e.Add(10.0);
  EXPECT_DOUBLE_EQ(e.current(), 10.0);
  EXPECT_FALSE(e.empty());
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e(0.3);
  for (int i = 0; i < 100; ++i) {
    e.Add(7.0);
  }
  EXPECT_NEAR(e.current(), 7.0, 1e-9);
}

TEST(Ewma, SmoothingFactorApplied) {
  Ewma e(0.5);
  e.Add(0.0);
  e.Add(10.0);
  EXPECT_DOUBLE_EQ(e.current(), 5.0);
}

// -------------------------------------------------------------- Table ------

TEST(Table, RendersAlignedHeadersAndRows) {
  Table t({"name", "value"});
  t.NewRow().Add("alpha").Add(1.5, 1);
  t.NewRow().Add("b").Add(std::int64_t{42});
  std::string s = t.ToString();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.NewRow().Add("x").Add(2);
  EXPECT_EQ(t.ToCsv(), "a,b\nx,2\n");
}

TEST(Table, PercentCell) {
  Table t({"p"});
  t.NewRow().AddPercent(0.423, 1);
  EXPECT_NE(t.ToString().find("42.3%"), std::string::npos);
}

TEST(Table, FormatDoublePrecision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

}  // namespace
}  // namespace hib

// Oracles: what the simulator's summary statistics should read, computed
// independently of the stores that report them.
//
// The percentile and mean oracle replays the oltp-day shape (the OLTP array
// under Hibernator at a 20 ms goal, 2.5 h of OLTP from midnight at 300/90
// IOPS, default seeds), collects every response through the array's
// completion hook, and checks the three response stores against exact
// figures: the reservoir's interpolated p95/p99, the obs histogram's bucket
// quantiles, and the Welford and cumulative means.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/schemes.h"
#include "src/trace/synthetic.h"

namespace hib {
namespace {

// The same interpolation PercentileReservoir::Percentile uses, over the
// whole sorted sample instead of a 16,384-sample reservoir.
double InterpolatedPercentile(const std::vector<double>& sorted, double p) {
  double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

TEST(ResponseOracle, OltpDayPercentilesAndMeans) {
  OltpSetup setup = MakeOltpSetup();
  SchemeConfig cfg;
  cfg.scheme = Scheme::kHibernator;
  cfg.goal_ms = Ms(20.0);
  ArrayParams array_params = ArrayFor(cfg, setup.array);
  OltpWorkloadParams wp;
  wp.address_space_sectors = array_params.DataSectors();
  wp.duration_ms = Hours(2.5);
  wp.peak_iops = setup.peak_iops;
  wp.trough_iops = setup.trough_iops;
  OltpWorkload workload(wp);
  std::unique_ptr<PowerPolicy> policy = MakePolicy(cfg);

  Simulator sim;
  ArrayController array(&sim, array_params);
  policy->Attach(&sim, &array);
  std::vector<double> responses;
  responses.reserve(1 << 20);
  array.set_completion_hook([&responses](const TraceRecord& /*rec*/, Duration response) {
    responses.push_back(response / Ms(1.0));
  });
  TraceInjector injector(&sim, &array, &workload);
  injector.Start();
  sim.RunUntil(wp.duration_ms + Seconds(30.0));

  ArrayStats& stats = array.stats();
  const LogLinearHistogram& hist = sim.obs().metrics.GetHistogram("array.response_ms");
  const auto n = static_cast<std::int64_t>(responses.size());
  ASSERT_GT(n, 800000);
  ASSERT_EQ(n, stats.total_responses);
  ASSERT_EQ(n, hist.count());

  // Means: the Welford mean and the cumulative sum against a long-double sum
  // taken in completion order.
  long double sum = 0.0L;
  for (double r : responses) {
    sum += static_cast<long double>(r);
  }
  const auto exact_mean = static_cast<double>(sum / static_cast<long double>(n));
  EXPECT_NEAR(stats.response_ms.mean(), exact_mean, 1e-12 * exact_mean);
  EXPECT_NEAR(stats.CumulativeMeanResponse() / Ms(1.0), exact_mean, 1e-12 * exact_mean);

  std::vector<double> sorted = responses;
  std::sort(sorted.begin(), sorted.end());
  for (double p : {95.0, 99.0}) {
    SCOPED_TRACE(p);
    // The reservoir samples 16,384 of the responses; its interpolated
    // percentile stays within 5% of the exact one.
    double exact = InterpolatedPercentile(sorted, p);
    EXPECT_NEAR(stats.response_pct.Percentile(p), exact, 0.05 * exact);

    // The histogram returns the lower bound of the bucket holding the
    // ceil(q * n)-th response.  With 8 linear sub-buckets per octave that
    // bound is less than 12.5% below the response itself.
    double q = p / 100.0;
    auto k = static_cast<std::int64_t>(std::ceil(q * static_cast<double>(n)));
    double kth = sorted[static_cast<std::size_t>(k - 1)];
    double quantile = hist.Quantile(q);
    EXPECT_EQ(quantile, hist.BucketLowerBound(hist.BucketIndex(kth)));
    EXPECT_LE(quantile, kth);
    EXPECT_GT(quantile, kth * (1.0 - 0.125));
  }
}

}  // namespace
}  // namespace hib

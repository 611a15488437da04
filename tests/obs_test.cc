// Observability layer tests: log-linear histogram bucket boundaries, metrics
// snapshot merging (including determinism across RunAll shard counts), the
// tracer ring buffer, and the trace/metrics JSON exporters.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/parallel.h"
#include "src/harness/schemes.h"
#include "src/hibernator/hibernator_policy.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/tracer.h"
#include "src/policy/maid.h"
#include "src/trace/synthetic.h"

namespace hib {
namespace {

// A snapshot counter's value, or -1 when the snapshot lacks it.
std::int64_t CounterOrMissing(const MetricsSnapshot& m, const std::string& name) {
  for (const auto& c : m.counters) {
    if (c.name == name) {
      return c.count;
    }
  }
  return -1;
}

// ------------------------------------------------ LogLinearHistogram -------

// Every bucket boundary must land in its own bucket, and the largest double
// strictly below it in the previous one.  This is only true because the
// boundaries are exact binary doubles (sub_buckets is a power of two); a
// decimal-stepped histogram would flake per-platform on exactly this test.
TEST(LogLinearHistogram, BucketBoundariesAreExact) {
  LogLinearHistogram h;
  const HistogramOptions& opt = h.options();
  for (int i = 1; i < opt.NumBuckets(); ++i) {
    double lower = h.BucketLowerBound(i);
    EXPECT_EQ(h.BucketIndex(lower), i) << "lower bound of bucket " << i << " (" << lower << ")";
    double below = std::nextafter(lower, 0.0);
    EXPECT_EQ(h.BucketIndex(below), i - 1)
        << "value just below bucket " << i << "'s lower bound (" << below << ")";
  }
}

TEST(LogLinearHistogram, UnderflowAndOverflow) {
  LogLinearHistogram h;
  const HistogramOptions& opt = h.options();
  EXPECT_EQ(h.BucketIndex(0.0), 0);
  EXPECT_EQ(h.BucketIndex(-5.0), 0);
  EXPECT_EQ(h.BucketIndex(std::nan("")), 0);
  EXPECT_EQ(h.BucketIndex(opt.min_bound / 2.0), 0);
  double top = std::ldexp(opt.min_bound, opt.octaves);
  EXPECT_EQ(h.BucketIndex(top), opt.NumBuckets() - 1);
  EXPECT_EQ(h.BucketIndex(top * 1e6), opt.NumBuckets() - 1);
}

TEST(LogLinearHistogram, RecordTracksMoments) {
  LogLinearHistogram h;
  for (double v : {4.0, 1.0, 16.0, 2.0}) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 23.0);
  EXPECT_DOUBLE_EQ(h.min_seen(), 1.0);
  EXPECT_DOUBLE_EQ(h.max_seen(), 16.0);
}

TEST(LogLinearHistogram, QuantileReturnsBucketLowerBounds) {
  LogLinearHistogram h;
  for (int i = 0; i < 100; ++i) {
    h.Record(1.0);  // 100 samples in one bucket
  }
  h.Record(1024.0);  // one outlier
  // p50 must be the bucket holding 1.0; p100 the outlier's bucket.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), h.BucketLowerBound(h.BucketIndex(1.0)));
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), h.BucketLowerBound(h.BucketIndex(1024.0)));
  // Quantiles are lower bounds, so p50 <= 1.0 < next boundary.
  EXPECT_LE(h.Quantile(0.5), 1.0);
}

TEST(LogLinearHistogram, EmptyQuantileIsZero) {
  LogLinearHistogram h;
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

// --------------------------------------------------- MetricsRegistry -------

TEST(MetricsRegistry, FindOrCreateReturnsStableInstruments) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("a");
  c.Add(2);
  reg.GetCounter("b").Add(10);  // map growth must not move `c`
  EXPECT_EQ(&reg.GetCounter("a"), &c);
  c.Add(3);
  EXPECT_EQ(reg.GetCounter("a").count(), 5);
}

TEST(MetricsRegistry, SnapshotSortedByName) {
  MetricsRegistry reg;
  reg.GetCounter("zeta").Add(1);
  reg.GetCounter("alpha").Add(2);
  reg.GetGauge("mid").Set(3.0);
  MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "zeta");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].current, 3.0);
}

TEST(MetricsRegistry, UnsetGaugesOmittedFromSnapshot) {
  MetricsRegistry reg;
  reg.GetGauge("never_set");
  EXPECT_TRUE(reg.Snapshot().gauges.empty());
}

TEST(MetricsSnapshot, MergeSemantics) {
  MetricsRegistry a;
  a.GetCounter("shared").Add(2);
  a.GetCounter("only_a").Add(7);
  a.GetGauge("g").Set(1.0);
  a.GetHistogram("h").Record(4.0);

  MetricsRegistry b;
  b.GetCounter("shared").Add(40);
  b.GetCounter("only_b").Add(9);
  b.GetGauge("g").Set(2.0);
  b.GetHistogram("h").Record(8.0);
  b.GetHistogram("h").Record(16.0);

  MetricsSnapshot merged = a.Snapshot();
  merged.MergeFrom(b.Snapshot());

  ASSERT_EQ(merged.counters.size(), 3u);
  EXPECT_EQ(merged.counters[0].name, "only_a");
  EXPECT_EQ(merged.counters[1].name, "only_b");
  EXPECT_EQ(merged.counters[2].name, "shared");
  EXPECT_EQ(merged.counters[2].count, 42);
  EXPECT_EQ(merged.gauges[0].current, 2.0);  // last merged wins
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].count, 3);
  EXPECT_DOUBLE_EQ(merged.histograms[0].sum, 28.0);
  EXPECT_DOUBLE_EQ(merged.histograms[0].min_seen, 4.0);
  EXPECT_DOUBLE_EQ(merged.histograms[0].max_seen, 16.0);
}

// Counter merge across RunAll shards must not depend on the thread count:
// each run is an isolated universe and MergeMetrics folds in spec order.
TEST(MergeMetrics, DeterministicAcrossShardCounts) {
  ArrayParams base;
  base.num_disks = 8;
  base.group_width = 4;
  base.disk = MakeUltrastar36Z15MultiSpeed(5);
  base.seed = 7;

  auto make_workload = [](const ArrayParams& array) -> std::unique_ptr<WorkloadSource> {
    ConstantWorkloadParams wp;
    wp.address_space_sectors = array.DataSectors();
    wp.duration_ms = Minutes(10.0);
    wp.iops = 40.0;
    wp.seed = 11;
    return std::make_unique<ConstantWorkload>(wp);
  };

  std::vector<ExperimentSpec> specs;
  for (Scheme scheme : {Scheme::kBase, Scheme::kTpm, Scheme::kDrpm}) {
    SchemeConfig cfg;
    cfg.scheme = scheme;
    cfg.goal_ms = Ms(30.0);
    cfg.epoch_ms = Minutes(5.0);
    specs.push_back(SpecForScheme(cfg, base, make_workload));
  }

  MetricsSnapshot sequential = MergeMetrics(RunAll(specs, 1));
  MetricsSnapshot threaded = MergeMetrics(RunAll(specs, 3));

  ASSERT_EQ(sequential.counters.size(), threaded.counters.size());
  for (std::size_t i = 0; i < sequential.counters.size(); ++i) {
    EXPECT_EQ(sequential.counters[i].name, threaded.counters[i].name);
    EXPECT_EQ(sequential.counters[i].count, threaded.counters[i].count)
        << "counter " << sequential.counters[i].name;
  }
  ASSERT_EQ(sequential.histograms.size(), threaded.histograms.size());
  for (std::size_t i = 0; i < sequential.histograms.size(); ++i) {
    EXPECT_EQ(sequential.histograms[i].name, threaded.histograms[i].name);
    EXPECT_EQ(sequential.histograms[i].count, threaded.histograms[i].count);
    EXPECT_EQ(sequential.histograms[i].sum, threaded.histograms[i].sum);
    EXPECT_EQ(sequential.histograms[i].buckets, threaded.histograms[i].buckets);
  }

  // The instrumentation actually fired: every scheme submitted requests.
  EXPECT_GT(CounterOrMissing(sequential, "array.reads"), 0);
}

// One store per statistic: each count in the end-of-run snapshot is its
// owner's own field, added once by FlushObs() or Finish().  Every scheme
// replays a short Cello stream that exercises spin-downs, RPM changes,
// migrations, boosts and MAID hits; the snapshot must agree with the result
// fields and the policy accessors.
TEST(MetricsRegistry, PublishedCountsMatchTheirOwners) {
  ArrayParams base;
  base.num_disks = 8;
  base.group_width = 4;
  base.disk = MakeUltrastar36Z15MultiSpeed(5);

  auto make_workload = [](const ArrayParams& array) -> std::unique_ptr<WorkloadSource> {
    CelloWorkloadParams wp;
    wp.address_space_sectors = array.DataSectors();
    wp.duration_ms = Hours(3.0);
    return std::make_unique<CelloWorkload>(wp);
  };

  std::vector<ExperimentSpec> specs;
  // Per spec: the counter values its policy reports through its accessors.
  std::vector<std::map<std::string, std::int64_t>> expected;
  for (Scheme scheme : {Scheme::kBase, Scheme::kTpm, Scheme::kTpmAdaptive, Scheme::kDrpm,
                        Scheme::kPdc, Scheme::kMaid, Scheme::kHibernator,
                        Scheme::kHibernatorNoMigration, Scheme::kHibernatorNoBoost,
                        Scheme::kHibernatorUtilThreshold}) {
    SchemeConfig cfg;
    cfg.scheme = scheme;
    cfg.goal_ms = Ms(20.0);
    cfg.epoch_ms = Hours(1.0);
    ExperimentSpec spec = SpecForScheme(cfg, base, make_workload);
    spec.post_run = [&expected, i = specs.size()](const PowerPolicy& policy,
                                                   const ExperimentResult&) {
      std::map<std::string, std::int64_t>& want = expected[i];
      if (const auto* maid = dynamic_cast<const MaidPolicy*>(&policy)) {
        want["policy.maid_cache_hits"] = maid->cache_hits();
        want["policy.maid_cache_misses"] = maid->cache_misses();
        want["policy.maid_copies_started"] = maid->copies_started();
      }
      if (const auto* hib = dynamic_cast<const HibernatorPolicy*>(&policy)) {
        want["hibernator.epochs"] = hib->epochs_completed();
        want["hibernator.boosts"] = hib->boosts();
        want["hibernator.migrations_requested"] = hib->migrations_requested();
      }
    };
    specs.push_back(std::move(spec));
  }
  expected.resize(specs.size());
  std::vector<ExperimentResult> results = RunAll(specs);

  std::map<std::string, std::int64_t> totals;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ExperimentResult& r = results[i];
    std::map<std::string, std::int64_t>& want = expected[i];
    want["disk.spin_ups"] = r.spin_ups;
    want["disk.spin_downs"] = r.spin_downs;
    want["disk.rpm_changes"] = r.rpm_changes;
    want["array.migrations"] = r.migrations;
    for (const auto& [name, value] : want) {
      EXPECT_EQ(CounterOrMissing(r.metrics, name), value) << specs[i].name << " " << name;
      totals[name] += value;
    }
    EXPECT_EQ(CounterOrMissing(r.metrics, "array.reads") +
                  CounterOrMissing(r.metrics, "array.writes"),
              r.requests)
        << specs[i].name;
  }
  // The run must exercise every published count, or the equalities are vacuous.
  for (const char* name : {"disk.spin_ups", "disk.spin_downs", "disk.rpm_changes",
                           "array.migrations", "policy.maid_cache_hits", "hibernator.boosts",
                           "hibernator.migrations_requested"}) {
    EXPECT_GT(totals[name], 0) << name;
  }
}

// --------------------------------------------------------- Tracer ----------

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t;
  t.Span(SpanKind::kService, 0, "io", Ms(0.0), Ms(1.0));
  t.Instant(SpanKind::kDecision, 0, "d", Ms(0.0));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.recorded(), 0u);
}

TEST(Tracer, RingBufferWrapsDroppingOldest) {
  Tracer t;
  t.Enable(8);
  for (int i = 0; i < 20; ++i) {
    t.Instant(SpanKind::kDecision, 0, "tick", Ms(static_cast<double>(i)), i);
  }
  EXPECT_EQ(t.capacity(), 8u);
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.recorded(), 20u);
  EXPECT_EQ(t.dropped(), 12u);
  std::vector<TraceEvent> events = t.Events();
  ASSERT_EQ(events.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].id, 12 + i) << "oldest-first order";
  }
}

TEST(Tracer, EventsBeforeWraparoundKeepInsertionOrder) {
  Tracer t;
  t.Enable(8);
  for (int i = 0; i < 3; ++i) {
    t.Instant(SpanKind::kDecision, 0, "tick", Ms(static_cast<double>(i)), i);
  }
  std::vector<TraceEvent> events = t.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].id, 0);
  EXPECT_EQ(events[2].id, 2);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Tracer, SpanStoresDuration) {
  Tracer t;
  t.Enable(4);
  t.Span(SpanKind::kService, 3, "read", Ms(10.0), Ms(12.5), 77, 1.0);
  std::vector<TraceEvent> events = t.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].track, 3);
  EXPECT_EQ(events[0].id, 77);
  EXPECT_FALSE(events[0].instant);
  EXPECT_DOUBLE_EQ(events[0].start.value(), 10.0);
  EXPECT_DOUBLE_EQ(events[0].dur.value(), 2.5);
}

using TracerDeathTest = ::testing::Test;

TEST(TracerDeathTest, SpanEndingBeforeStartAborts) {
  Tracer t;
  t.Enable(4);
  EXPECT_DEATH(t.Span(SpanKind::kService, 0, "bad", Ms(5.0), Ms(1.0)),
               "ends before it starts");
}

// ------------------------------------------------------- Exporters ---------

TEST(ChromeTraceExport, EmitsWellFormedEventsAndLanes) {
  Tracer t;
  t.Enable(16);
  t.Span(SpanKind::kPowerState, 0, "Active", Ms(0.0), Ms(100.0), 0, 13.5);
  t.Span(SpanKind::kQueueWait, 1, "wait", Ms(5.0), Ms(7.0), 42);
  t.Instant(SpanKind::kEpoch, kTrackPolicy, "epoch", Ms(50.0), 1);
  std::ostringstream out;
  WriteChromeTrace(out, t);
  std::string json = out.str();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Complete span on disk 0's power lane, ms -> us conversion applied.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":100000"), std::string::npos);
  // kQueueWait becomes an async begin/end pair.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  // Instant on the policy lane.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // Lane naming metadata.
  EXPECT_NE(json.find("disk 0 power"), std::string::npos);
  EXPECT_NE(json.find("\"policy\""), std::string::npos);
}

TEST(MetricsJsonExport, RoundTripShape) {
  MetricsRegistry reg;
  reg.GetCounter("c").Add(5);
  reg.GetGauge("g").Set(2.5);
  LogLinearHistogram& h = reg.GetHistogram("h");
  h.Record(1.0);
  h.Record(2.0);
  std::string json = MetricsSnapshotJson(reg.Snapshot()).Dump();
  EXPECT_NE(json.find("\"c\":5"), std::string::npos);
  EXPECT_NE(json.find("\"g\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":3"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

}  // namespace
}  // namespace hib

// Metrics registry: named counters, gauges and log-linear histograms.
//
// Every Simulator owns one registry (via hib::Observability).  Components
// that feed an instrument live resolve it once at construction (GetCounter
// et al. return stable references); counts a component already keeps in its
// own stats are added once at end of run instead (see src/obs/obs.h).
//
// A registry is single-simulation state: no locks, no globals (HIB006).
// Cross-run aggregation happens on immutable MetricsSnapshot values, merged
// deterministically in spec order by the parallel harness.
#ifndef HIBERNATOR_SRC_OBS_METRICS_H_
#define HIBERNATOR_SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/thread_annotations.h"

namespace hib {

class Counter {
 public:
  void Add(std::int64_t n) { count_ += n; }
  std::int64_t count() const { return count_; }

 private:
  std::int64_t count_ = 0;
};

class Gauge {
 public:
  void Set(double v) {
    current_ = v;
    set_ = true;
  }
  double current() const { return current_; }
  bool set() const { return set_; }

 private:
  double current_ = 0.0;
  bool set_ = false;
};

// Shape of a log-linear histogram: values in [min_bound * 2^o, min_bound *
// 2^(o+1)) for octave o in [0, octaves) are split into `sub_buckets` linear
// sub-buckets.  Bucket 0 catches v < min_bound (and non-finite values); the
// last bucket catches v >= min_bound * 2^octaves.  With sub_buckets a power
// of two the boundaries are exact binary doubles, so boundary values land in
// deterministic buckets on every platform (tests/obs_test.cc pins this).
struct HistogramOptions {
  double min_bound = 1.0 / 128.0;  // ~8 microseconds when recording ms
  int octaves = 32;                // covers up to ~33.5 million x min_bound
  int sub_buckets = 8;             // linear sub-buckets per octave (power of 2)

  int NumBuckets() const { return octaves * sub_buckets + 2; }
  bool operator==(const HistogramOptions&) const = default;
};

class LogLinearHistogram {
 public:
  explicit LogLinearHistogram(HistogramOptions options = {});

  void Record(double v);

  // Index of the bucket `v` falls into, in [0, options().NumBuckets()).
  int BucketIndex(double v) const;
  // Inclusive lower bound of a bucket (0 for the underflow bucket).
  double BucketLowerBound(int index) const;

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min_seen() const { return min_seen_; }
  double max_seen() const { return max_seen_; }
  const std::vector<std::int64_t>& buckets() const { return buckets_; }
  const HistogramOptions& options() const { return options_; }

  // Approximate quantile (q in [0,1]): lower bound of the bucket holding the
  // ceil(q * count)-th sample.  Zero when empty.
  double Quantile(double q) const;

 private:
  HistogramOptions options_;
  std::vector<std::int64_t> buckets_;
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_seen_ = 0.0;
  double max_seen_ = 0.0;
};

// Immutable, order-independent view of a registry, suitable for merging
// across experiment shards and for JSON export.  All three series are sorted
// by name.
struct MetricsSnapshot {
  struct CounterPoint {
    std::string name;
    std::int64_t count = 0;
  };
  struct GaugePoint {
    std::string name;
    double current = 0.0;
  };
  struct HistogramPoint {
    std::string name;
    HistogramOptions options;
    std::int64_t count = 0;
    double sum = 0.0;
    double min_seen = 0.0;
    double max_seen = 0.0;
    std::vector<std::int64_t> buckets;  // dense, options.NumBuckets() long
  };

  std::vector<CounterPoint> counters;
  std::vector<GaugePoint> gauges;
  std::vector<HistogramPoint> histograms;

  // Deterministic merge: counters and histogram buckets add; a gauge present
  // in `other` replaces this snapshot's value (last shard in merge order
  // wins).  Histograms with the same name must share a shape.  The parallel
  // harness merges shards in spec order, so the result is independent of
  // thread scheduling.  Merge-side only: never called from inside a shard.
  void MergeFrom(const MetricsSnapshot& other) HIB_EXCLUDES_CONTEXT(kShardContext);
};

// Shard-local: one registry per Simulator; instruments it hands out are
// bumped only by that shard's components.
class HIB_SHARD_LOCAL MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create; returned references stay valid for the registry's life.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  LogLinearHistogram& GetHistogram(const std::string& name, HistogramOptions options = {});

  MetricsSnapshot Snapshot() const;

 private:
  // std::map: stable node addresses and name-sorted iteration for snapshots.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LogLinearHistogram> histograms_;
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_OBS_METRICS_H_

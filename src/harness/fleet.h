// Fleet-scale simulation: N independent arrays, one policy each, sharded
// across the machine's cores.
//
// The paper evaluates one array at a time; datacenter questions (correlated
// diurnal valleys across timezones, fleet-wide power capping) need thousands
// of disks.  Every array is its own deterministic Simulator universe, so a
// fleet run is exactly a RunAll() over per-array ExperimentSpecs: each shard
// runs on the parallel harness's thread pool and results land in spec order,
// which makes the whole fleet bit-identical regardless of thread count
// (tests/fleet_test.cc pins this).
//
// The fleet workload spec varies arrays deterministically: request rates are
// scaled by a per-array factor drawn from a seeded RNG *at spec-build time*
// (index order, so thread scheduling can't perturb it), and diurnal phases
// are staggered evenly across `phase_spread_ms` to model a geo-distributed
// fleet whose valleys don't line up.
#ifndef HIBERNATOR_SRC_HARNESS_FLEET_H_
#define HIBERNATOR_SRC_HARNESS_FLEET_H_

#include <cstdint>
#include <vector>

#include "src/harness/parallel.h"
#include "src/util/thread_annotations.h"

namespace hib {

struct FleetSpec {
  int num_arrays = 50;

  // Per-array template.  The scheme decides layout + policy (ArrayFor /
  // MakePolicy); the array seed is re-derived per index so no two arrays
  // share disk RNG streams.
  SchemeConfig scheme;
  ArrayParams base_array;

  enum class Workload { kOltp, kCello };
  Workload workload = Workload::kOltp;
  double peak_iops = 300.0;
  double trough_iops = 90.0;
  Duration duration_ms = Hours(24.0);

  // Per-array variation.  rate_spread = 0.5 scales each array's rates by a
  // factor uniform in [0.75, 1.25]; phase_spread_ms staggers diurnal phases
  // evenly (array i gets i/N of the window).  Both default to a homogeneous,
  // in-phase fleet.
  double rate_spread = 0.0;
  Duration phase_spread_ms = Ms(0.0);

  std::uint64_t seed = 9001;

  int DisksPerArray() const { return base_array.num_disks + base_array.num_cache_disks; }
  int TotalDisks() const { return num_arrays * DisksPerArray(); }
};

struct FleetResult {
  int arrays = 0;
  int disks = 0;
  std::uint64_t events = 0;        // simulator events across all shards
  std::int64_t requests = 0;
  Joules energy_total;
  Duration mean_response_ms;       // request-weighted across arrays
  Duration worst_p99_response_ms;  // max per-array p99
  std::vector<ExperimentResult> per_array;  // spec order
  MetricsSnapshot metrics;         // deterministic spec-order merge
};

class FleetSimulator {
 public:
  explicit FleetSimulator(FleetSpec spec);

  // The per-array shards, in fleet order.  Exposed so tests can inspect the
  // deterministic variation (seeds, rates, phases).
  const std::vector<ExperimentSpec>& specs() const { return specs_; }

  // Runs every shard (max_threads <= 0: DefaultParallelism) and aggregates.
  // Bit-identical for any thread count.  Merge-side: must not run inside a
  // shard (no nested fleets within a shard universe).
  FleetResult Run(int max_threads = 0) const HIB_EXCLUDES_CONTEXT(kShardContext);

 private:
  FleetSpec spec_;
  // Built once in the constructor, read-only afterwards: shards receive
  // const references into this vector, so mutating it during Run() would be
  // a cross-shard data race.  The workload factories share one immutable
  // Zipf table, built by the constructor before any shard runs.
  std::vector<ExperimentSpec> specs_;
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_HARNESS_FLEET_H_

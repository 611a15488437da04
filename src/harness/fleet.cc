#include "src/harness/fleet.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "src/trace/morph.h"
#include "src/trace/synthetic.h"
#include "src/trace/zoo.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace hib {

namespace {

// The fleet's one Zipf table.  Every OLTP or Cello shard draws chunk ranks
// over the same (n, theta), so the table is built once, here on the merge
// side before any shard starts, with its terms filled on every core; the
// shards only read it.  Null for the zoo kinds, which draw no Zipf ranks,
// and above ZipfGenerator::kMaxTableSize, where generators keep no table.
std::shared_ptr<const ZipfTable> BuildFleetZipfTable(const FleetSpec& spec) {
  SectorCount chunk_sectors = OltpWorkloadParams{}.chunk_sectors;
  double theta = OltpWorkloadParams{}.zipf_theta;
  if (spec.workload == FleetSpec::Workload::kCello) {
    chunk_sectors = CelloWorkloadParams{}.chunk_sectors;
    theta = CelloWorkloadParams{}.zipf_theta;
  } else if (spec.workload != FleetSpec::Workload::kOltp) {
    return nullptr;
  }
  std::int64_t n = NumChunks(ArrayFor(spec.scheme, spec.base_array).DataSectors(), chunk_sectors);
  if (n > ZipfGenerator::kMaxTableSize) {
    return nullptr;
  }
  return std::make_shared<const ZipfTable>(
      n, theta, [](std::int64_t size, const ZipfTable::RangeBody& fill) {
        ParallelFor(size, DefaultParallelism(), fill);
      });
}

}  // namespace

FleetSimulator::FleetSimulator(FleetSpec spec) : spec_(spec) {
  HIB_CHECK_GT(spec_.num_arrays, 0) << "fleet needs at least one array";
  HIB_CHECK_GE(spec_.rate_spread, 0.0);
  std::shared_ptr<const ZipfTable> zipf = BuildFleetZipfTable(spec_);
  // All per-array randomness is drawn here, in index order, so the shard
  // specs — and therefore the whole fleet run — are a pure function of the
  // FleetSpec, independent of thread count and scheduling.
  Pcg32 rng(spec_.seed);
  specs_.reserve(static_cast<std::size_t>(spec_.num_arrays));
  for (int i = 0; i < spec_.num_arrays; ++i) {
    double u = rng.NextDouble();
    double scale = 1.0 + spec_.rate_spread * (u - 0.5);
    Duration phase =
        spec_.phase_spread_ms * (static_cast<double>(i) / static_cast<double>(spec_.num_arrays));
    double peak = spec_.peak_iops * scale;
    double trough = spec_.trough_iops * scale;
    // Distinct seeds per array: disks and workload draw from unrelated
    // streams even across neighbouring shards.
    std::uint64_t array_seed =
        spec_.base_array.seed + 1000003ULL * static_cast<std::uint64_t>(i + 1);
    std::uint64_t workload_seed =
        spec_.seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1));

    ExperimentSpec es;
    es.name = "array-" + std::to_string(i);
    ArrayParams base = spec_.base_array;
    base.seed = array_seed;
    es.array = ArrayFor(spec_.scheme, base);
    SchemeConfig cfg = spec_.scheme;
    es.make_policy = [cfg] { return MakePolicy(cfg); };
    Duration duration = spec_.duration_ms;
    switch (spec_.workload) {
      case FleetSpec::Workload::kOltp:
        es.make_workload = [peak, trough, duration, phase, workload_seed, zipf](
                               const ArrayParams& p) -> std::unique_ptr<WorkloadSource> {
          OltpWorkloadParams wp;
          wp.address_space_sectors = p.DataSectors();
          wp.duration_ms = duration;
          wp.peak_iops = peak;
          wp.trough_iops = trough;
          wp.phase_ms = phase;
          wp.seed = workload_seed;
          return std::make_unique<OltpWorkload>(wp, zipf);
        };
        break;
      case FleetSpec::Workload::kCello:
        es.make_workload = [peak, trough, duration, phase, workload_seed, zipf](
                               const ArrayParams& p) -> std::unique_ptr<WorkloadSource> {
          CelloWorkloadParams wp;
          wp.address_space_sectors = p.DataSectors();
          wp.duration_ms = duration;
          wp.peak_iops = peak;
          wp.trough_iops = trough;
          wp.phase_ms = phase;
          wp.seed = workload_seed;
          return std::make_unique<CelloWorkload>(wp, zipf);
        };
        break;
      case FleetSpec::Workload::kMlTraining:
        // The zoo generators have no built-in diurnal phase knob; the fleet
        // staggers them with a PhaseSpliceMorph instead, which is exactly
        // what the morpher is for.
        es.make_workload = [peak, duration, phase, workload_seed](
                               const ArrayParams& p) -> std::unique_ptr<WorkloadSource> {
          MlTrainingWorkloadParams wp;
          wp.address_space_sectors = p.DataSectors();
          wp.duration_ms = duration;
          wp.read_iops = peak;
          wp.seed = workload_seed;
          auto source = std::make_unique<MlTrainingWorkload>(wp);
          if (phase > Duration{}) {
            return std::make_unique<PhaseSpliceMorph>(std::move(source), phase, duration);
          }
          return source;
        };
        break;
      case FleetSpec::Workload::kBackupScan:
        es.make_workload = [peak, trough, duration, phase, workload_seed](
                               const ArrayParams& p) -> std::unique_ptr<WorkloadSource> {
          BackupScanWorkloadParams wp;
          wp.address_space_sectors = p.DataSectors();
          wp.duration_ms = duration;
          wp.scan_iops = peak;
          wp.background_iops = trough;
          wp.seed = workload_seed;
          auto source = std::make_unique<BackupScanWorkload>(wp);
          if (phase > Duration{}) {
            return std::make_unique<PhaseSpliceMorph>(std::move(source), phase, duration);
          }
          return source;
        };
        break;
    }
    // Pre-size each shard's event queue from its own peak rate so no shard
    // grows the queue mid-run.
    es.options.event_capacity_hint = EventCapacityHintFor(es.array, peak);
    specs_.push_back(std::move(es));
  }
}

FleetResult FleetSimulator::Run(int max_threads) const
    HIB_EXCLUDES_CONTEXT(kShardContext) {
  FleetResult fleet;
  fleet.arrays = spec_.num_arrays;
  fleet.disks = spec_.TotalDisks();
  std::vector<ExperimentResult> results = RunAll(specs_, max_threads);

  Duration weighted_sum;
  for (const ExperimentResult& r : results) {
    fleet.events += r.events;
    fleet.requests += r.requests;
    fleet.energy_total += r.energy_total;
    weighted_sum += r.mean_response_ms * static_cast<double>(r.requests);
    fleet.worst_p99_response_ms = std::max(fleet.worst_p99_response_ms, r.p99_response_ms);
  }
  if (fleet.requests > 0) {
    fleet.mean_response_ms = weighted_sum / static_cast<double>(fleet.requests);
  }
  fleet.metrics = MergeMetrics(results);
  fleet.per_array = std::move(results);
  return fleet;
}

}  // namespace hib

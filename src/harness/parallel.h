// Multi-core experiment runner.
//
// Every RunExperiment call is an isolated universe: the Simulator, the array,
// the policy and the workload source are all constructed inside the run and
// share no mutable state with any other run (src/util/random.h RNGs are
// per-object; the logger's threshold is atomic and its sink writes whole
// lines).  That makes the evaluation embarrassingly parallel, and — because
// each run is deterministic in its inputs alone — the results are *bit
// identical* to running the same specs sequentially, regardless of thread
// count or scheduling (tests/parallel_test.cc pins this).
#ifndef HIBERNATOR_SRC_HARNESS_PARALLEL_H_
#define HIBERNATOR_SRC_HARNESS_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/harness/schemes.h"
#include "src/util/thread_annotations.h"

namespace hib {

// One experiment to run.  Factories (not instances) because each worker
// thread must build its own policy and workload; they are invoked
// concurrently and must not touch shared mutable state.
struct ExperimentSpec {
  std::string name;
  ArrayParams array;
  std::function<std::unique_ptr<PowerPolicy>()> make_policy;
  std::function<std::unique_ptr<WorkloadSource>(const ArrayParams&)> make_workload;
  ExperimentOptions options = {};
  // Optional hook, invoked in the worker thread right after the run with the
  // policy still alive — for policy-specific counters (boost time, ...).
  // It must only write state owned by this spec (e.g. its own slot in a
  // caller-side vector).
  std::function<void(const PowerPolicy&, const ExperimentResult&)> post_run;
};

// Threads RunAll uses when `max_threads` <= 0: the HIB_JOBS environment
// variable if set, else std::thread::hardware_concurrency().
int DefaultParallelism();

// Splits [0, n) into up to `threads` contiguous slices and runs `body` once
// per slice, each on its own thread, returning when all have finished.  For
// merge-side set-up that shards later read, such as the fleet's shared Zipf
// table: `body` must write only its own slice.
void ParallelFor(std::int64_t n, int threads,
                 const std::function<void(std::int64_t begin, std::int64_t end)>& body)
    HIB_EXCLUDES_CONTEXT(kShardContext);

// Runs every spec (each in its own thread, up to the thread cap) and returns
// results in spec order.  Bit-identical to calling RunExperiment sequentially.
// Excludes the shard context: shard universes must not nest (a spec's
// callbacks launching another RunAll would break the bit-identical merge).
std::vector<ExperimentResult> RunAll(const std::vector<ExperimentSpec>& specs,
                                     int max_threads = 0)
    HIB_EXCLUDES_CONTEXT(kShardContext);

// Folds every shard's metrics snapshot into one, in spec order.  Because
// RunAll's results are bit-identical to a sequential run and land in spec
// order, this merge is deterministic regardless of thread count or
// scheduling (tests/obs_test.cc pins this).  Merge-side only: it must run
// after every shard has joined, never inside one.
MetricsSnapshot MergeMetrics(const std::vector<ExperimentResult>& results)
    HIB_EXCLUDES_CONTEXT(kShardContext);

// Convenience: the scheme-comparison spec used by the paper benches.
ExperimentSpec SpecForScheme(const SchemeConfig& config, const ArrayParams& base_array,
                             std::function<std::unique_ptr<WorkloadSource>(const ArrayParams&)>
                                 make_workload,
                             const ExperimentOptions& options = {});

}  // namespace hib

#endif  // HIBERNATOR_SRC_HARNESS_PARALLEL_H_

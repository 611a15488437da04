#include "src/harness/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <utility>

#include "src/util/check.h"

namespace hib {

namespace {

// Runs one claimed spec inside the shard context: the universe constructed
// here (policy, workload, Simulator) is shard-owned — its address must never
// escape the worker (simlint HIB022), and clang's capability analysis checks
// that only shard-context code is called from here.
ExperimentResult RunOneShard(const ExperimentSpec& spec)
    HIB_THREAD_CONTEXT(kShardContext) {
  HIB_CHECK(static_cast<bool>(spec.make_policy))
      << "ExperimentSpec '" << spec.name << "' has no policy factory";
  HIB_CHECK(static_cast<bool>(spec.make_workload))
      << "ExperimentSpec '" << spec.name << "' has no workload factory";
  std::unique_ptr<PowerPolicy> policy = spec.make_policy();
  std::unique_ptr<WorkloadSource> workload = spec.make_workload(spec.array);
  ExperimentResult result = RunExperiment(*workload, *policy, spec.array, spec.options);
  if (spec.post_run) {
    spec.post_run(*policy, result);
  }
  return result;
}

}  // namespace

int DefaultParallelism() {
  if (const char* env = std::getenv("HIB_JOBS")) {
    int jobs = std::atoi(env);
    if (jobs > 0) {
      return jobs;
    }
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void ParallelFor(std::int64_t n, int threads,
                 const std::function<void(std::int64_t begin, std::int64_t end)>& body)
    HIB_EXCLUDES_CONTEXT(kShardContext) {
  if (n <= 0) {
    return;
  }
  std::int64_t slices = std::clamp<std::int64_t>(threads, 1, n);
  auto slice_begin = [n, slices](std::int64_t s) { return n * s / slices; };
  // jthreads join when the pool goes out of scope, on every exit path.
  std::vector<std::jthread> pool;
  pool.reserve(static_cast<std::size_t>(slices - 1));
  for (std::int64_t s = 1; s < slices; ++s) {
    pool.emplace_back(body, slice_begin(s), slice_begin(s + 1));
  }
  body(0, slice_begin(1));
}

std::vector<ExperimentResult> RunAll(const std::vector<ExperimentSpec>& specs,
                                     int max_threads) HIB_EXCLUDES_CONTEXT(kShardContext) {
  std::vector<ExperimentResult> results(specs.size());
  if (specs.empty()) {
    return results;
  }
  int threads = max_threads > 0 ? max_threads : DefaultParallelism();
  if (static_cast<std::size_t>(threads) > specs.size()) {
    threads = static_cast<int>(specs.size());
  }

  // Work-stealing-free claim counter: each worker grabs the next unclaimed
  // spec index.  Results land in spec order no matter which thread ran what.
  std::atomic<std::size_t> next{0};
  auto worker = [&specs, &results, &next] {
    // Every worker thread runs shards back to back; the context scope marks
    // the whole claim loop as shard-side for the capability analysis.
    ThreadContextScope shard_scope(kShardContext);
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) {
        return;
      }
      results[i] = RunOneShard(specs[i]);
    }
  };

  if (threads <= 1) {
    worker();
    return results;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) {
    t.join();
  }
  return results;
}

MetricsSnapshot MergeMetrics(const std::vector<ExperimentResult>& results)
    HIB_EXCLUDES_CONTEXT(kShardContext) {
  MetricsSnapshot merged;
  for (const ExperimentResult& result : results) {
    merged.MergeFrom(result.metrics);
  }
  return merged;
}

ExperimentSpec SpecForScheme(const SchemeConfig& config, const ArrayParams& base_array,
                             std::function<std::unique_ptr<WorkloadSource>(const ArrayParams&)>
                                 make_workload,
                             const ExperimentOptions& options) {
  ExperimentSpec spec;
  spec.name = SchemeName(config.scheme);
  spec.array = ArrayFor(config, base_array);
  spec.make_policy = [config] { return MakePolicy(config); };
  spec.make_workload = std::move(make_workload);
  spec.options = options;
  return spec;
}

}  // namespace hib

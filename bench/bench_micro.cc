// E12 — microbenchmarks (google-benchmark): the cost of the simulator's hot
// paths and of the CR solver itself.  These bound how much wall-clock time
// the trace-driven experiments need and show CR is cheap enough to run every
// epoch on a real controller.
#include <benchmark/benchmark.h>

#include <memory>

#include "src/array/array.h"
#include "src/harness/experiment.h"
#include "src/hibernator/cr_algorithm.h"
#include "src/sim/simulator.h"
#include "src/trace/synthetic.h"
#include "src/util/random.h"

namespace hib {
namespace {

void BM_EventQueueScheduleFire(benchmark::State& state) {
  Simulator sim;
  SimTime t;
  for (auto _ : state) {
    t += Ms(1.0);
    sim.ScheduleAt(t, [] {});
    sim.Step();
  }
  benchmark::DoNotOptimize(sim.events_fired());
}
BENCHMARK(BM_EventQueueScheduleFire);

void BM_ZipfSample(benchmark::State& state) {
  ZipfGenerator zipf(state.range(0), 0.86);
  Pcg32 rng(1);
  std::int64_t sum = 0;
  for (auto _ : state) {
    sum += zipf.Next(rng);
  }
  benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_ZipfSample)->Arg(1 << 12)->Arg(1 << 18)->Arg(1 << 22);

void BM_DiskServiceOneRequest(benchmark::State& state) {
  Simulator sim;
  Disk disk(&sim, MakeUltrastar36Z15MultiSpeed(5), 0, 1);
  std::int64_t sector = 0;
  for (auto _ : state) {
    DiskRequest req;
    req.sector = sector = (sector + 9973 * 512) % disk.params().TotalSectors();
    req.count = 8;
    disk.Submit(std::move(req));
    sim.RunUntil(sim.Now() + Ms(1000.0));
  }
  benchmark::DoNotOptimize(disk.stats().requests_completed);
}
BENCHMARK(BM_DiskServiceOneRequest);

void BM_ArraySubmitRead(benchmark::State& state) {
  Simulator sim;
  ArrayParams params;
  params.num_disks = 8;
  params.group_width = 4;
  params.data_fraction = 0.1;
  params.cache_lines = 0;
  ArrayController array(&sim, params);
  Pcg32 rng(2);
  SectorAddr space = params.DataSectors();
  for (auto _ : state) {
    TraceRecord rec;
    rec.lba = rng.NextInRange(0, space / 8 - 2) * 8;
    rec.count = 8;
    rec.is_write = false;
    array.Submit(rec);
    sim.RunUntil(sim.Now() + Ms(50.0));
  }
  benchmark::DoNotOptimize(array.stats().total_responses);
}
BENCHMARK(BM_ArraySubmitRead);

void BM_ArraySubmitRaid5Write(benchmark::State& state) {
  Simulator sim;
  ArrayParams params;
  params.num_disks = 8;
  params.group_width = 4;
  params.data_fraction = 0.1;
  params.cache_lines = 0;
  ArrayController array(&sim, params);
  Pcg32 rng(3);
  SectorAddr space = params.DataSectors();
  for (auto _ : state) {
    TraceRecord rec;
    rec.lba = rng.NextInRange(0, space / 8 - 2) * 8;
    rec.count = 8;
    rec.is_write = true;
    array.Submit(rec);
    sim.RunUntil(sim.Now() + Ms(50.0));
  }
  benchmark::DoNotOptimize(array.stats().total_responses);
}
BENCHMARK(BM_ArraySubmitRaid5Write);

void BM_CrSolver(benchmark::State& state) {
  DiskParams disk = MakeUltrastar36Z15MultiSpeed(5);
  SpeedServiceModel service = SpeedServiceModel::FromDisk(disk, 12.0, 0.3);
  int groups = static_cast<int>(state.range(0));
  Pcg32 rng(4);
  CrInput input;
  input.service = service;
  input.group_lambda.reserve(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    input.group_lambda.push_back(PerMs(rng.NextDouble() * 0.05));
  }
  input.group_width = 4;
  input.goal_ms = Ms(15.0);
  input.epoch_ms = Hours(2.0);
  input.disk = &disk;
  std::int64_t evaluated = 0;
  for (auto _ : state) {
    CrResult r = SolveCr(input);
    evaluated += r.candidates_evaluated;
    benchmark::DoNotOptimize(r.predicted_power);
  }
  state.counters["candidates"] =
      benchmark::Counter(static_cast<double>(evaluated), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CrSolver)->Arg(2)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

void BM_OltpGeneratorNext(benchmark::State& state) {
  OltpWorkloadParams wp;
  wp.address_space_sectors = 1 << 26;
  wp.duration_ms = Hours(24.0 * 365.0);
  wp.peak_iops = 1000.0;
  wp.trough_iops = 1000.0;
  OltpWorkload workload(wp);
  TraceRecord rec;
  for (auto _ : state) {
    bool ok = workload.Next(&rec);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(rec.lba);
  }
}
BENCHMARK(BM_OltpGeneratorNext);

// End-to-end simulator throughput: simulated requests per wall second.
void BM_EndToEndMiniSim(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    ArrayParams params;
    params.num_disks = 8;
    params.group_width = 4;
    params.data_fraction = 0.1;
    params.cache_lines = 256;
    ArrayController array(&sim, params);
    ConstantWorkloadParams wp;
    wp.address_space_sectors = params.DataSectors();
    wp.duration_ms = Seconds(600.0);
    wp.iops = 100.0;
    ConstantWorkload workload(wp);
    TraceInjector injector(&sim, &array, &workload);
    injector.Start();
    sim.RunUntil(Seconds(700.0));
    benchmark::DoNotOptimize(array.stats().total_responses);
  }
  state.SetItemsProcessed(state.iterations() * 60000);
}
BENCHMARK(BM_EndToEndMiniSim);

}  // namespace
}  // namespace hib

BENCHMARK_MAIN();

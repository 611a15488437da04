// P1 — event-core microbenchmark: schedule, cancel and fire throughput of
// EventQueue (slot arena + generation counters + inline callbacks).
//
// Three mixes cover the simulator's real access patterns:
//   steady_state    schedule+pop at a fixed queue depth (the injector/disk
//                   completion loop — the dominant pattern in experiments)
//   timer_churn     schedule two, cancel one, pop one (TPM/DRPM-style timers
//                   that are usually re-armed before firing)
//   burst_drain     schedule a large batch, then drain it (epoch
//                   reconfiguration bursts)
//
// Callbacks capture an 80-byte payload — the size of the hot disk
// service-completion lambda (this + completion time + a DiskRequest) — so
// every event exercises the queue's inline callback storage.
//
// Emits BENCH_eventqueue.json; `aggregate_events_per_sec` (total ops over
// total wall time across the mixes) is the number CI gates on.
// Usage: bench_eventqueue [--quick]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/sim/event_queue.h"
#include "src/util/random.h"

namespace hib {
namespace {

// 80-byte capture: this + a DiskRequest-sized chunk of state, the shape of
// the simulator's hottest lambdas.
struct Payload {
  double a;
  double b;
  std::int64_t c;
  std::int64_t d;
  std::int64_t e;
  std::int64_t f;
  std::int64_t g;
  std::int64_t h;
  std::int64_t i;
  std::int64_t j;
};

// Pre-generated uniform [0,1) deltas, consumed round-robin inside the timed
// loops so the harness isn't measuring the PRNG along with the queue.  64k
// entries stay L2-resident and repeat far less often than the queue could
// exploit.
class DeltaRing {
 public:
  explicit DeltaRing(std::uint32_t seed) : vals_(kSize) {
    Pcg32 rng(seed);
    for (double& v : vals_) {
      v = rng.NextDouble();
    }
  }
  double Next() {
    double v = vals_[i_];
    i_ = (i_ + 1) & (kSize - 1);
    return v;
  }

 private:
  static constexpr std::size_t kSize = 1u << 16;
  std::vector<double> vals_;
  std::size_t i_ = 0;
};

struct MixResult {
  std::string name;
  std::uint64_t ops = 0;
  double seconds = 0.0;

  double Rate() const { return static_cast<double>(ops) / seconds; }
};

// Steady state: keep `depth` events pending; each iteration pops the earliest
// and schedules a replacement a random delta later.  Ops = 1 pop + 1 schedule.
double RunSteadyState(std::uint64_t iterations, std::size_t depth, double* sink) {
  EventQueue q;
  q.Reserve(depth);
  DeltaRing rng(42);
  double acc = 0.0;
  SimTime now;
  WallTimer timer;
  for (std::size_t i = 0; i < depth; ++i) {
    Payload p{rng.Next(), 1.0, 1, 2, 3, 4, 5, 6, 7, 8};
    q.Schedule(Ms(rng.Next() * 100.0), [p, &acc] { acc += p.a + p.b; });
  }
  for (std::uint64_t i = 0; i < iterations; ++i) {
    q.FireNext(&now);
    Payload p{rng.Next(), static_cast<double>(i), 1, 2, 3, 4, 5, 6, 7, 8};
    q.Schedule(now + Ms(rng.Next() * 100.0), [p, &acc] { acc += p.a - p.b; });
  }
  double seconds = timer.Seconds();
  *sink += acc;
  return seconds;
}

// Timer churn: schedule a near event and a far "timeout", cancel the timeout,
// pop the near one.  Ops = 2 schedules + 1 cancel + 1 pop.
double RunTimerChurn(std::uint64_t iterations, double* sink) {
  EventQueue q;
  q.Reserve(64);
  DeltaRing rng(43);
  double acc = 0.0;
  SimTime now;
  WallTimer timer;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    Payload p{rng.Next(), 2.0, 1, 2, 3, 4, 5, 6, 7, 8};
    q.Schedule(now + Ms(rng.Next()), [p, &acc] { acc += p.a; });
    auto timeout = q.Schedule(now + Ms(1000.0 + rng.Next()), [p, &acc] { acc -= p.a; });
    q.Cancel(timeout);
    q.FireNext(&now);
  }
  double seconds = timer.Seconds();
  *sink += acc;
  return seconds;
}

// Burst: schedule `batch` events, drain them all; repeat.  Ops = 1 schedule +
// 1 pop per event.
double RunBurstDrain(std::uint64_t iterations, std::size_t batch, double* sink) {
  EventQueue q;
  q.Reserve(batch);
  DeltaRing rng(44);
  double acc = 0.0;
  SimTime now;
  WallTimer timer;
  for (std::uint64_t round = 0; round * batch < iterations; ++round) {
    for (std::size_t i = 0; i < batch; ++i) {
      Payload p{rng.Next(), 3.0, 1, 2, 3, 4, 5, 6, 7, 8};
      q.Schedule(now + Ms(rng.Next() * 10.0), [p, &acc] { acc += p.a * p.b; });
    }
    while (!q.empty()) {
      q.FireNext(&now);
    }
  }
  double seconds = timer.Seconds();
  *sink += acc;
  return seconds;
}

}  // namespace
}  // namespace hib

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
  }
  hib::PrintHeader("P1 (perf: event core)", "EventQueue schedule/cancel/fire throughput");

  const std::uint64_t iters = quick ? 300'000 : 3'000'000;
  const std::size_t kDepth = 64;
  const std::size_t kBatch = 1024;
  double sink = 0.0;  // defeats dead-code elimination of the callbacks

  std::vector<hib::MixResult> mixes = {
      {"steady_state", iters * 2, hib::RunSteadyState(iters, kDepth, &sink)},
      {"timer_churn", iters * 4, hib::RunTimerChurn(iters, &sink)},
      {"burst_drain", iters * 2, hib::RunBurstDrain(iters, kBatch, &sink)},
  };

  hib::Table table({"mix", "ops", "Mops/s"});
  hib::JsonArray runs;
  std::uint64_t total_ops = 0;
  double total_seconds = 0.0;
  for (const hib::MixResult& m : mixes) {
    table.NewRow().Add(m.name).Add(static_cast<std::int64_t>(m.ops)).Add(m.Rate() / 1e6, 2);
    hib::JsonObject run;
    run.Set("name", m.name)
        .Set("ops", hib::JsonValue::UInt(m.ops))
        .Set("events_per_sec", m.Rate());
    runs.Push(hib::JsonValue::Raw(run.Dump()));
    total_ops += m.ops;
    total_seconds += m.seconds;
  }
  // The headline number: events/sec over the whole suite of mixes, i.e. total
  // work divided by total wall time.
  double aggregate = static_cast<double>(total_ops) / total_seconds;
  table.NewRow().Add("aggregate").Add(static_cast<std::int64_t>(total_ops)).Add(aggregate / 1e6, 2);
  std::printf("%s\n", table.ToString().c_str());
  std::printf("checksum %.3f\n", sink);

  hib::JsonObject payload;
  payload.Set("bench", std::string("eventqueue"))
      .Set("quick", hib::JsonValue::Bool(quick))
      .Set("aggregate_events_per_sec", aggregate)
      .Set("runs", runs);
  hib::WriteBenchJson("eventqueue", payload);
  return 0;
}

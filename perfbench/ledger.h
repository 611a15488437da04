// Outside-in layer ledger for the simulator benchmark.
//
// Every span here is recorded from the benchmark's side of a public call:
// WorkloadSource::Next (src/trace), ArrayController::Submit (src/array) and
// Simulator::RunUntil (src/sim).  Nothing inside src/ is instrumented, so
// the sim residual (RunUntil minus the Next and Submit calls nested in it)
// still holds the event queue, disk completions, policy timers, obs and the
// validator, and Submit still holds the synchronous Disk::Submit.
#ifndef HIBERNATOR_PERFBENCH_LEDGER_H_
#define HIBERNATOR_PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "src/harness/experiment.h"
#include "src/policy/policy.h"
#include "src/trace/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) { return NsBetween(a, Clock::now()) * 1e-9; }

// Decorator over a workload source.  Untraced, it only counts the records it
// yields and stamps every kBatch-th Next() call; the first stamp is the first
// simulated arrival being pulled (the end of set-up).  Traced, it also times
// every Next() call.
class CountingSource : public hib::WorkloadSource {
 public:
  static constexpr std::int64_t kBatch = 4096;

  CountingSource(hib::WorkloadSource* inner, bool timed) : inner_(inner), timed_(timed) {}

  bool Next(hib::TraceRecord* out) override;
  void Reset() override { inner_->Reset(); }
  hib::SectorAddr AddressSpaceSectors() const override { return inner_->AddressSpaceSectors(); }
  hib::Duration DurationHint() const override { return inner_->DurationHint(); }
  double PeakIopsHint() const override { return inner_->PeakIopsHint(); }

  std::int64_t yielded() const { return yielded_; }
  std::int64_t calls() const { return calls_; }
  double next_ns() const { return next_ns_; }
  Clock::time_point first_call() const { return marks_.front(); }
  // Stamps of calls 0, kBatch, 2 * kBatch, ...
  const std::vector<Clock::time_point>& marks() const { return marks_; }

 private:
  hib::WorkloadSource* inner_;
  bool timed_;
  std::int64_t yielded_ = 0;
  std::int64_t calls_ = 0;
  double next_ns_ = 0.0;
  std::vector<Clock::time_point> marks_;
};

// Host time of traced runs, summed over runs.
struct LayerTimes {
  double run_ns = 0.0;        // first Next call to the run torn down (set-up excluded)
  double next_ns = 0.0;       // every WorkloadSource::Next call
  double submit_ns = 0.0;     // every ArrayController::Submit call
  double run_until_ns = 0.0;  // Simulator::RunUntil, including nested Next/Submit
  double nested_next_ns = 0.0;  // the part of next_ns spent inside RunUntil
  std::int64_t next_calls = 0;
  std::int64_t submit_calls = 0;
  std::uint64_t events = 0;

  double SimResidualNs() const { return run_until_ns - submit_ns - nested_next_ns; }
  void Add(const LayerTimes& other);
};

struct TracedRun {
  hib::ExperimentResult result;
  Clock::time_point first_next;  // end of set-up: the first record is pulled
  LayerTimes times;
  std::size_t in_flight_after_drain = 0;
  std::int64_t yielded = 0;
};

// Replays `workload` exactly as hib::RunExperiment does (same construction
// order, same injector, same horizon and drain), timing the layer calls.
// The simulated result must be bit-identical to RunExperiment's; the
// benchmark checks that on every traced run.
TracedRun RunTraced(hib::WorkloadSource& workload, hib::PowerPolicy& policy,
                    const hib::ArrayParams& array_params,
                    const hib::ExperimentOptions& options = {});

}  // namespace perfbench

#endif  // HIBERNATOR_PERFBENCH_LEDGER_H_

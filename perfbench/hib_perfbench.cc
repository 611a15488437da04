// Simulator benchmark: host throughput and simulated energy/response of the
// Hibernator simulator on three workloads, plus an outside-in layer ledger.
//
//   hib_perfbench --workload oltp-day|cello-compare|fleet --seed N
//                 --seconds S --trace 0|1 [--hours H] [--inject-mismatch]
//                 [--source-id ID]
//
// After one untimed reference run through the program's own entry point,
// untraced (--trace 0) runs repeat "set up, then run one fixed-size
// experiment" until S host seconds have passed and report the end-to-end
// metrics as medians over the repetitions (requests/s load-corrected, see
// CorrectedRequestsPerSecond).  Traced (--trace 1) runs alternate an
// untraced and a traced repetition and report the per-layer ledger.  Every
// experiment is checked; the last stdout line is one JSON object
// {correct, attempted, failed, metrics}.  See README.md here for why each
// workload exists and what each metric should move.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/ledger.h"
#include "src/harness/experiment.h"
#include "src/harness/fleet.h"
#include "src/harness/parallel.h"
#include "src/harness/schemes.h"
#include "src/obs/obs.h"
#include "src/trace/format.h"
#include "src/trace/synthetic.h"
#include "src/util/check.h"
#include "src/util/json.h"
#include "src/util/log.h"

namespace perfbench {
namespace {

using hib::Duration;
using hib::ExperimentResult;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double hours = 0.0;  // 0 = the workload's default horizon
  bool inject_mismatch = false;
  std::string source_id = "unknown";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: hib_perfbench --workload oltp-day|cello-compare|fleet "
               "--seed N --seconds S --trace 0|1 [--hours H] [--inject-mismatch] "
               "[--source-id ID]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--inject-mismatch") {
      args.inject_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--hours") {
      args.hours = std::strtod(value.c_str(), &end);
    } else if (flag == "--source-id") {
      args.source_id = value;
    } else {
      Usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) {
    Usage("--workload is required");
  }
  if (!(args.seconds > 0.0) || args.hours < 0.0) {
    Usage("--seconds must be positive and --hours non-negative");
  }
  return args;
}

// Distinct, well-mixed workload seeds from the benchmark seed.
std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Output checks.  Each experiment is one attempted operation; any failed
// check makes it one failed operation.

class Checks {
 public:
  void Experiment(const std::string& name, const std::vector<std::string>& problems) {
    ++attempted_;
    if (problems.empty()) {
      return;
    }
    ++failed_;
    for (const std::string& p : problems) {
      std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", name.c_str(), p.c_str());
    }
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// Bit-level comparison of the simulated statistics two runs must share.
void CompareSimulation(const ExperimentResult& a, const ExperimentResult& b,
                       std::vector<std::string>* problems) {
  auto same = [&](const char* what, double x, double y) {
    if (!(x == y)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s differs: %.17g vs %.17g", what, x, y);
      problems->push_back(buf);
    }
  };
  same("events", static_cast<double>(a.events), static_cast<double>(b.events));
  same("requests", static_cast<double>(a.requests), static_cast<double>(b.requests));
  same("energy_total", a.energy_total.value(), b.energy_total.value());
  same("energy.active", a.energy.active.value(), b.energy.active.value());
  same("energy.idle", a.energy.idle.value(), b.energy.idle.value());
  same("energy.standby", a.energy.standby.value(), b.energy.standby.value());
  same("energy.transition", a.energy.transition.value(), b.energy.transition.value());
  same("mean_response", a.mean_response_ms.value(), b.mean_response_ms.value());
  same("p95_response", a.p95_response_ms.value(), b.p95_response_ms.value());
  same("p99_response", a.p99_response_ms.value(), b.p99_response_ms.value());
  same("max_response", a.max_response_ms.value(), b.max_response_ms.value());
}

// Checks one experiment can make on its own.  `yielded` < 0: unknown.
std::vector<std::string> CheckExperiment(const ExperimentResult& r, std::int64_t yielded,
                                         const Duration* hibernator_goal) {
  std::vector<std::string> problems;
  char buf[200];
  if (r.requests <= 0) {
    problems.emplace_back("no request completed");
  }
  if (yielded >= 0 && r.requests != yielded) {
    std::snprintf(buf, sizeof(buf), "completed %lld requests but the source yielded %lld",
                  static_cast<long long>(r.requests), static_cast<long long>(yielded));
    problems.emplace_back(buf);
  }
  double parts = (r.energy.active + r.energy.idle + r.energy.standby + r.energy.transition).value();
  if (std::fabs(parts - r.energy_total.value()) > 1e-9 * std::fabs(r.energy_total.value())) {
    std::snprintf(buf, sizeof(buf), "energy components sum to %.17g J, total is %.17g J", parts,
                  r.energy_total.value());
    problems.emplace_back(buf);
  }
  if (hibernator_goal != nullptr && r.mean_response_ms > *hibernator_goal * 1.05) {
    std::snprintf(buf, sizeof(buf), "Hibernator mean response %.4f ms misses 1.05 x goal %.4f ms",
                  r.mean_response_ms.value(), hibernator_goal->value());
    problems.emplace_back(buf);
  }
  return problems;
}

// ---------------------------------------------------------------------------
// One repetition of a workload: set-up, then one fixed-size run.

// kReference runs the program's own entry point (RunExperiment on the bare
// source, FleetSimulator::Run) once, unmeasured: every other repetition must
// reproduce its simulated results bit for bit.  kUntraced decorates the
// sources only to count records and stamp every kBatch-th arrival.  kTraced
// times the layer calls.
enum class Mode { kReference, kUntraced, kTraced };

struct ShardSpan {
  Clock::time_point start;
  Clock::time_point end;
  std::thread::id thread;
};

struct Rep {
  double setup_s = 0.0;            // start of set-up to the first arrival pulled
  double run_s = 0.0;              // host seconds of the runs after set-up
  std::vector<std::string> names;  // one per experiment (fleet: per array)
  std::vector<ExperimentResult> results;
  std::vector<std::int64_t> yielded;    // -1 = not observed
  std::vector<std::int64_t> in_flight;  // -1 = not observed
  Duration goal;                        // Hibernator goal (every workload runs one)
  // Host seconds of each kBatch-arrival segment of every experiment or shard,
  // in spec order; an experiment's last segment ends with its teardown.
  std::vector<double> segments;
  // Traced repetitions.
  LayerTimes layers;           // fleet: Next and shard run time only (see Fleet::Probe)
  double trace_setup_s = 0.0;  // trace-layer set-up: generator build, HIBT compile
  std::vector<ShardSpan> shards;
  Clock::time_point run_start;
  Clock::time_point run_end;
  int threads = 1;

  std::int64_t Requests() const {
    std::int64_t n = 0;
    for (const ExperimentResult& r : results) {
      n += r.requests;
    }
    return n;
  }
  double RequestsPerSecond() const {
    return run_s > 0.0 ? static_cast<double>(Requests()) / run_s : 0.0;
  }
};

void AddSegments(const std::vector<Clock::time_point>& marks, Clock::time_point end, Rep* rep) {
  for (std::size_t i = 0; i < marks.size(); ++i) {
    rep->segments.push_back(NsBetween(marks[i], i + 1 < marks.size() ? marks[i + 1] : end) * 1e-9);
  }
}

// Runs one single-array experiment on this thread and appends what it
// observed to `rep`.  Returns when set-up ended: the first arrival pulled.
Clock::time_point RunOne(Mode mode, hib::WorkloadSource& source, hib::PowerPolicy& policy,
                         const hib::ArrayParams& array, Rep* rep) {
  Clock::time_point start = Clock::now();
  switch (mode) {
    case Mode::kReference:
      rep->results.push_back(hib::RunExperiment(source, policy, array));
      rep->yielded.push_back(-1);
      rep->in_flight.push_back(-1);
      return start;
    case Mode::kUntraced: {
      CountingSource counted(&source, /*timed=*/false);
      rep->results.push_back(hib::RunExperiment(counted, policy, array));
      Clock::time_point end = Clock::now();
      AddSegments(counted.marks(), end, rep);
      rep->run_s += NsBetween(counted.first_call(), end) * 1e-9;
      rep->yielded.push_back(counted.yielded());
      rep->in_flight.push_back(-1);
      return counted.first_call();
    }
    case Mode::kTraced: {
      TracedRun run = RunTraced(source, policy, array);
      rep->shards.push_back({start, Clock::now(), std::this_thread::get_id()});
      rep->run_s += run.times.run_ns * 1e-9;
      rep->layers.Add(run.times);
      rep->yielded.push_back(run.yielded);
      rep->in_flight.push_back(static_cast<std::int64_t>(run.in_flight_after_drain));
      rep->results.push_back(std::move(run.result));
      return run.first_next;
    }
  }
  return start;
}

// The Hibernator runs' simulated energy and response: energy summed, mean
// weighted by requests, p99 the worst run's.
struct SimSummary {
  double energy_kj = 0.0;
  double mean_ms = 0.0;
  double p99_ms = 0.0;
};

SimSummary Summarize(const Rep& rep, const std::vector<std::size_t>& runs) {
  SimSummary s;
  double weighted = 0.0;
  std::int64_t requests = 0;
  for (std::size_t i : runs) {
    const ExperimentResult& r = rep.results[i];
    s.energy_kj += r.energy_total.value() / 1000.0;
    weighted += r.mean_response_ms.value() * static_cast<double>(r.requests);
    requests += r.requests;
    s.p99_ms = std::max(s.p99_ms, r.p99_response_ms.value());
  }
  s.mean_ms = requests > 0 ? weighted / static_cast<double>(requests) : 0.0;
  return s;
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual Rep Run(Mode mode) = 0;
  // Indices into Rep::results of the Hibernator experiments whose energy and
  // response are the end-to-end sim_* metrics.
  virtual std::vector<std::size_t> HibernatorRuns(const Rep& rep) const = 0;
  // The end-to-end sim_* metrics: by default the reference run's Hibernator
  // experiments.
  virtual SimSummary ModelSummary(const Rep& reference, Checks* /*checks*/) {
    return Summarize(reference, HibernatorRuns(reference));
  }
  // Fleet only: replaces `split` with a traced single-array probe's spans.
  virtual void Probe(const Rep& /*reference*/, Checks* /*checks*/, LayerTimes* /*split*/) {}
};

Duration Horizon(const Args& args, double default_hours) {
  return hib::Hours(args.hours > 0.0 ? args.hours : default_hours);
}

// --- oltp-day ---------------------------------------------------------------
// One 20-disk width-4 RAID5 array under Hibernator (20 ms goal), fed by the
// in-loop Zipf OLTP generator from midnight.  The horizon runs past the
// first 2-hour epoch, where CR sees the night trough and lowers speeds.

class OltpDay : public Workload {
 public:
  explicit OltpDay(const Args& args)
      : duration_(Horizon(args, 2.5)), seed_(SplitMix64(args.seed)) {}

  std::vector<std::size_t> HibernatorRuns(const Rep&) const override { return {0}; }

  Rep Run(Mode mode) override {
    Rep rep;
    Clock::time_point t0 = Clock::now();
    hib::OltpSetup setup = hib::MakeOltpSetup();
    hib::SchemeConfig cfg;
    cfg.scheme = hib::Scheme::kHibernator;
    cfg.goal_ms = hib::Ms(20.0);
    hib::ArrayParams array = hib::ArrayFor(cfg, setup.array);
    hib::OltpWorkloadParams wp;
    wp.address_space_sectors = array.DataSectors();
    wp.duration_ms = duration_;
    wp.peak_iops = setup.peak_iops;
    wp.trough_iops = setup.trough_iops;
    wp.seed = seed_;
    std::unique_ptr<hib::PowerPolicy> policy = hib::MakePolicy(cfg);
    Clock::time_point t_gen = Clock::now();
    hib::OltpWorkload source(wp);
    rep.trace_setup_s = SecondsSince(t_gen);
    rep.goal = cfg.goal_ms;
    rep.names = {"Hibernator"};

    rep.run_start = Clock::now();
    rep.setup_s = NsBetween(t0, RunOne(mode, source, *policy, array, &rep)) * 1e-9;
    rep.run_end = Clock::now();
    return rep;
  }

 private:
  Duration duration_;
  std::uint64_t seed_;
};

// --- cello-compare ----------------------------------------------------------
// The paper's Cello comparison: the six main schemes back to back on one
// thread against the Cello array, replaying one HIBT-compiled Cello stream
// (compiled once per distinct address space in set-up).  The Hibernator goal
// is 2.5x a 2-hour Base probe, as in bench/bench_cello.cc.  The horizon
// covers the night valley up to the start of the morning ramp.

class CelloCompare : public Workload {
 public:
  CelloCompare(const Args& args, int threads)
      : duration_(Horizon(args, 6.0)), seed_(SplitMix64(args.seed ^ 0xce110ULL)), threads_(threads) {}

  std::vector<std::size_t> HibernatorRuns(const Rep& rep) const override {
    for (std::size_t i = 0; i < rep.names.size(); ++i) {
      if (rep.names[i] == "Hibernator") {
        return {i};
      }
    }
    return {};
  }

  Rep Run(Mode mode) override {
    return Run(mode, seed_, duration_, hib::MainComparisonSchemes());
  }

  // The sim_* metrics are the paper's result, Hibernator over the whole
  // 24-hour Cello day, as the median over kModelDays day-long streams drawn
  // from the benchmark seed, run in parallel through RunAll.  One stream is
  // not enough: whether a few night bursts push CR one way or the other moves
  // Hibernator's energy by 10-30% between streams, even over a full day.
  SimSummary ModelSummary(const Rep& /*reference*/, Checks* checks) override {
    hib::CelloSetup setup = hib::MakeCelloSetup();
    std::vector<hib::ExperimentSpec> specs;
    std::vector<Duration> goals;
    for (std::uint64_t k = 0; k < kModelDays; ++k) {
      hib::CelloWorkloadParams wp;
      wp.address_space_sectors = setup.array.DataSectors();
      wp.duration_ms = hib::Hours(24.0);
      wp.peak_iops = setup.peak_iops;
      wp.trough_iops = setup.trough_iops;
      wp.seed = SplitMix64(seed_ + k);
      hib::CelloWorkload probe(wp);
      hib::SchemeConfig cfg;
      cfg.scheme = hib::Scheme::kHibernator;
      cfg.goal_ms = 2.5 * hib::MeasureBaseResponseMs(probe, setup.array, hib::Hours(2.0));
      cfg.epoch_ms = hib::Hours(2.0);
      goals.push_back(cfg.goal_ms);
      specs.push_back(hib::SpecForScheme(
          cfg, setup.array,
          [wp](const hib::ArrayParams&) { return std::make_unique<hib::CelloWorkload>(wp); }));
    }
    std::vector<ExperimentResult> days = hib::RunAll(specs, threads_);
    std::vector<double> energy;
    std::vector<double> mean;
    std::vector<double> p99;
    for (std::size_t k = 0; k < days.size(); ++k) {
      checks->Experiment("model day " + std::to_string(k),
                         CheckExperiment(days[k], -1, &goals[k]));
      energy.push_back(days[k].energy_total.value() / 1000.0);
      mean.push_back(days[k].mean_response_ms.value());
      p99.push_back(days[k].p99_response_ms.value());
    }
    return {Median(energy), Median(mean), Median(p99)};
  }

 private:
  static constexpr std::uint64_t kModelDays = 8;

  Rep Run(Mode mode, std::uint64_t seed, Duration duration, const std::vector<hib::Scheme>& schemes) {
    Rep rep;
    Clock::time_point t0 = Clock::now();
    hib::CelloSetup setup = hib::MakeCelloSetup();

    Clock::time_point t_gen = Clock::now();
    std::map<hib::SectorAddr, std::unique_ptr<hib::CompiledTraceReader>> streams;
    std::vector<hib::ArrayParams> arrays;
    for (hib::Scheme scheme : schemes) {
      hib::SchemeConfig cfg;
      cfg.scheme = scheme;
      arrays.push_back(hib::ArrayFor(cfg, setup.array));
      hib::SectorAddr space = arrays.back().DataSectors();
      if (streams.count(space) == 0) {
        hib::CelloWorkloadParams wp;
        wp.address_space_sectors = space;
        wp.duration_ms = duration;
        wp.peak_iops = setup.peak_iops;
        wp.trough_iops = setup.trough_iops;
        wp.seed = seed;
        hib::CelloWorkload generator(wp);
        std::string bytes;
        hib::TraceCompileResult compiled = hib::CompileTrace(generator, &bytes);
        HIB_CHECK(compiled.ok) << "Cello stream failed to compile: " << compiled.error;
        auto reader = hib::CompiledTraceReader::FromBuffer(std::move(bytes));
        HIB_CHECK(reader->ok()) << "compiled Cello stream unreadable: " << reader->error();
        streams.emplace(space, std::move(reader));
      }
    }
    rep.trace_setup_s = SecondsSince(t_gen);

    hib::CompiledTraceReader& base_stream = *streams.at(setup.array.DataSectors());
    rep.goal = 2.5 * hib::MeasureBaseResponseMs(base_stream, setup.array, hib::Hours(2.0));

    rep.run_start = Clock::now();
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      hib::SchemeConfig cfg;
      cfg.scheme = schemes[i];
      cfg.goal_ms = rep.goal;
      cfg.epoch_ms = hib::Hours(2.0);
      hib::CompiledTraceReader& stream = *streams.at(arrays[i].DataSectors());
      stream.Reset();
      std::unique_ptr<hib::PowerPolicy> policy = hib::MakePolicy(cfg);
      rep.names.emplace_back(hib::SchemeName(schemes[i]));
      Clock::time_point first_event = RunOne(mode, stream, *policy, arrays[i], &rep);
      if (i == 0) {
        rep.setup_s = NsBetween(t0, first_event) * 1e-9;
      }
    }
    rep.run_end = Clock::now();
    return rep;
  }

  Duration duration_;
  std::uint64_t seed_;
  int threads_;
};

// --- fleet ------------------------------------------------------------------
// FleetSimulator: 52 OLTP arrays of 20 disks under Hibernator, rates spread
// +-25% and diurnal phases staggered over 24 h, sharded over every core by
// RunAll.  Measured repetitions run copies of FleetSimulator::specs()
// through RunAll with the shard hooks wired to per-shard slots.

// Owns a shard's workload and reports what it saw when the shard drops it
// (inside the worker, before RunAll joins).
class ShardSource : public CountingSource {
 public:
  struct Slot {
    ShardSpan span;
    std::int64_t yielded = 0;
    double next_ns = 0.0;
    std::int64_t next_calls = 0;
    double make_workload_s = 0.0;
    std::vector<Clock::time_point> marks;
  };
  ShardSource(std::unique_ptr<hib::WorkloadSource> inner, bool timed, Slot* slot)
      : CountingSource(inner.get(), timed), inner_(std::move(inner)), slot_(slot) {}
  ~ShardSource() override {
    slot_->yielded = yielded();
    slot_->next_ns = next_ns();
    slot_->next_calls = calls();
    slot_->marks = marks();
  }
  ShardSource(const ShardSource&) = delete;
  ShardSource& operator=(const ShardSource&) = delete;

 private:
  std::unique_ptr<hib::WorkloadSource> inner_;
  Slot* slot_;
};

class Fleet : public Workload {
 public:
  Fleet(const Args& args, int threads) : threads_(threads) {
    spec_.num_arrays = 52;
    spec_.scheme.scheme = hib::Scheme::kHibernator;
    spec_.scheme.goal_ms = hib::Ms(20.0);
    spec_.base_array = hib::MakeOltpSetup().array;
    spec_.workload = hib::FleetSpec::Workload::kOltp;
    spec_.peak_iops = 300.0;
    spec_.trough_iops = 90.0;
    spec_.duration_ms = Horizon(args, 0.1);
    spec_.rate_spread = 0.5;
    spec_.phase_spread_ms = hib::Hours(24.0);
    spec_.seed = SplitMix64(args.seed ^ 0xf1ee7ULL);
  }

  std::vector<std::size_t> HibernatorRuns(const Rep& rep) const override {
    std::vector<std::size_t> all(rep.results.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      all[i] = i;
    }
    return all;
  }

  Rep Run(Mode mode) override {
    Rep rep;
    rep.goal = spec_.scheme.goal_ms;
    rep.threads = threads_;
    Clock::time_point t0 = Clock::now();
    hib::FleetSimulator fleet(spec_);
    for (const hib::ExperimentSpec& s : fleet.specs()) {
      rep.names.push_back(s.name);
    }
    if (mode == Mode::kReference) {
      rep.results = fleet.Run(threads_).per_array;
      rep.yielded.assign(rep.results.size(), -1);
      rep.in_flight.assign(rep.results.size(), -1);
      return rep;
    }

    std::vector<hib::ExperimentSpec> specs = fleet.specs();
    std::vector<ShardSource::Slot> slots(specs.size());
    bool timed = mode == Mode::kTraced;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ShardSource::Slot* slot = &slots[i];
      specs[i].make_workload = [inner = specs[i].make_workload, slot,
                                timed](const hib::ArrayParams& p)
          -> std::unique_ptr<hib::WorkloadSource> {
        slot->span.start = Clock::now();
        slot->span.thread = std::this_thread::get_id();
        std::unique_ptr<hib::WorkloadSource> source = inner(p);
        slot->make_workload_s = SecondsSince(slot->span.start);
        return std::make_unique<ShardSource>(std::move(source), timed, slot);
      };
      specs[i].post_run = [slot](const hib::PowerPolicy&, const ExperimentResult&) {
        slot->span.end = Clock::now();
      };
    }
    rep.run_start = Clock::now();
    rep.results = hib::RunAll(specs, threads_);
    rep.run_end = Clock::now();
    rep.run_s = NsBetween(rep.run_start, rep.run_end) * 1e-9;
    rep.in_flight.assign(rep.results.size(), -1);

    Clock::time_point first_event = rep.run_end;
    for (const ShardSource::Slot& slot : slots) {
      first_event = std::min(first_event, slot.marks.front());
      AddSegments(slot.marks, slot.span.end, &rep);
      rep.shards.push_back(slot.span);
      rep.yielded.push_back(slot.yielded);
      rep.layers.next_ns += slot.next_ns;
      rep.layers.next_calls += slot.next_calls;
      rep.layers.run_ns += NsBetween(slot.marks.front(), slot.span.end);
      rep.trace_setup_s += slot.make_workload_s;
    }
    rep.setup_s = NsBetween(t0, first_event) * 1e-9;
    return rep;
  }

  // The shards run inside RunExperiment, where Submit and RunUntil cannot be
  // timed from outside; array-0 is replayed through the traced runner on
  // this thread to split its host time into trace/array/sim.
  void Probe(const Rep& reference, Checks* checks, LayerTimes* split) override {
    hib::FleetSimulator fleet(spec_);
    const hib::ExperimentSpec& s = fleet.specs().front();
    std::unique_ptr<hib::PowerPolicy> policy = s.make_policy();
    std::unique_ptr<hib::WorkloadSource> source = s.make_workload(s.array);
    TracedRun run = RunTraced(*source, *policy, s.array, s.options);
    std::vector<std::string> problems;
    CompareSimulation(run.result, reference.results.front(), &problems);
    if (run.in_flight_after_drain != 0) {
      problems.emplace_back("requests still in flight after drain");
    }
    std::vector<std::string> own = CheckExperiment(run.result, run.yielded, &spec_.scheme.goal_ms);
    problems.insert(problems.end(), own.begin(), own.end());
    checks->Experiment("probe " + s.name, problems);
    *split = run.times;
  }

 private:
  hib::FleetSpec spec_;
  int threads_;
};

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::int64_t CounterOf(const hib::MetricsSnapshot& m, const std::string& name) {
  for (const auto& c : m.counters) {
    if (c.name == name) {
      return c.count;
    }
  }
  return 0;
}

// Quantile of a snapshot histogram, interpolated linearly inside the
// log-linear bucket that holds the ceil(q * count)-th sample.  (The
// registry's own Quantile returns the bucket's lower bound, which would
// read the same for every seed.)
double QuantileOf(const hib::MetricsSnapshot& m, const std::string& name, double q) {
  for (const auto& h : m.histograms) {
    if (h.name != name || h.count == 0) {
      continue;
    }
    hib::LogLinearHistogram shape(h.options);
    double target = std::max(1.0, std::ceil(q * static_cast<double>(h.count)));
    double seen = 0.0;
    for (std::size_t i = 0; i + 1 < h.buckets.size(); ++i) {
      double in_bucket = static_cast<double>(h.buckets[i]);
      if (seen + in_bucket >= target) {
        double lo = shape.BucketLowerBound(static_cast<int>(i));
        double hi = shape.BucketLowerBound(static_cast<int>(i) + 1);
        return lo + (hi - lo) * (target - seen) / in_bucket;
      }
      seen += in_bucket;
    }
    return shape.BucketLowerBound(h.options.NumBuckets() - 1);
  }
  return 0.0;
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Requests per host second, corrected for load from other tenants of the
// machine.  Every repetition replays identical work, so the fastest
// repetition of each segment bounds that segment's undisturbed cost; each
// repetition's run time is scaled by (sum of fastest segments) / (sum of its
// own segments), and the median over repetitions is reported.  On one
// thread the segments tile the run, so every repetition scales to the same
// sum; on the fleet, the scaling keeps each repetition's own shard schedule
// (imbalance, tail) and removes only the shards' slowdown.
double CorrectedRequestsPerSecond(const std::vector<Rep>& reps) {
  std::vector<double> best = reps.front().segments;
  for (const Rep& r : reps) {
    HIB_CHECK_EQ(r.segments.size(), best.size()) << "repetitions did different work";
    for (std::size_t k = 0; k < best.size(); ++k) {
      best[k] = std::min(best[k], r.segments[k]);
    }
  }
  double best_sum = 0.0;
  for (double b : best) {
    best_sum += b;
  }
  std::vector<double> rates;
  for (const Rep& r : reps) {
    double own_sum = 0.0;
    for (double seg : r.segments) {
      own_sum += seg;
    }
    rates.push_back(Ratio(static_cast<double>(r.Requests()), r.run_s * Ratio(best_sum, own_sum)));
  }
  return Median(rates);
}

double MedianRequestsPerSecond(const std::vector<Rep>& reps) {
  std::vector<double> rates;
  for (const Rep& r : reps) {
    rates.push_back(r.RequestsPerSecond());
  }
  return Median(rates);
}

std::vector<Metric> EndToEnd(const std::vector<Rep>& reps, double peak_rss_mb,
                             const SimSummary& sim) {
  std::vector<double> setup;
  for (const Rep& r : reps) {
    setup.push_back(r.setup_s);
  }
  return {
      {"requests_per_s", CorrectedRequestsPerSecond(reps), "1/s"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"sim_energy_kj", sim.energy_kj, "kJ"},
      {"sim_mean_response_ms", sim.mean_ms, "ms"},
      {"sim_p99_response_ms", sim.p99_ms, "ms"},
  };
}

// Harness view of the traced repetitions, median over them: experiments (or
// fleet shards) as shards on `threads` threads between run_start and run_end.
void HarnessMetrics(const std::vector<Rep>& reps, std::vector<Metric>* out) {
  std::vector<double> imbalance;
  std::vector<double> efficiency;
  std::vector<double> tail_idle;
  for (const Rep& rep : reps) {
    double wall = NsBetween(rep.run_start, rep.run_end) * 1e-9;
    double sum = 0.0;
    double max = 0.0;
    std::map<std::thread::id, Clock::time_point> last_end;
    for (const ShardSpan& s : rep.shards) {
      double d = NsBetween(s.start, s.end) * 1e-9;
      sum += d;
      max = std::max(max, d);
      auto it = last_end.find(s.thread);
      if (it == last_end.end() || it->second < s.end) {
        last_end[s.thread] = s.end;
      }
    }
    double idle = wall * std::max(0, rep.threads - static_cast<int>(last_end.size()));
    for (const auto& [thread, end] : last_end) {
      idle += NsBetween(end, rep.run_end) * 1e-9;
    }
    imbalance.push_back(Ratio(max, sum / static_cast<double>(rep.shards.size())));
    efficiency.push_back(Ratio(sum, rep.threads * wall));
    tail_idle.push_back(idle);
  }
  out->push_back({"harness.shard_imbalance", Median(imbalance), "ratio"});
  out->push_back({"harness.parallel_efficiency", Median(efficiency), "ratio"});
  out->push_back({"harness.tail_idle_s", Median(tail_idle), "s"});
}

// `traced` holds the Next calls and run time of every traced repetition;
// `split` the spans that divide a run into trace, array and sim (on the
// fleet, those of the single-array probe).
std::vector<Metric> PerLayer(const std::vector<Rep>& untraced, const std::vector<Rep>& traced_reps,
                             const LayerTimes& traced, const LayerTimes& split,
                             const std::vector<std::size_t>& hib_runs) {
  std::vector<Metric> m;
  const Rep& t = traced_reps.front();
  hib::MetricsSnapshot snap;
  std::int64_t requests = 0;
  std::uint64_t events = 0;
  std::int64_t migrated_sectors = 0;
  for (const ExperimentResult& r : t.results) {
    snap.MergeFrom(r.metrics);
    requests += r.requests;
    events += r.events;
    migrated_sectors += r.migrated_sectors;
  }
  std::vector<double> trace_setup;
  for (const Rep& r : traced_reps) {
    trace_setup.push_back(r.trace_setup_s);
  }
  double array_share = Ratio(split.submit_ns, split.run_ns);
  double sim_share = Ratio(split.SimResidualNs(), split.run_ns);
  m.push_back({"trace.next_ns", Ratio(traced.next_ns, static_cast<double>(traced.next_calls)),
               "ns"});
  m.push_back({"trace.share", Ratio(traced.next_ns, traced.run_ns), "ratio"});
  m.push_back({"trace.compile_s", Median(trace_setup), "s"});
  m.push_back({"array.submit_ns", Ratio(split.submit_ns, static_cast<double>(split.submit_calls)),
               "ns"});
  m.push_back({"array.share", array_share, "ratio"});
  m.push_back({"array.cache_hit_rate",
               Ratio(static_cast<double>(CounterOf(snap, "array.cache_hits")),
                     static_cast<double>(CounterOf(snap, "array.reads"))),
               "ratio"});
  m.push_back({"array.subops_per_request",
               Ratio(static_cast<double>(CounterOf(snap, "array.subops")),
                     static_cast<double>(requests)),
               "count"});
  m.push_back({"array.migrated_gb",
               static_cast<double>(migrated_sectors) * hib::kSectorBytes / (1 << 30), "GB"});
  m.push_back({"sim.dispatch_ns_per_event",
               Ratio(split.SimResidualNs(), static_cast<double>(split.events)), "ns"});
  m.push_back({"sim.share", sim_share, "ratio"});
  m.push_back({"sim.events_per_request",
               Ratio(static_cast<double>(events), static_cast<double>(requests)), "count"});
  double transitions = static_cast<double>(CounterOf(snap, "disk.spin_ups") +
                                           CounterOf(snap, "disk.spin_downs") +
                                           CounterOf(snap, "disk.rpm_changes"));
  m.push_back({"disk.transitions_per_kreq",
               1000.0 * Ratio(transitions, static_cast<double>(requests)), "count"});
  m.push_back({"disk.queue_wait_ms_p50", QuantileOf(snap, "disk.queue_wait_ms", 0.50), "ms"});
  m.push_back({"disk.queue_wait_ms_p99", QuantileOf(snap, "disk.queue_wait_ms", 0.99), "ms"});
  m.push_back({"disk.service_ms_p50", QuantileOf(snap, "disk.service_ms", 0.50), "ms"});

  // Per-scheme energy: only cello-compare runs the schemes other than
  // Hibernator, which is every fleet array.
  SimSummary sim = Summarize(t, hib_runs);
  const ExperimentResult* base = nullptr;
  for (hib::Scheme scheme : hib::MainComparisonSchemes()) {
    std::string name = hib::SchemeName(scheme);
    double kj = 0.0;
    for (std::size_t i = 0; i < t.names.size(); ++i) {
      if (t.names[i] == name) {
        kj += t.results[i].energy_total.value() / 1000.0;
        base = scheme == hib::Scheme::kBase ? &t.results[i] : base;
      }
    }
    m.push_back({"policy.energy_kj." + name,
                 scheme == hib::Scheme::kHibernator ? sim.energy_kj : kj, "kJ"});
  }
  m.push_back({"policy.spin_down_decisions",
               static_cast<double>(CounterOf(snap, "policy.spin_down_decisions")), "count"});
  double maid_hits = static_cast<double>(CounterOf(snap, "policy.maid_cache_hits"));
  double maid_misses = static_cast<double>(CounterOf(snap, "policy.maid_cache_misses"));
  m.push_back({"policy.maid_cache_hit_rate", Ratio(maid_hits, maid_hits + maid_misses), "ratio"});

  hib::MetricsSnapshot hib_snap;
  for (std::size_t i : hib_runs) {
    hib_snap.MergeFrom(t.results[i].metrics);
  }
  double epochs = static_cast<double>(CounterOf(hib_snap, "hibernator.epochs"));
  m.push_back({"hibernator.epochs", epochs, "count"});
  m.push_back({"hibernator.cr_candidates_per_epoch",
               Ratio(static_cast<double>(CounterOf(hib_snap, "hibernator.cr_candidates")), epochs),
               "count"});
  m.push_back({"hibernator.boosts",
               static_cast<double>(CounterOf(hib_snap, "hibernator.boosts")), "count"});
  m.push_back({"hibernator.migrations_requested",
               static_cast<double>(CounterOf(hib_snap, "hibernator.migrations_requested")),
               "count"});
  m.push_back({"hibernator.goal_slack_ms", t.goal.value() - sim.mean_ms, "ms"});
  double savings = 0.0;
  if (base != nullptr && !hib_runs.empty()) {
    savings = t.results[hib_runs.front()].SavingsVs(*base);
  }
  m.push_back({"hibernator.savings_vs_base", savings, "ratio"});

  HarnessMetrics(traced_reps, &m);

  m.push_back({"bench.trace_overhead",
               1.0 - Ratio(MedianRequestsPerSecond(traced_reps), MedianRequestsPerSecond(untraced)),
               "ratio"});
  m.push_back({"bench.ledger_coverage", Ratio(split.next_ns, split.run_ns) + array_share + sim_share,
               "ratio"});
  return m;
}

// ---------------------------------------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

void PrintProvenance(const Args& args, int threads) {
  hib::JsonObject p;
  p.Set("build_type", std::string(PERFBENCH_BUILD_TYPE))
#if HIB_VALIDATE
      .Set("HIB_VALIDATE", hib::JsonValue::Int(1))
#else
      .Set("HIB_VALIDATE", hib::JsonValue::Int(0))
#endif
      .Set("HIB_OBS", hib::JsonValue::Int(HIB_OBS))
      .Set("compiler", std::string(PERFBENCH_CXX_COMPILER))
      .Set("cxx_flags", std::string(PERFBENCH_CXX_FLAGS))
      .Set("source", args.source_id)
      .Set("cpu_model", CpuModel())
      .Set("nproc", hib::JsonValue::Int(std::thread::hardware_concurrency()))
      .Set("threads", hib::JsonValue::Int(threads))
      .Set("workload", args.workload)
      .Set("seed", hib::JsonValue::UInt(args.seed))
      .Set("trace", hib::JsonValue::Int(args.trace ? 1 : 0))
      .Set("seconds", args.seconds);
  std::printf("provenance %s\n", p.Dump().c_str());
}

void PrintTable(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-36s %18.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload;
  int threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  if (args.workload == "oltp-day") {
    workload = std::make_unique<OltpDay>(args);
  } else if (args.workload == "cello-compare") {
    workload = std::make_unique<CelloCompare>(args, threads);
  } else if (args.workload == "fleet") {
    workload = std::make_unique<Fleet>(args, threads);
  } else {
    Usage("unknown workload " + args.workload);
  }
  hib::SetGlobalLogLevel(hib::LogLevel::kWarning);
  PrintProvenance(args, threads);

  Rep reference = workload->Run(Mode::kReference);
  // One set-up and run, as a user of the simulator sees it; later repetitions
  // only add allocator fragmentation, in steps of a freed stream buffer.
  double peak_rss_mb = PeakRssMb();
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  auto log_rep = [](const char* kind, const Rep& rep) {
    std::fprintf(stderr, "%s repetition: set-up %.4f s, run %.4f s, %.6g requests/s\n", kind,
                 rep.setup_s, rep.run_s, rep.RequestsPerSecond());
  };
  Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  do {
    untraced.push_back(workload->Run(Mode::kUntraced));
    log_rep("untraced", untraced.back());
    if (args.trace) {
      traced.push_back(workload->Run(Mode::kTraced));
      log_rep("traced", traced.back());
    }
  } while (Clock::now() < deadline);

  // Every experiment is checked on its own and, outside the reference run,
  // for bit-identical simulated results against the reference.
  Checks checks;
  std::vector<std::size_t> hib_runs = workload->HibernatorRuns(reference);
  auto check_rep = [&](const Rep& rep, const char* kind, bool inject) {
    for (std::size_t i = 0; i < rep.results.size(); ++i) {
      bool is_hib = std::find(hib_runs.begin(), hib_runs.end(), i) != hib_runs.end();
      ExperimentResult r = rep.results[i];
      if (inject && i == 0) {
        r.energy_total = hib::Joules(std::nextafter(r.energy_total.value(), 0.0));
      }
      std::vector<std::string> problems =
          CheckExperiment(r, rep.yielded[i], is_hib ? &rep.goal : nullptr);
      if (rep.in_flight[i] > 0) {
        problems.emplace_back("requests still in flight after drain");
      }
      if (&rep != &reference) {
        CompareSimulation(r, reference.results[i], &problems);
      }
      checks.Experiment(std::string(kind) + " " + rep.names[i], problems);
    }
  };
  check_rep(reference, "reference", false);
  for (const Rep& rep : untraced) {
    check_rep(rep, "untraced", false);
  }
  for (const Rep& rep : traced) {
    check_rep(rep, "traced", args.inject_mismatch);
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    LayerTimes layers;
    for (const Rep& rep : traced) {
      layers.Add(rep.layers);
    }
    LayerTimes split = layers;
    workload->Probe(reference, &checks, &split);
    metrics = PerLayer(untraced, traced, layers, split, hib_runs);
  } else {
    metrics = EndToEnd(untraced, peak_rss_mb, workload->ModelSummary(reference, &checks));
  }

  std::printf("%s: %zu untraced + %zu traced repetitions of %lld requests; untraced median "
              "%.6g requests/s uncorrected; %lld experiments checked, %lld failed\n",
              args.workload.c_str(), untraced.size(), traced.size(),
              static_cast<long long>(reference.Requests()), MedianRequestsPerSecond(untraced),
              static_cast<long long>(checks.attempted()), static_cast<long long>(checks.failed()));
  PrintTable(metrics);

  hib::JsonObject values;
  for (const Metric& m : metrics) {
    hib::JsonObject v;
    v.Set("value", m.value).Set("unit", m.unit);
    values.Set(m.name, v);
  }
  hib::JsonObject out;
  out.Set("correct", hib::JsonValue::Bool(checks.failed() == 0))
      .Set("attempted", hib::JsonValue::Int(checks.attempted()))
      .Set("failed", hib::JsonValue::Int(checks.failed()))
      .Set("metrics", values);
  std::printf("%s\n", out.Dump().c_str());
  std::fflush(stdout);
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

// tracec — the trace compiler CLI.  Compiles SPC-1-style ASCII traces into
// the HIBT binary format (src/trace/format.h), generates compiled traces
// straight from the workload zoo, morphs existing compiled traces, and dumps
// trace summaries.  See README "Trace pipeline" for a quickstart.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "src/trace/format.h"
#include "src/trace/morph.h"
#include "src/trace/spc_reader.h"
#include "src/trace/synthetic.h"
#include "src/trace/zoo.h"
#include "src/util/units.h"

namespace {

using namespace hib;  // NOLINT(google-build-using-namespace) — single-file tool

int Usage() {
  std::cerr
      << "usage:\n"
      << "  tracec compile <in.spc> <out.hibt> --space SECTORS [--asus N] [--block RECORDS]\n"
      << "  tracec info <trace.hibt>\n"
      << "  tracec gen <oltp|cello|mltrain|backup|constant> <out.hibt>\n"
      << "             [--hours H] [--space SECTORS] [--iops X] [--seed N]\n"
      << "  tracec morph <in.hibt> <out.hibt> [--rate-x N] [--remap SECTORS]\n"
      << "             [--phase-hours H] [--sample FRACTION] [--seed N]\n";
  return 2;
}

// The --flag VALUE pairs after the positional arguments.  Every tracec flag
// is numeric, so ParseFlags admits only the flags a subcommand takes, each
// with a value that is wholly a finite number of its kind.
struct FlagRule {
  const char* name = nullptr;
  bool integer = false;
  bool positive = false;
};

struct Flags {
  std::map<std::string, std::string> values;

  bool Has(const std::string& name) const { return values.count(name) > 0; }
  double Get(const std::string& name, double fallback) const {
    return Has(name) ? std::strtod(values.at(name).c_str(), nullptr) : fallback;
  }
  std::int64_t GetInt(const std::string& name, std::int64_t fallback) const {
    return Has(name) ? std::strtoll(values.at(name).c_str(), nullptr, 10) : fallback;
  }
};

// Parses argv[start..] against `rules`; on the first bad flag, names it on
// stderr and returns false.
bool ParseFlags(int argc, char** argv, int start, std::initializer_list<FlagRule> rules,
                Flags* flags) {
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::cerr << "tracec: bad or valueless flag '" << arg << "'\n";
      return false;
    }
    const std::string name = arg.substr(2);
    const std::string value = argv[++i];
    const FlagRule* rule = nullptr;
    for (const FlagRule& r : rules) {
      if (name == r.name) {
        rule = &r;
      }
    }
    if (rule == nullptr) {
      std::cerr << "tracec " << argv[1] << ": unknown flag " << arg << "\n";
      return false;
    }
    char* end = nullptr;
    errno = 0;
    const double number = rule->integer
                              ? static_cast<double>(std::strtoll(value.c_str(), &end, 10))
                              : std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0' || errno == ERANGE || !std::isfinite(number)) {
      std::cerr << "tracec " << argv[1] << ": " << arg << " needs "
                << (rule->integer ? "an integer" : "a number") << ", got '" << value << "'\n";
      return false;
    }
    if (rule->positive && number <= 0.0) {
      std::cerr << "tracec " << argv[1] << ": " << arg << " must be positive, got " << value
                << "\n";
      return false;
    }
    flags->values[name] = value;
  }
  return true;
}

void PrintStats(const TraceStats& stats, SectorAddr space, std::int64_t bytes) {
  std::cout << "records:        " << stats.records << "\n"
            << "reads/writes:   " << stats.reads << " / " << stats.writes << "\n"
            << "duration:       " << ToSeconds(stats.last_time) / 3600.0 << " h\n"
            << "peak iops:      " << stats.peak_iops << "\n"
            << "mean iops:      " << stats.mean_iops << "\n"
            << "address space:  " << space << " sectors ("
            << static_cast<double>(space) * kSectorBytes / (1 << 30) << " GiB)\n";
  if (bytes > 0) {
    std::cout << "compiled size:  " << bytes << " bytes\n";
  }
}

int Compile(int argc, char** argv) {
  if (argc < 4) {
    return Usage();
  }
  Flags flags;
  if (!ParseFlags(argc, argv, 4,
                  {{"space", true, true}, {"asus", true, true}, {"block", true, true}}, &flags)) {
    return 2;
  }
  const SectorAddr space = flags.GetInt("space", 0);
  if (space <= 0) {
    std::cerr << "tracec compile: --space SECTORS is required\n";
    return 2;
  }
  const int asus = static_cast<int>(flags.GetInt("asus", 8));
  // The compiler sorts, so out-of-order ASCII records are an input quirk
  // here, not an error.
  SpcTraceReader reader(argv[2], space, asus, TimeOrderPolicy::kAccept);
  TraceCompileOptions options;
  options.address_space_sectors = space;
  options.records_per_block = flags.GetInt("block", options.records_per_block);
  TraceCompileResult result = CompileTraceToFile(reader, argv[3], options);
  if (!result.ok) {
    std::cerr << "tracec compile: " << result.error << "\n";
    return 1;
  }
  if (result.records == 0 && reader.parse_errors() > 0) {
    std::cerr << "tracec compile: no parseable records in " << argv[2] << "\n";
    return 1;
  }
  if (reader.parse_errors() > 0) {
    std::cerr << "warning: skipped " << reader.parse_errors() << " malformed lines\n";
  }
  PrintStats(result.stats, space, result.bytes);
  return 0;
}

int Info(int argc, char** argv) {
  if (argc != 3) {
    return Usage();
  }
  auto reader = CompiledTraceReader::Open(argv[2]);
  if (!reader->ok()) {
    std::cerr << "tracec info: " << reader->error() << "\n";
    return 1;
  }
  PrintStats(reader->stats(), reader->AddressSpaceSectors(), 0);
  return 0;
}

int Gen(int argc, char** argv) {
  if (argc < 4) {
    return Usage();
  }
  Flags flags;
  if (!ParseFlags(argc, argv, 4,
                  {{"hours", false, true},
                   {"space", true, true},
                   {"iops", false, true},
                   {"seed", true, false}},
                  &flags)) {
    return 2;
  }
  const std::string kind = argv[2];
  const Duration hours = Hours(flags.Get("hours", 24.0));
  const SectorAddr space = flags.GetInt("space", std::int64_t{1} << 24);  // 8 GiB default
  const double iops = flags.Get("iops", 0.0);
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));

  std::unique_ptr<WorkloadSource> source;
  if (kind == "oltp") {
    OltpWorkloadParams p;
    p.address_space_sectors = space;
    p.duration_ms = hours;
    if (iops > 0.0) {
      p.peak_iops = iops;
      p.trough_iops = iops * 0.3;
    }
    p.seed = seed;
    source = std::make_unique<OltpWorkload>(p);
  } else if (kind == "cello") {
    CelloWorkloadParams p;
    p.address_space_sectors = space;
    p.duration_ms = hours;
    if (iops > 0.0) {
      p.peak_iops = iops;
      p.trough_iops = iops * 0.05;
    }
    p.seed = seed;
    source = std::make_unique<CelloWorkload>(p);
  } else if (kind == "mltrain") {
    MlTrainingWorkloadParams p;
    p.address_space_sectors = space;
    p.duration_ms = hours;
    if (iops > 0.0) {
      p.read_iops = iops;
    }
    p.seed = seed;
    source = std::make_unique<MlTrainingWorkload>(p);
  } else if (kind == "backup") {
    BackupScanWorkloadParams p;
    p.address_space_sectors = space;
    p.duration_ms = hours;
    if (iops > 0.0) {
      p.scan_iops = iops;
    }
    p.seed = seed;
    source = std::make_unique<BackupScanWorkload>(p);
  } else if (kind == "constant") {
    ConstantWorkloadParams p;
    p.address_space_sectors = space;
    p.duration_ms = hours;
    if (iops > 0.0) {
      p.iops = iops;
    }
    p.seed = seed;
    source = std::make_unique<ConstantWorkload>(p);
  } else {
    std::cerr << "tracec gen: unknown workload '" << kind << "'\n";
    return 2;
  }

  TraceCompileResult result = CompileTraceToFile(*source, argv[3]);
  if (!result.ok) {
    std::cerr << "tracec gen: " << result.error << "\n";
    return 1;
  }
  PrintStats(result.stats, space, result.bytes);
  return 0;
}

int Morph(int argc, char** argv) {
  if (argc < 4) {
    return Usage();
  }
  Flags flags;
  if (!ParseFlags(argc, argv, 4,
                  {{"rate-x", true, true},
                   {"remap", true, true},
                   {"phase-hours", false, false},
                   {"sample", false, false},
                   {"seed", true, false}},
                  &flags)) {
    return 2;
  }
  auto compiled = CompiledTraceReader::Open(argv[2]);
  if (!compiled->ok()) {
    std::cerr << "tracec morph: " << compiled->error() << "\n";
    return 1;
  }
  // Block checksums verify lazily during replay, so a damaged block only
  // surfaces while draining; keep a handle to re-check after the compile.
  CompiledTraceReader* input = compiled.get();
  std::unique_ptr<WorkloadSource> source = std::move(compiled);
  // Stack order matters: remap first (into the target space), then scale
  // (replicas spread over that space), then phase, then sample.
  if (flags.Has("remap")) {
    source = std::make_unique<LbaRemapMorph>(std::move(source), flags.GetInt("remap", 0));
  }
  if (flags.Has("rate-x")) {
    const std::int64_t factor = flags.GetInt("rate-x", 1);
    if (factor > std::numeric_limits<int>::max()) {
      std::cerr << "tracec morph: --rate-x must be at most " << std::numeric_limits<int>::max()
                << "\n";
      return 2;
    }
    source = std::make_unique<RateScaleMorph>(std::move(source), static_cast<int>(factor));
  }
  if (flags.Has("phase-hours")) {
    source = std::make_unique<PhaseSpliceMorph>(std::move(source),
                                                Hours(flags.Get("phase-hours", 0.0)));
  }
  if (flags.Has("sample")) {
    const double fraction = flags.Get("sample", 1.0);
    if (fraction < 0.0 || fraction > 1.0) {
      std::cerr << "tracec morph: --sample needs a fraction in [0, 1]\n";
      return 2;
    }
    source = std::make_unique<SampleMorph>(std::move(source), fraction,
                                           static_cast<std::uint64_t>(flags.GetInt("seed", 1)));
  }
  TraceCompileResult result = CompileTraceToFile(*source, argv[3]);
  if (!result.ok) {
    std::cerr << "tracec morph: " << result.error << "\n";
    return 1;
  }
  if (!input->ok()) {
    std::cerr << "tracec morph: input damaged mid-replay (" << input->error()
              << "); removing truncated " << argv[3] << "\n";
    std::remove(argv[3]);
    return 1;
  }
  PrintStats(result.stats, source->AddressSpaceSectors(), result.bytes);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command == "compile") {
    return Compile(argc, argv);
  }
  if (command == "info") {
    return Info(argc, argv);
  }
  if (command == "gen") {
    return Gen(argc, argv);
  }
  if (command == "morph") {
    return Morph(argc, argv);
  }
  return Usage();
}

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/trace/spc_reader.h"
#include "src/trace/spc_writer.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace.h"
#include "src/util/random.h"

namespace hib {
namespace {

constexpr SectorAddr kSpace = 1 << 24;  // 8 GB logical space

OltpWorkloadParams SmallOltp() {
  OltpWorkloadParams p;
  p.address_space_sectors = kSpace;
  p.duration_ms = Hours(1.0);
  p.peak_iops = 100.0;
  p.trough_iops = 40.0;
  return p;
}

CelloWorkloadParams SmallCello() {
  CelloWorkloadParams p;
  p.address_space_sectors = kSpace;
  p.duration_ms = Hours(1.0);
  p.peak_iops = 60.0;
  p.trough_iops = 4.0;
  return p;
}

// ------------------------------------------------------- ScrambleRank ------

TEST(ScrambleRank, BijectiveOverSmallSpaces) {
  for (std::int64_t n : {1, 2, 7, 100, 4096, 10007}) {
    std::set<std::int64_t> seen;
    for (std::int64_t r = 0; r < n; ++r) {
      std::int64_t s = ScrambleRank(r, n);
      EXPECT_GE(s, 0);
      EXPECT_LT(s, n);
      seen.insert(s);
    }
    EXPECT_EQ(static_cast<std::int64_t>(seen.size()), n) << "n=" << n;
  }
}

TEST(ScrambleRank, SpreadsNeighbors) {
  // Adjacent ranks should not map to adjacent chunks.
  std::int64_t n = 100000;
  std::int64_t a = ScrambleRank(0, n);
  std::int64_t b = ScrambleRank(1, n);
  EXPECT_GT(std::abs(a - b), 100);
}

// The reference: the 128-bit product, exact for every space.
std::int64_t ScrambleRankReference(std::int64_t rank, std::int64_t num_chunks) {
  if (num_chunks <= 1) {
    return 0;
  }
  if (num_chunks == kScramblePrime) {
    return rank;
  }
  return static_cast<std::int64_t>(static_cast<__int128>(rank) * kScramblePrime % num_chunks);
}

TEST(ScrambleRank, MatchesTheWideReference) {
  Pcg32 rng(2024);
  const std::int64_t kSpaces[] = {2,
                                  3,
                                  424968,
                                  (std::int64_t{1} << 31) - 1,
                                  (std::int64_t{1} << 32) - 1,
                                  (std::int64_t{1} << 32) + 5,
                                  kScramblePrime};
  for (std::int64_t n : kSpaces) {
    for (std::int64_t rank : {std::int64_t{0}, std::int64_t{1}, n - 1}) {
      ASSERT_EQ(ScrambleRank(rank, n), ScrambleRankReference(rank, n)) << rank << " of " << n;
    }
    for (int i = 0; i < 100000; ++i) {
      std::int64_t rank = rng.NextInRange(0, n - 1);
      ASSERT_EQ(ScrambleRank(rank, n), ScrambleRankReference(rank, n)) << rank << " of " << n;
    }
  }
}

// --------------------------------------------------------------- OLTP ------

TEST(OltpWorkload, TimesNondecreasingAndBounded) {
  OltpWorkload w(SmallOltp());
  TraceRecord rec;
  SimTime prev;
  int count = 0;
  while (w.Next(&rec)) {
    EXPECT_GE(rec.time, prev);
    EXPECT_LT(rec.time, Hours(1.0));
    EXPECT_GE(rec.lba, 0);
    EXPECT_LE(rec.lba + rec.count, kSpace);
    prev = rec.time;
    ++count;
  }
  EXPECT_GT(count, 1000);
}

TEST(OltpWorkload, ResetReproducesIdenticalStream) {
  OltpWorkload w(SmallOltp());
  std::vector<TraceRecord> first;
  TraceRecord rec;
  for (int i = 0; i < 500 && w.Next(&rec); ++i) {
    first.push_back(rec);
  }
  w.Reset();
  for (const TraceRecord& expected : first) {
    ASSERT_TRUE(w.Next(&rec));
    EXPECT_EQ(rec.time, expected.time);
    EXPECT_EQ(rec.lba, expected.lba);
    EXPECT_EQ(rec.count, expected.count);
    EXPECT_EQ(rec.is_write, expected.is_write);
  }
}

TEST(OltpWorkload, ReadFractionNearConfigured) {
  OltpWorkloadParams p = SmallOltp();
  p.duration_ms = Hours(4.0);
  OltpWorkload w(p);
  TraceSummary s = Summarize(w);
  EXPECT_NEAR(s.read_fraction, p.read_fraction, 0.02);
}

TEST(OltpWorkload, RequestSizeMix) {
  OltpWorkloadParams p = SmallOltp();
  OltpWorkload w(p);
  TraceRecord rec;
  std::int64_t small = 0;
  std::int64_t large = 0;
  while (w.Next(&rec)) {
    if (rec.count == p.small_sectors) {
      ++small;
    } else if (rec.count == p.large_sectors) {
      ++large;
    } else {
      FAIL() << "unexpected size " << rec.count;
    }
  }
  double large_frac = static_cast<double>(large) / static_cast<double>(small + large);
  EXPECT_NEAR(large_frac, p.large_fraction, 0.02);
}

TEST(OltpWorkload, RateFollowsDiurnalModel) {
  OltpWorkloadParams p = SmallOltp();
  p.duration_ms = Hours(24.0);
  p.peak_iops = 100.0;
  p.trough_iops = 20.0;
  OltpWorkload w(p);
  EXPECT_NEAR(w.RateAt(SimTime{}), 20.0, 1e-9);
  EXPECT_NEAR(w.RateAt(Hours(12.0)), 100.0, 1e-9);
  // Count arrivals in the midnight hour vs the noon hour.
  TraceRecord rec;
  int night = 0;
  int noon = 0;
  while (w.Next(&rec)) {
    if (rec.time < Hours(1.0)) {
      ++night;
    } else if (rec.time >= Hours(11.5) && rec.time < Hours(12.5)) {
      ++noon;
    }
  }
  EXPECT_GT(noon, night * 3);
}

TEST(OltpWorkload, SurgeMultipliesRate) {
  OltpWorkloadParams p = SmallOltp();
  p.duration_ms = Hours(2.0);
  p.peak_iops = 50.0;
  p.trough_iops = 50.0;  // flat base
  p.surge_start_ms = Hours(1.0);
  p.surge_end_ms = Hours(1.5);
  p.surge_factor = 4.0;
  OltpWorkload w(p);
  EXPECT_NEAR(w.RateAt(Hours(1.2)), 200.0, 1e-9);
  EXPECT_NEAR(w.RateAt(Hours(0.5)), 50.0, 1e-9);
  TraceRecord rec;
  int in_surge = 0;
  int before = 0;
  while (w.Next(&rec)) {
    if (rec.time >= p.surge_start_ms && rec.time < p.surge_end_ms) {
      ++in_surge;
    } else if (rec.time >= Hours(0.5) && rec.time < p.surge_start_ms) {
      ++before;
    }
  }
  EXPECT_GT(in_surge, before * 3);
}

TEST(OltpWorkload, SpatialSkewPresent) {
  OltpWorkloadParams p = SmallOltp();
  p.duration_ms = Hours(8.0);
  OltpWorkload w(p);
  std::int64_t num_chunks = kSpace / p.chunk_sectors;
  std::vector<int> hits(static_cast<std::size_t>(num_chunks), 0);
  TraceRecord rec;
  std::int64_t total = 0;
  while (w.Next(&rec)) {
    ++hits[static_cast<std::size_t>(rec.lba / p.chunk_sectors)];
    ++total;
  }
  std::sort(hits.begin(), hits.end(), std::greater<int>());
  std::int64_t top10pct = 0;
  for (std::size_t i = 0; i < hits.size() / 10; ++i) {
    top10pct += hits[i];
  }
  // Zipf(0.86): the top 10% of chunks should carry well over 30% of accesses.
  EXPECT_GT(static_cast<double>(top10pct) / static_cast<double>(total), 0.3);
}

// -------------------------------------------------------------- Cello ------

TEST(CelloWorkload, BasicInvariants) {
  CelloWorkload w(SmallCello());
  TraceRecord rec;
  SimTime prev;
  int count = 0;
  while (w.Next(&rec)) {
    EXPECT_GE(rec.time, prev);
    EXPECT_GE(rec.lba, 0);
    EXPECT_LE(rec.lba + rec.count, kSpace);
    prev = rec.time;
    ++count;
  }
  EXPECT_GT(count, 100);
}

TEST(CelloWorkload, ResetReproduces) {
  CelloWorkload w(SmallCello());
  TraceRecord a;
  std::vector<TraceRecord> first;
  for (int i = 0; i < 200 && w.Next(&a); ++i) {
    first.push_back(a);
  }
  w.Reset();
  for (const TraceRecord& expected : first) {
    ASSERT_TRUE(w.Next(&a));
    EXPECT_EQ(a.time, expected.time);
    EXPECT_EQ(a.lba, expected.lba);
  }
}

TEST(CelloWorkload, DeepNightValleys) {
  CelloWorkloadParams p = SmallCello();
  p.duration_ms = Hours(24.0);
  CelloWorkload w(p);
  // The cubed diurnal shape keeps 6 am rates well below the linear blend.
  EXPECT_LT(w.RateAt(Hours(3.0)), 0.15 * p.peak_iops);
  EXPECT_NEAR(w.RateAt(Hours(12.0)), p.peak_iops, 1e-9);
}

TEST(CelloWorkload, IsBursty) {
  CelloWorkloadParams p = SmallCello();
  p.duration_ms = Hours(2.0);
  CelloWorkload w(p);
  TraceRecord rec;
  std::vector<SimTime> times;
  while (w.Next(&rec)) {
    times.push_back(rec.time);
  }
  ASSERT_GT(times.size(), 200u);
  // Squared coefficient of variation of inter-arrivals should exceed a
  // Poisson process's (== 1) noticeably.
  RunningStats gaps;
  for (std::size_t i = 1; i < times.size(); ++i) {
    gaps.Add(times[i] - times[i - 1]);
  }
  double scv = gaps.variance() / (gaps.mean() * gaps.mean());
  EXPECT_GT(scv, 1.5);
}

TEST(CelloWorkload, SequentialRunsExist) {
  CelloWorkloadParams p = SmallCello();
  p.sequential_fraction = 1.0;  // all bursts sequential
  p.mean_burst_size = 16.0;
  CelloWorkload w(p);
  TraceRecord prev;
  ASSERT_TRUE(w.Next(&prev));
  TraceRecord rec;
  int sequential_pairs = 0;
  int pairs = 0;
  while (w.Next(&rec) && pairs < 2000) {
    if (rec.lba == prev.lba + prev.count) {
      ++sequential_pairs;
    }
    ++pairs;
    prev = rec;
  }
  EXPECT_GT(sequential_pairs, pairs / 2);
}

// ----------------------------------------------------------- Constant ------

TEST(ConstantWorkload, RateAndBounds) {
  ConstantWorkloadParams p;
  p.address_space_sectors = kSpace;
  p.duration_ms = Hours(2.0);
  p.iops = 25.0;
  ConstantWorkload w(p);
  TraceSummary s = Summarize(w);
  EXPECT_NEAR(s.Iops(), 25.0, 2.0);
  EXPECT_NEAR(s.MeanSizeKb(), 4.0, 0.01);
}

// A non-positive rate would make arrival gaps negative (the run never reaches
// its horizon) or silently clamp them; every generator refuses it up front.
TEST(OltpWorkloadDeathTest, RejectsNonPositiveRates) {
  OltpWorkloadParams p = SmallOltp();
  p.peak_iops = -5.0;
  EXPECT_DEATH(OltpWorkload{p}, "peak_iops must be positive");
  p = SmallOltp();
  p.trough_iops = -1.0;
  EXPECT_DEATH(OltpWorkload{p}, "trough_iops must be non-negative");
}

TEST(CelloWorkloadDeathTest, RejectsNonPositiveRates) {
  CelloWorkloadParams p = SmallCello();
  p.peak_iops = 0.0;
  EXPECT_DEATH(CelloWorkload{p}, "peak_iops must be positive");
  p = SmallCello();
  p.trough_iops = -1.0;
  EXPECT_DEATH(CelloWorkload{p}, "trough_iops must be non-negative");
}

TEST(ConstantWorkloadDeathTest, RejectsNonPositiveRate) {
  ConstantWorkloadParams p;
  p.address_space_sectors = kSpace;
  p.iops = -5.0;
  EXPECT_DEATH(ConstantWorkload{p}, "iops must be positive");
}

// ----------------------------------------------------------- Summarize -----

TEST(Summarize, CountsAndDuration) {
  ConstantWorkloadParams p;
  p.address_space_sectors = kSpace;
  p.duration_ms = Seconds(100.0);
  p.iops = 10.0;
  p.read_fraction = 1.0;
  ConstantWorkload w(p);
  TraceSummary s = Summarize(w);
  EXPECT_GT(s.records, 800);
  EXPECT_LT(s.records, 1200);
  EXPECT_DOUBLE_EQ(s.read_fraction, 1.0);
  EXPECT_LE(s.duration_ms, Seconds(100.0));
}

TEST(Summarize, MaxRecordsCap) {
  ConstantWorkloadParams p;
  p.address_space_sectors = kSpace;
  ConstantWorkload w(p);
  TraceSummary s = Summarize(w, 50);
  EXPECT_EQ(s.records, 50);
}

// ---------------------------------------------------------- SpcReader ------

TEST(SpcReader, ParsesWellFormedLines) {
  std::string trace =
      "# comment line\n"
      "0,1000,4096,r,0.5\n"
      "1,2000,8192,W,1.0\n"
      "\n"
      "0,3000,512,R,2.25\n";
  auto reader = SpcTraceReader::FromString(trace, kSpace, 4);
  TraceRecord rec;
  ASSERT_TRUE(reader->Next(&rec));
  EXPECT_EQ(rec.count, 8);  // 4096 bytes
  EXPECT_FALSE(rec.is_write);
  EXPECT_DOUBLE_EQ(rec.time.value(), 500.0);
  EXPECT_EQ(rec.stream, 0);
  ASSERT_TRUE(reader->Next(&rec));
  EXPECT_TRUE(rec.is_write);
  EXPECT_EQ(rec.count, 16);
  EXPECT_EQ(rec.stream, 1);
  ASSERT_TRUE(reader->Next(&rec));
  EXPECT_EQ(rec.count, 1);
  EXPECT_DOUBLE_EQ(rec.time.value(), 2250.0);
  EXPECT_FALSE(reader->Next(&rec));
  EXPECT_EQ(reader->parse_errors(), 0);
}

TEST(SpcReader, CountsMalformedLines) {
  std::string trace =
      "garbage\n"
      "0,abc,4096,r,0.5\n"
      "0,100,4096,x,0.5\n"
      "0,100,4096,r,0.5\n"
      "0,100,-5,r,0.5\n";
  auto reader = SpcTraceReader::FromString(trace, kSpace, 4);
  TraceRecord rec;
  ASSERT_TRUE(reader->Next(&rec));
  EXPECT_FALSE(reader->Next(&rec));
  EXPECT_EQ(reader->parse_errors(), 4);
}

TEST(SpcReader, AsuSlicesSeparateAddressRanges) {
  std::string trace =
      "0,0,4096,r,0.0\n"
      "1,0,4096,r,1.0\n";
  auto reader = SpcTraceReader::FromString(trace, kSpace, 4);
  TraceRecord a, b;
  ASSERT_TRUE(reader->Next(&a));
  ASSERT_TRUE(reader->Next(&b));
  EXPECT_NE(a.lba, b.lba);
  EXPECT_EQ(b.lba - a.lba, kSpace / 4);
}

TEST(SpcReader, RejectsBackwardsTime) {
  std::string trace =
      "0,0,4096,r,5.0\n"
      "0,0,4096,r,1.0\n";  // goes back in time: rejected, not emitted
  auto reader = SpcTraceReader::FromString(trace, kSpace, 4);
  TraceRecord a, b;
  ASSERT_TRUE(reader->Next(&a));
  EXPECT_DOUBLE_EQ(a.time.value(), 5000.0);
  EXPECT_FALSE(reader->Next(&b));
  EXPECT_EQ(reader->time_order_errors(), 1);
  EXPECT_EQ(reader->parse_errors(), 0);  // well-formed line, wrong order
}

TEST(SpcReaderDeathTest, AbortPolicyDiesOnBackwardsTime) {
  std::string trace =
      "0,0,4096,r,5.0\n"
      "0,0,4096,r,1.0\n";
  auto reader = SpcTraceReader::FromString(trace, kSpace, 4, TimeOrderPolicy::kAbort);
  TraceRecord rec;
  ASSERT_TRUE(reader->Next(&rec));
  EXPECT_DEATH(reader->Next(&rec), "non-monotonic SPC timestamp at line 2");
}

TEST(SpcReader, AcceptPolicyPassesBackwardsTimeThrough) {
  // kAccept is for consumers that sort anyway (the trace compiler): the raw
  // timestamps come through untouched and nothing is counted as an error.
  std::string trace =
      "0,0,4096,r,5.0\n"
      "0,0,4096,r,1.0\n";
  auto reader = SpcTraceReader::FromString(trace, kSpace, 4, TimeOrderPolicy::kAccept);
  TraceRecord a, b;
  ASSERT_TRUE(reader->Next(&a));
  ASSERT_TRUE(reader->Next(&b));
  EXPECT_DOUBLE_EQ(a.time.value(), 5000.0);
  EXPECT_DOUBLE_EQ(b.time.value(), 1000.0);
  EXPECT_EQ(reader->time_order_errors(), 0);
}

TEST(SpcReader, ResetRestarts) {
  std::string trace = "0,10,4096,r,0.5\n";
  auto reader = SpcTraceReader::FromString(trace, kSpace, 4);
  TraceRecord rec;
  ASSERT_TRUE(reader->Next(&rec));
  EXPECT_FALSE(reader->Next(&rec));
  reader->Reset();
  EXPECT_TRUE(reader->Next(&rec));
}

TEST(SpcReader, MissingFileYieldsNothing) {
  SpcTraceReader reader("/nonexistent/path/to/trace.spc", kSpace, 4);
  TraceRecord rec;
  EXPECT_FALSE(reader.Next(&rec));
}

TEST(SpcReader, CrlfLineEndingsParseCleanly) {
  // Windows-tooling exports: every line (including the blank one) ends \r\n.
  // The \r must neither corrupt the trailing timestamp field nor turn blank
  // lines into parse errors.
  std::string trace =
      "# comment\r\n"
      "0,1000,4096,r,0.5\r\n"
      "\r\n"
      "1,2000,8192,w,1.25\r\n";
  auto reader = SpcTraceReader::FromString(trace, kSpace, 4);
  TraceRecord rec;
  ASSERT_TRUE(reader->Next(&rec));
  EXPECT_DOUBLE_EQ(rec.time.value(), 500.0);
  ASSERT_TRUE(reader->Next(&rec));
  EXPECT_TRUE(rec.is_write);
  EXPECT_DOUBLE_EQ(rec.time.value(), 1250.0);
  EXPECT_FALSE(reader->Next(&rec));
  EXPECT_EQ(reader->parse_errors(), 0);
}

TEST(SpcReader, TrailingBlankLinesAreNotErrors) {
  std::string trace =
      "0,1000,4096,r,0.5\n"
      "\n"
      "   \n"
      "\t\n";
  auto reader = SpcTraceReader::FromString(trace, kSpace, 4);
  TraceRecord rec;
  ASSERT_TRUE(reader->Next(&rec));
  EXPECT_FALSE(reader->Next(&rec));
  EXPECT_EQ(reader->parse_errors(), 0);
}

TEST(SpcReader, MissingFieldCountsAsErrorAndSkips) {
  std::string trace =
      "0,1000,4096,r\n"     // no timestamp
      "0,1000,4096\n"       // no opcode either
      "0,1000,4096,r,0.5\n";
  auto reader = SpcTraceReader::FromString(trace, kSpace, 4);
  TraceRecord rec;
  ASSERT_TRUE(reader->Next(&rec));  // skips the two bad lines
  EXPECT_DOUBLE_EQ(rec.time.value(), 500.0);
  EXPECT_FALSE(reader->Next(&rec));
  EXPECT_EQ(reader->parse_errors(), 2);
}

TEST(SpcReader, OutOfOrderRecordIsDroppedAndResetClearsTheCount) {
  std::string trace =
      "0,0,4096,r,5.0\n"
      "0,0,4096,r,1.0\n"   // back in time: dropped and counted
      "0,0,4096,r,6.0\n";  // forward again: taken as-is
  auto reader = SpcTraceReader::FromString(trace, kSpace, 4);
  TraceRecord a, b;
  ASSERT_TRUE(reader->Next(&a));
  ASSERT_TRUE(reader->Next(&b));
  EXPECT_DOUBLE_EQ(a.time.value(), 5000.0);
  EXPECT_DOUBLE_EQ(b.time.value(), 6000.0);
  EXPECT_FALSE(reader->Next(&b));
  EXPECT_EQ(reader->time_order_errors(), 1);
  // Reset clears the high-water mark and the error count; the same record is
  // rejected again on the second pass.
  reader->Reset();
  EXPECT_EQ(reader->time_order_errors(), 0);
  ASSERT_TRUE(reader->Next(&a));
  EXPECT_DOUBLE_EQ(a.time.value(), 5000.0);
  ASSERT_TRUE(reader->Next(&b));
  EXPECT_DOUBLE_EQ(b.time.value(), 6000.0);
  EXPECT_EQ(reader->time_order_errors(), 1);
}

TEST(SpcReader, LbaStaysInsideSpace) {
  std::string trace = "3,99999999999,1048576,w,0.1\n";  // huge lba, 1 MB write
  auto reader = SpcTraceReader::FromString(trace, kSpace, 4);
  TraceRecord rec;
  ASSERT_TRUE(reader->Next(&rec));
  EXPECT_GE(rec.lba, 0);
  EXPECT_LE(rec.lba + rec.count, kSpace);
}

// ---------------------------------------------------------- SpcWriter ------

TEST(SpcWriter, RoundTripsThroughReader) {
  ConstantWorkloadParams p;
  p.address_space_sectors = kSpace;
  p.duration_ms = Seconds(60.0);
  p.iops = 20.0;
  ConstantWorkload source(p);

  std::ostringstream out;
  std::int64_t written = ExportSpcTrace(source, out);
  ASSERT_GT(written, 500);

  source.Reset();
  // max_asus = 1 keeps the reader's ASU slicing an identity mapping.
  auto reader = SpcTraceReader::FromString(out.str(), kSpace, /*max_asus=*/1);
  TraceRecord expected;
  TraceRecord actual;
  std::int64_t compared = 0;
  while (source.Next(&expected)) {
    ASSERT_TRUE(reader->Next(&actual)) << "record " << compared;
    EXPECT_EQ(actual.lba, expected.lba);
    EXPECT_EQ(actual.count, expected.count);
    EXPECT_EQ(actual.is_write, expected.is_write);
    EXPECT_NEAR(actual.time.value(), expected.time.value(), 0.01);  // 6-decimal seconds
    ++compared;
  }
  EXPECT_FALSE(reader->Next(&actual));
  EXPECT_EQ(compared, written);
  EXPECT_EQ(reader->parse_errors(), 0);
}

TEST(SpcWriter, RejectsMalformedRecords) {
  std::ostringstream out;
  SpcTraceWriter writer(&out);
  TraceRecord bad;
  bad.lba = -1;
  EXPECT_FALSE(writer.Write(bad));
  bad.lba = 0;
  bad.count = 0;
  EXPECT_FALSE(writer.Write(bad));
  bad.count = 8;
  bad.time = Ms(10.0);
  EXPECT_TRUE(writer.Write(bad));
  bad.time = Ms(5.0);  // time went backwards
  EXPECT_FALSE(writer.Write(bad));
  EXPECT_EQ(writer.records_written(), 1);
}

TEST(SpcWriter, FileExportAndReadBack) {
  ConstantWorkloadParams p;
  p.address_space_sectors = kSpace;
  p.duration_ms = Seconds(10.0);
  p.iops = 10.0;
  ConstantWorkload source(p);
  std::string path = ::testing::TempDir() + "/hibernator_trace_test.spc";
  std::int64_t written = ExportSpcTraceToFile(source, path);
  ASSERT_GT(written, 0);
  SpcTraceReader reader(path, kSpace, 1);
  TraceRecord rec;
  std::int64_t read_back = 0;
  while (reader.Next(&rec)) {
    ++read_back;
  }
  EXPECT_EQ(read_back, written);
  std::remove(path.c_str());
}

TEST(SpcWriter, MaxRecordsCap) {
  ConstantWorkloadParams p;
  p.address_space_sectors = kSpace;
  ConstantWorkload source(p);
  std::ostringstream out;
  EXPECT_EQ(ExportSpcTrace(source, out, 25), 25);
}

}  // namespace
}  // namespace hib

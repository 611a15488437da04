// Tests for the compiled binary trace format (src/trace/format.h): the
// randomized round-trip property (ASCII -> binary -> records, bit-equal),
// the corrupt-input robustness suite (every documented failure mode, each
// asserting the reader fails CLOSED with a latched diagnostic), and a seeded
// fuzz-lite loop that mutates/truncates well-formed files 10k times and
// asserts the reader never silently diverges.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "src/trace/format.h"
#include "src/trace/spc_reader.h"
#include "src/trace/trace.h"
#include "src/util/random.h"

namespace hib {
namespace {

constexpr SectorAddr kSpace = 1 << 20;  // 512 MB logical space

std::uint64_t Bits(SimTime t) { return std::bit_cast<std::uint64_t>(t); }

bool SameRecord(const TraceRecord& a, const TraceRecord& b) {
  return Bits(a.time) == Bits(b.time) && a.lba == b.lba && a.count == b.count &&
         a.is_write == b.is_write && a.stream == b.stream;
}

std::vector<TraceRecord> Drain(WorkloadSource& source) {
  std::vector<TraceRecord> records;
  TraceRecord r;
  while (source.Next(&r)) {
    records.push_back(r);
  }
  return records;
}

std::vector<TraceRecord> RandomRecords(Pcg32& rng, std::int64_t n) {
  std::vector<TraceRecord> records;
  records.reserve(static_cast<std::size_t>(n));
  SimTime t;
  for (std::int64_t i = 0; i < n; ++i) {
    TraceRecord r;
    // Uneven gaps, occasionally zero (equal timestamps must round-trip in
    // arrival order thanks to the compiler's stable sort).
    if (rng.NextDouble() > 0.1) {
      t = t + Ms(rng.NextDouble() * 50.0);
    }
    r.time = t;
    r.count = 1 + static_cast<SectorCount>(rng.NextBounded(256));
    r.lba = rng.NextInRange(0, kSpace - r.count);
    r.is_write = rng.NextDouble() < 0.4;
    r.stream = static_cast<int>(rng.NextBounded(8));
    records.push_back(r);
  }
  return records;
}

// A well-formed compiled trace with several blocks, used as surgery material
// by the corruption suite and the fuzz loop.
std::string SealedTrace(std::int64_t n = 300, std::int64_t records_per_block = 64) {
  Pcg32 rng(991);
  std::string bytes;
  TraceCompileOptions options;
  options.records_per_block = records_per_block;
  options.address_space_sectors = kSpace;
  TraceCompileResult result = CompileRecords(RandomRecords(rng, n), &bytes, options);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.records, n);
  return bytes;
}

template <typename T>
T Peek(const std::string& bytes, std::int64_t offset) {
  T v;
  std::memcpy(&v, bytes.data() + offset, sizeof v);
  return v;
}

template <typename T>
void Poke(std::string* bytes, std::int64_t offset, T v) {
  std::memcpy(bytes->data() + offset, &v, sizeof v);
}

// Recomputes a block's checksum after deliberate damage, so the damage under
// test (and not the checksum) is what the reader trips over.
void ResealBlock(std::string* bytes, std::int64_t block_offset) {
  const auto nrec = Peek<std::uint32_t>(*bytes, block_offset + 16);
  const auto tbytes = Peek<std::uint32_t>(*bytes, block_offset + 20);
  const std::int64_t rec_start =
      (block_offset + kTraceBlockHeaderBytes + tbytes + 7) & ~std::int64_t{7};
  const std::int64_t block_end = rec_start + kTraceRecordBytes * nrec;
  std::uint64_t sum = Fnv1a64(bytes->data() + block_offset, 8);
  sum = Fnv1a64(bytes->data() + block_offset + 16,
                static_cast<std::size_t>(block_end - block_offset - 16), sum);
  Poke<std::uint64_t>(bytes, block_offset + kTraceBlockChecksumOffset, sum);
}

// Recomputes the header checksum (needed when a header-field test wants the
// reader to reach the field check rather than stop at the checksum).
void ResealHeader(std::string* bytes) {
  Poke<std::uint64_t>(bytes, 64, Fnv1a64(bytes->data(), 64));
}

void ResealFooter(std::string* bytes) {
  const std::int64_t footer = static_cast<std::int64_t>(bytes->size()) - kTraceFooterBytes;
  Poke<std::uint64_t>(bytes, footer + kTraceFooterBytes - 8,
                      Fnv1a64(bytes->data() + footer, static_cast<std::size_t>(kTraceFooterBytes - 8)));
}

std::int64_t BlockOffset(const std::string& bytes, std::int64_t b) {
  return static_cast<std::int64_t>(Peek<std::uint64_t>(bytes, kTraceHeaderBytes + 8 * b));
}

// Fully replays `bytes`; returns the records and whether the reader ended in
// an error state (distinguishing clean end-of-trace from fail-closed stop).
struct ReplayOutcome {
  std::vector<TraceRecord> records;
  bool failed = false;
  std::string error;
};

ReplayOutcome Replay(std::string bytes) {
  auto reader = CompiledTraceReader::FromBuffer(std::move(bytes));
  ReplayOutcome outcome;
  outcome.records = Drain(*reader);
  outcome.failed = !reader->ok();
  outcome.error = reader->error();
  return outcome;
}

// ------------------------------------------------------------ round trip ---

TEST(TraceCompile, RandomRecordsRoundTripBitExactly) {
  Pcg32 rng(7);
  for (std::int64_t n : {1, 2, 63, 64, 65, 1000}) {
    std::vector<TraceRecord> original = RandomRecords(rng, n);
    std::string bytes;
    TraceCompileOptions options;
    options.records_per_block = 64;
    options.address_space_sectors = kSpace;
    TraceCompileResult result = CompileRecords(original, &bytes, options);
    ASSERT_TRUE(result.ok) << result.error;

    auto reader = CompiledTraceReader::FromBuffer(std::move(bytes));
    ASSERT_TRUE(reader->ok()) << reader->error();
    EXPECT_EQ(reader->num_records(), n);
    std::vector<TraceRecord> replayed = Drain(*reader);
    EXPECT_TRUE(reader->ok()) << reader->error();

    std::stable_sort(original.begin(), original.end(),
                     [](const TraceRecord& a, const TraceRecord& b) { return a.time < b.time; });
    ASSERT_EQ(replayed.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
      ASSERT_TRUE(SameRecord(original[i], replayed[i]))
          << "record " << i << " diverged (n=" << n << ")";
    }
  }
}

TEST(TraceCompile, MessyAsciiRoundTripsBitExactly) {
  // CRLF line endings, blank and comment lines, and out-of-order timestamps:
  // everything the ASCII ingest path tolerates must survive compilation with
  // the parsed records bit-equal after the compiler's sort.
  Pcg32 rng(13);
  std::ostringstream ascii;
  ascii << "# SPC-style header comment\r\n\r\n";
  for (int i = 0; i < 500; ++i) {
    const double ts = rng.NextDouble() * 100.0;  // deliberately unsorted
    const std::int64_t lba = static_cast<std::int64_t>(rng.NextBounded(1 << 16));
    const std::int64_t size_bytes = 512 * (1 + static_cast<std::int64_t>(rng.NextBounded(64)));
    const char* op = rng.NextDouble() < 0.3 ? "w" : "r";
    ascii << i % 4 << "," << lba << "," << size_bytes << "," << op << "," << ts
          << (i % 7 == 0 ? "\r\n" : "\n");
    if (i % 50 == 0) {
      ascii << "\n   \n";
    }
  }

  // What the ASCII reader yields (unordered, kAccept) is the ground truth.
  auto reader = SpcTraceReader::FromString(ascii.str(), kSpace, 4, TimeOrderPolicy::kAccept);
  std::vector<TraceRecord> parsed = Drain(*reader);
  ASSERT_EQ(parsed.size(), 500u);
  EXPECT_EQ(reader->parse_errors(), 0);

  reader->Reset();
  std::string bytes;
  TraceCompileOptions options;
  options.address_space_sectors = kSpace;
  TraceCompileResult result = CompileTrace(*reader, &bytes, options);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.records, 500);

  std::stable_sort(parsed.begin(), parsed.end(),
                   [](const TraceRecord& a, const TraceRecord& b) { return a.time < b.time; });
  auto compiled = CompiledTraceReader::FromBuffer(std::move(bytes));
  ASSERT_TRUE(compiled->ok()) << compiled->error();
  std::vector<TraceRecord> replayed = Drain(*compiled);
  ASSERT_EQ(replayed.size(), parsed.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    ASSERT_TRUE(SameRecord(parsed[i], replayed[i])) << "record " << i << " diverged";
  }
}

TEST(TraceCompile, EmptyTraceRoundTrips) {
  std::string bytes;
  TraceCompileOptions options;
  options.address_space_sectors = kSpace;
  TraceCompileResult result = CompileRecords({}, &bytes, options);
  ASSERT_TRUE(result.ok) << result.error;
  auto reader = CompiledTraceReader::FromBuffer(std::move(bytes));
  ASSERT_TRUE(reader->ok()) << reader->error();
  EXPECT_EQ(reader->num_records(), 0);
  TraceRecord r;
  EXPECT_FALSE(reader->Next(&r));
  EXPECT_TRUE(reader->ok());
}

TEST(TraceCompile, StatsSummarizeTheRecords) {
  std::string bytes = SealedTrace(300, 64);
  auto reader = CompiledTraceReader::FromBuffer(std::move(bytes));
  ASSERT_TRUE(reader->ok()) << reader->error();
  const TraceStats& stats = reader->stats();
  EXPECT_EQ(stats.records, 300);
  EXPECT_EQ(stats.reads + stats.writes, 300);
  EXPECT_GT(stats.total_sectors, 0);
  EXPECT_GE(stats.min_lba, 0);
  EXPECT_LE(stats.max_lba_end, kSpace);
  EXPECT_GE(stats.last_time, stats.first_time);
  EXPECT_GT(stats.peak_iops, 0.0);
  EXPECT_EQ(reader->DurationHint(), stats.last_time);
  EXPECT_EQ(reader->PeakIopsHint(), stats.peak_iops);
}

TEST(TraceCompile, RejectsInvalidRecordsWithDiagnostics) {
  std::string bytes;
  TraceCompileOptions options;
  options.address_space_sectors = kSpace;

  std::vector<TraceRecord> bad(1);
  bad[0].time = Ms(-1.0);
  EXPECT_FALSE(CompileRecords(bad, &bytes, options).ok);

  bad[0].time = Ms(1.0);
  bad[0].lba = kSpace;  // lba + count off the end
  EXPECT_FALSE(CompileRecords(bad, &bytes, options).ok);

  bad[0].lba = 0;
  bad[0].stream = 1 << 17;
  EXPECT_FALSE(CompileRecords(bad, &bytes, options).ok);
}

// ------------------------------------------------------- corruption suite ---

TEST(TraceCorruption, TruncatedHeaderFailsClosed) {
  std::string bytes = SealedTrace();
  auto reader = CompiledTraceReader::FromBuffer(bytes.substr(0, 40));
  EXPECT_FALSE(reader->ok());
  EXPECT_NE(reader->error().find("too small"), std::string::npos) << reader->error();
  TraceRecord r;
  EXPECT_FALSE(reader->Next(&r));
}

TEST(TraceCorruption, BadMagicFailsClosed) {
  std::string bytes = SealedTrace();
  bytes[0] = 'X';
  auto reader = CompiledTraceReader::FromBuffer(std::move(bytes));
  EXPECT_FALSE(reader->ok());
  EXPECT_NE(reader->error().find("bad magic"), std::string::npos) << reader->error();
}

TEST(TraceCorruption, UnsupportedVersionFailsClosed) {
  std::string bytes = SealedTrace();
  Poke<std::uint32_t>(&bytes, 4, kTraceVersion + 1);
  ResealHeader(&bytes);
  auto reader = CompiledTraceReader::FromBuffer(std::move(bytes));
  EXPECT_FALSE(reader->ok());
  EXPECT_NE(reader->error().find("unsupported version"), std::string::npos) << reader->error();
}

TEST(TraceCorruption, HeaderFieldFlipTripsTheHeaderChecksum) {
  std::string bytes = SealedTrace();
  bytes[24] = static_cast<char>(bytes[24] ^ 0x20);  // num_records
  auto reader = CompiledTraceReader::FromBuffer(std::move(bytes));
  EXPECT_FALSE(reader->ok());
  EXPECT_NE(reader->error().find("header checksum"), std::string::npos) << reader->error();
}

TEST(TraceCorruption, MidBlockTruncationFailsClosed) {
  std::string bytes = SealedTrace();
  // Chop the file in the middle of block 1: the footer lands at the wrong
  // offset, which is exactly what a torn download / partial write looks like.
  const std::int64_t cut = BlockOffset(bytes, 1) + 32;
  auto reader = CompiledTraceReader::FromBuffer(bytes.substr(0, static_cast<std::size_t>(cut)));
  EXPECT_FALSE(reader->ok());
  EXPECT_NE(reader->error().find("footer"), std::string::npos) << reader->error();
}

TEST(TraceCorruption, BlockPayloadFlipStopsTheStreamMidReplay) {
  std::string bytes = SealedTrace();
  // Flip one record byte in block 2: validation passes (block checksums are
  // lazy), replay stops exactly at that block, and the error latches.
  const std::int64_t target = BlockOffset(bytes, 2) + kTraceBlockHeaderBytes + 40;
  bytes[static_cast<std::size_t>(target)] =
      static_cast<char>(bytes[static_cast<std::size_t>(target)] ^ 0x01);
  auto reader = CompiledTraceReader::FromBuffer(std::move(bytes));
  ASSERT_TRUE(reader->ok()) << reader->error();

  std::vector<TraceRecord> replayed = Drain(*reader);
  EXPECT_FALSE(reader->ok());
  EXPECT_NE(reader->error().find("block checksum"), std::string::npos) << reader->error();
  EXPECT_EQ(replayed.size(), 128u);  // blocks 0 and 1 only
  // The error latches: Reset() must not reopen the damaged trace.
  reader->Reset();
  TraceRecord r;
  EXPECT_FALSE(reader->Next(&r));
}

TEST(TraceCorruption, IndexFlipFailsClosed) {
  std::string bytes = SealedTrace();
  const std::int64_t entry = kTraceHeaderBytes + 8;  // block 1's offset
  bytes[static_cast<std::size_t>(entry)] =
      static_cast<char>(bytes[static_cast<std::size_t>(entry)] ^ 0x04);
  auto reader = CompiledTraceReader::FromBuffer(std::move(bytes));
  EXPECT_FALSE(reader->ok());
  EXPECT_NE(reader->error().find("index checksum"), std::string::npos) << reader->error();
}

TEST(TraceCorruption, FooterFlipFailsClosed) {
  std::string bytes = SealedTrace();
  const std::int64_t footer = static_cast<std::int64_t>(bytes.size()) - kTraceFooterBytes;
  bytes[static_cast<std::size_t>(footer + 8)] =
      static_cast<char>(bytes[static_cast<std::size_t>(footer + 8)] ^ 0x80);
  auto reader = CompiledTraceReader::FromBuffer(std::move(bytes));
  EXPECT_FALSE(reader->ok());
  EXPECT_NE(reader->error().find("footer checksum"), std::string::npos) << reader->error();
}

TEST(TraceCorruption, NonMonotonicBlockBaseIsRejectedEvenWithValidChecksum) {
  std::string bytes = SealedTrace();
  // Rewind block 1's base timestamp below block 0's range and RE-SEAL the
  // block checksum: this is what a block-level splice of two traces would
  // produce, and only the cross-block monotonicity check can catch it.
  const std::int64_t block1 = BlockOffset(bytes, 1);
  Poke<std::uint64_t>(&bytes, block1, 0);  // bit image of 0.0 ms
  ResealBlock(&bytes, block1);
  auto reader = CompiledTraceReader::FromBuffer(std::move(bytes));
  ASSERT_TRUE(reader->ok()) << reader->error();
  std::vector<TraceRecord> replayed = Drain(*reader);
  EXPECT_FALSE(reader->ok());
  EXPECT_NE(reader->error().find("non-monotonic block base"), std::string::npos)
      << reader->error();
  EXPECT_EQ(replayed.size(), 64u);  // block 0 only
}

TEST(TraceCorruption, OverflowingVarintIsRejectedEvenWithValidChecksum) {
  // Craft a block whose delta stream is wide enough to hold a 10-byte varint,
  // then overwrite it with 0xFF bytes (a delta >= 2^70) and re-seal.  No
  // compiler output ever contains one — deltas are bounded by the bit image
  // of infinity — so this can only be hit via deliberate damage.
  std::vector<TraceRecord> records(3);
  records[0].time = Ms(0.0);
  records[1].time = Ms(1e300);    // ~9-byte delta
  records[2].time = Ms(1.5e300);  // ~8-byte delta
  for (TraceRecord& r : records) {
    r.lba = 0;
    r.count = 8;
  }
  std::string bytes;
  TraceCompileOptions options;
  options.address_space_sectors = kSpace;
  TraceCompileResult result = CompileRecords(records, &bytes, options);
  ASSERT_TRUE(result.ok) << result.error;

  const std::int64_t block0 = BlockOffset(bytes, 0);
  const auto tbytes = Peek<std::uint32_t>(bytes, block0 + 20);
  ASSERT_GE(tbytes, 10u);
  for (std::int64_t i = 0; i < 10; ++i) {
    bytes[static_cast<std::size_t>(block0 + kTraceBlockHeaderBytes + i)] = '\xff';
  }
  ResealBlock(&bytes, block0);

  auto reader = CompiledTraceReader::FromBuffer(std::move(bytes));
  ASSERT_TRUE(reader->ok()) << reader->error();
  std::vector<TraceRecord> replayed = Drain(*reader);
  EXPECT_FALSE(reader->ok());
  EXPECT_NE(reader->error().find("overflowing varint"), std::string::npos) << reader->error();
  EXPECT_EQ(replayed.size(), 1u);  // the block base record precedes the deltas
}

TEST(TraceCorruption, TruncatedVarintIsRejectedEvenWithValidChecksum) {
  // A continuation bit on the last delta byte sends the decoder past the
  // block's declared delta region.
  std::vector<TraceRecord> records(2);
  records[0].time = Ms(1.0);
  // Adjacent bit images: the delta (100) varint-encodes in a single byte.
  records[1].time = std::bit_cast<SimTime>(Bits(records[0].time) + 100);
  for (TraceRecord& r : records) {
    r.lba = 0;
    r.count = 8;
  }
  std::string bytes;
  TraceCompileOptions options;
  options.address_space_sectors = kSpace;
  ASSERT_TRUE(CompileRecords(records, &bytes, options).ok);

  const std::int64_t block0 = BlockOffset(bytes, 0);
  ASSERT_EQ(Peek<std::uint32_t>(bytes, block0 + 20), 1u);
  bytes[static_cast<std::size_t>(block0 + kTraceBlockHeaderBytes)] = '\xff';
  ResealBlock(&bytes, block0);

  auto reader = CompiledTraceReader::FromBuffer(std::move(bytes));
  ASSERT_TRUE(reader->ok()) << reader->error();
  std::vector<TraceRecord> replayed = Drain(*reader);
  EXPECT_FALSE(reader->ok());
  EXPECT_NE(reader->error().find("truncated varint"), std::string::npos) << reader->error();
  EXPECT_EQ(replayed.size(), 1u);
}

TEST(TraceCorruption, RecordCountShortfallIsReported) {
  std::string bytes = SealedTrace(300, 64);
  // Promise one more record than the blocks deliver (header + footer agree
  // with each other, so only the end-of-replay accounting can catch it).
  Poke<std::int64_t>(&bytes, 24, 301);
  ResealHeader(&bytes);
  const std::int64_t footer = static_cast<std::int64_t>(bytes.size()) - kTraceFooterBytes;
  Poke<std::int64_t>(&bytes, footer, 301);  // TraceStats.records
  ResealFooter(&bytes);

  auto reader = CompiledTraceReader::FromBuffer(std::move(bytes));
  ASSERT_TRUE(reader->ok()) << reader->error();
  std::vector<TraceRecord> replayed = Drain(*reader);
  EXPECT_FALSE(reader->ok());
  EXPECT_NE(reader->error().find("fewer records"), std::string::npos) << reader->error();
  EXPECT_EQ(replayed.size(), 300u);
}

TEST(TraceCorruption, RecordCountOverrunIsReported) {
  std::string bytes = SealedTrace(300, 64);
  // Promise fewer records than the blocks hold: the fifth block would push
  // emitted past the header's count.
  Poke<std::int64_t>(&bytes, 24, 299);
  ResealHeader(&bytes);
  const std::int64_t footer = static_cast<std::int64_t>(bytes.size()) - kTraceFooterBytes;
  Poke<std::int64_t>(&bytes, footer, 299);
  ResealFooter(&bytes);

  auto reader = CompiledTraceReader::FromBuffer(std::move(bytes));
  ASSERT_TRUE(reader->ok()) << reader->error();
  std::vector<TraceRecord> replayed = Drain(*reader);
  EXPECT_FALSE(reader->ok());
  EXPECT_NE(reader->error().find("overruns the trace record count"), std::string::npos)
      << reader->error();
  EXPECT_EQ(replayed.size(), 256u);  // four full blocks
}

TEST(TraceCorruption, MissingFileFailsClosed) {
  auto reader = CompiledTraceReader::Open("/nonexistent/path/trace.hibt");
  EXPECT_FALSE(reader->ok());
  TraceRecord r;
  EXPECT_FALSE(reader->Next(&r));
}

// ---------------------------------------------------------------- fuzzing ---

TEST(TraceFuzz, TenThousandMutationsNeverSilentlyDiverge) {
  const std::string sealed = SealedTrace(300, 64);
  const ReplayOutcome original = Replay(sealed);
  ASSERT_FALSE(original.failed) << original.error;
  ASSERT_EQ(original.records.size(), 300u);

  Pcg32 rng(20260808);
  int rejected = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    std::string mutated = sealed;
    if (iter % 4 == 0) {
      // Truncate to a random shorter length (possibly zero).
      mutated.resize(rng.NextBounded(static_cast<std::uint32_t>(sealed.size())));
    } else {
      // Flip 1-3 random bits (never a no-op write).
      const int flips = 1 + static_cast<int>(rng.NextBounded(3));
      for (int f = 0; f < flips; ++f) {
        const auto pos = rng.NextBounded(static_cast<std::uint32_t>(mutated.size()));
        const auto bit = 1u << rng.NextBounded(8);
        mutated[pos] = static_cast<char>(static_cast<unsigned char>(mutated[pos]) ^ bit);
      }
    }

    ReplayOutcome outcome = Replay(std::move(mutated));
    if (outcome.failed) {
      ++rejected;
      continue;
    }
    // The reader accepted the mutation: it must have replayed the byte-exact
    // original stream (e.g. the flip cancelled out) — never a divergent one.
    ASSERT_EQ(outcome.records.size(), original.records.size()) << "iteration " << iter;
    for (std::size_t i = 0; i < outcome.records.size(); ++i) {
      ASSERT_TRUE(SameRecord(outcome.records[i], original.records[i]))
          << "iteration " << iter << " record " << i << " silently diverged";
    }
  }
  // Every byte is under one of the four checksums, so essentially every
  // mutation must be rejected (only an even number of flips landing on the
  // same byte can cancel out).
  EXPECT_GT(rejected, 9900);
}

}  // namespace
}  // namespace hib

// Compiled binary trace format ("HIBT") — the storage half of the trace
// pipeline.  ASCII SPC traces parse at a few million records/second; the
// fleet runs from PR 7 replay hundreds of array-days per wall second and were
// starting to bottleneck on strtod.  A compiled trace replays at memory speed
// through an O(1) cursor and can be mmap-ed, so a multi-hundred-GB trace
// never has to be parsed (or even fully paged in) again.
//
// File layout (all integers little-endian, every section 8-byte aligned):
//
//   +--------------------------------------------------------------+
//   | FileHeader (72 B): magic "HIBT", version, flags,             |
//   |   address_space_sectors, num_records, num_blocks,            |
//   |   records_per_block, index_offset, footer_offset,            |
//   |   header_checksum (FNV-1a over the preceding 64 B)           |
//   +--------------------------------------------------------------+
//   | Block index: num_blocks x u64 absolute byte offsets,         |
//   |   then u64 index_checksum                                    |
//   +--------------------------------------------------------------+
//   | Block 0 .. Block n-1, each:                                  |
//   |   BlockHeader (24 B): base_time_bits, block_checksum,        |
//   |     num_records (u32), time_bytes (u32)                      |
//   |   varint timestamp deltas (time_bytes B, padded to 8)        |
//   |   num_records x RecordFixed (16 B: lba i64, count u32,       |
//   |     stream u16, flags u8, reserved u8)                       |
//   +--------------------------------------------------------------+
//   | Footer: TraceStats (80 B), footer magic "HIBF", reserved,    |
//   |   footer_checksum                                            |
//   +--------------------------------------------------------------+
//
// Timestamps are stored as deltas of the *bit images* of the double
// millisecond values: for nonnegative doubles, the u64 bit pattern is
// monotone in the value (the same trick the event queue uses to pack
// (time, seq) into one u64 key), so sorted times give nonnegative deltas
// that varint-encode compactly AND round-trip bit-exactly.  Bit-exact
// timestamps are what make the differential test trivial: a compiled trace
// drives RunExperiment through the identical event sequence as its ASCII
// source, so results match at 0 ulp, not just 1e-12.
//
// Every byte of a well-formed file is covered by one of the four FNV-1a
// checksums (header, index, per-block, footer), and both checksum steps are
// injective per byte, so any single-byte corruption is detected — the
// robustness suite in tests/trace_compile_test.cc flips bytes at every
// offset and asserts the reader fails closed instead of replaying garbage.
//
// This header and format.cc are the ONLY place raw-byte deserialization is
// allowed (simlint HIB026): everything else consumes TraceRecords through
// the WorkloadSource interface.
#ifndef HIBERNATOR_SRC_TRACE_FORMAT_H_
#define HIBERNATOR_SRC_TRACE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/trace/trace.h"
#include "src/util/units.h"

namespace hib {

// ---------------------------------------------------------------------------
// On-disk layout constants (exposed so the corruption tests can perform
// precise surgery on well-formed files).

inline constexpr std::uint32_t kTraceMagic = 0x54424948u;        // "HIBT"
inline constexpr std::uint32_t kTraceFooterMagic = 0x46424948u;  // "HIBF"
inline constexpr std::uint32_t kTraceVersion = 1;

inline constexpr std::int64_t kTraceHeaderBytes = 72;
inline constexpr std::int64_t kTraceBlockHeaderBytes = 24;
inline constexpr std::int64_t kTraceRecordBytes = 16;
inline constexpr std::int64_t kTraceFooterBytes = 96;
// Byte offset of block_checksum within a block (the only bytes a block's own
// checksum cannot cover).
inline constexpr std::int64_t kTraceBlockChecksumOffset = 8;

// Incremental FNV-1a over `len` bytes, continuing from `state`.  Exposed for
// the corruption tests, which re-seal blocks after deliberate damage.
std::uint64_t Fnv1a64(const void* bytes, std::size_t len,
                      std::uint64_t state = 0xcbf29ce484222325ull);

// ---------------------------------------------------------------------------
// Summary footer, as reported by `tracec info` and used for replay hints.
// Fixed 80-byte layout; stored verbatim in the file footer.

struct TraceStats {
  std::int64_t records = 0;
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  std::int64_t total_sectors = 0;
  std::int64_t min_lba = 0;
  std::int64_t max_lba_end = 0;  // max over records of lba + count
  SimTime first_time;
  SimTime last_time;
  double peak_iops = 0.0;  // max arrival rate over any 1-second window
  double mean_iops = 0.0;

  double ReadFraction() const {
    return records > 0 ? static_cast<double>(reads) / static_cast<double>(records) : 0.0;
  }
};

// ---------------------------------------------------------------------------
// Compiler: records in, bytes out.

struct TraceCompileOptions {
  std::int64_t records_per_block = 4096;
  // Address space recorded in the header.  0 = take WorkloadSource's (or, in
  // CompileRecords, round max_lba_end up to the next power of two).
  SectorAddr address_space_sectors = 0;
};

struct TraceCompileResult {
  bool ok = false;
  std::string error;  // non-empty when !ok
  std::int64_t records = 0;
  std::int64_t bytes = 0;
  TraceStats stats;
};

// Compiles an explicit record list.  Records may arrive out of order (the
// compiler stable-sorts by timestamp); they must have finite nonnegative
// times, lba >= 0, count >= 1, lba + count <= the address space, and stream
// ids in [0, 65535].
TraceCompileResult CompileRecords(std::vector<TraceRecord> records,
                                  std::string* out,
                                  const TraceCompileOptions& options = {});

// Drains `source` (call source.Reset() afterwards to reuse it) and compiles
// everything it yields.  `max_records` caps the drain; -1 = to exhaustion.
TraceCompileResult CompileTrace(WorkloadSource& source, std::string* out,
                                const TraceCompileOptions& options = {},
                                std::int64_t max_records = -1);

// Same, writing the bytes to `path`.
TraceCompileResult CompileTraceToFile(WorkloadSource& source, const std::string& path,
                                      const TraceCompileOptions& options = {},
                                      std::int64_t max_records = -1);

// ---------------------------------------------------------------------------
// Replay cursor.  Open()/FromBuffer() always return an object; a corrupt or
// unreadable input yields ok() == false with a diagnostic, and Next() then
// returns false (fail closed — never garbage records).  Validation that
// cannot be done up front (block checksums, timestamp monotonicity across
// blocks) happens lazily as blocks are entered; a mid-trace failure stops
// the stream and latches error().

class CompiledTraceReader : public WorkloadSource {
 public:
  // mmaps `path` (falling back to a plain read if mmap is unavailable).
  static std::unique_ptr<CompiledTraceReader> Open(const std::string& path);

  // Takes ownership of an in-memory compiled trace (tests, morph pipelines).
  static std::unique_ptr<CompiledTraceReader> FromBuffer(std::string bytes);

  ~CompiledTraceReader() override;
  CompiledTraceReader(const CompiledTraceReader&) = delete;
  CompiledTraceReader& operator=(const CompiledTraceReader&) = delete;

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  const TraceStats& stats() const { return stats_; }
  std::int64_t num_records() const { return num_records_; }
  std::int64_t num_blocks() const { return num_blocks_; }

  bool Next(TraceRecord* out) override;
  void Reset() override;
  SectorAddr AddressSpaceSectors() const override { return address_space_sectors_; }
  Duration DurationHint() const override { return stats_.last_time; }
  double PeakIopsHint() const override { return stats_.peak_iops; }

 private:
  CompiledTraceReader() = default;

  // Validates everything reachable without touching block payloads; latches
  // error_ on the first problem.
  void Validate();
  // Enters block `b` (checksum-verifying it on first visit).  Returns false
  // (latching error_) on any inconsistency.
  bool EnterBlock(std::int64_t b);
  // Latches the first error with an offset-stamped diagnostic.
  bool Fail(const std::string& what, std::int64_t offset);

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::string owned_;        // backing store for FromBuffer / mmap fallback
  void* mmap_base_ = nullptr;
  std::size_t mmap_len_ = 0;

  std::string error_;
  TraceStats stats_;
  SectorAddr address_space_sectors_ = 0;
  std::int64_t num_records_ = 0;
  std::int64_t num_blocks_ = 0;
  std::int64_t index_offset_ = 0;
  std::int64_t footer_offset_ = 0;

  // Cursor.
  std::int64_t block_ = -1;          // current block index; -1 = before block 0
  std::uint32_t rec_in_block_ = 0;   // records already emitted from it
  std::uint32_t block_records_ = 0;  // total records in it
  std::int64_t time_pos_ = 0;        // next varint byte
  std::int64_t time_end_ = 0;        // end of this block's varint stream
  std::int64_t rec_pos_ = 0;         // next fixed record
  std::uint64_t time_bits_ = 0;      // running timestamp bit image
  bool first_in_block_ = true;
  std::int64_t emitted_ = 0;
  std::vector<bool> block_verified_;
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_TRACE_FORMAT_H_

#include "src/trace/format.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "src/util/check.h"
#include "src/util/log.h"

namespace hib {
namespace {

// The format stores native little-endian integers and IEEE double bit images.
static_assert(std::endian::native == std::endian::little,
              "the HIBT trace format is defined little-endian");
static_assert(sizeof(TraceStats) == 80 && std::is_trivially_copyable_v<TraceStats>,
              "TraceStats is serialized verbatim into the footer");

// Bit image of inf: every finite nonnegative double is strictly below it,
// and the nonneg-double -> u64 map is monotone (same ordering trick as the
// event queue's packed keys).
constexpr std::uint64_t kInfTimeBits = 0x7ff0000000000000ull;
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

std::uint64_t TimeBits(SimTime t) { return std::bit_cast<std::uint64_t>(t); }
SimTime TimeFromBits(std::uint64_t bits) { return std::bit_cast<SimTime>(bits); }

void PutBytes(std::string* out, const void* p, std::size_t n) {
  out->append(static_cast<const char*>(p), n);
}

template <typename T>
void Put(std::string* out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  PutBytes(out, &v, sizeof v);
}

void PutVarint(std::string* out, std::uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void PadTo8(std::string* out) {
  while (out->size() % 8 != 0) {
    out->push_back('\0');
  }
}

template <typename T>
T Get(const std::uint8_t* data, std::int64_t offset) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v;
  std::memcpy(&v, data + offset, sizeof v);
  return v;
}

TraceCompileResult CompileError(std::string what) {
  TraceCompileResult r;
  r.ok = false;
  r.error = std::move(what);
  return r;
}

SectorAddr NextPow2(SectorAddr v) {
  SectorAddr p = 8;
  while (p < v) {
    p *= 2;
  }
  return p;
}

// Peak arrival rate over any sliding 1-second window of the sorted records.
double PeakWindowIops(const std::vector<TraceRecord>& records) {
  double peak = 0.0;
  std::size_t lo = 0;
  for (std::size_t hi = 0; hi < records.size(); ++hi) {
    while (records[hi].time - records[lo].time >= Seconds(1.0)) {
      ++lo;
    }
    peak = std::max(peak, static_cast<double>(hi - lo + 1));
  }
  return peak;
}

TraceStats ComputeStats(const std::vector<TraceRecord>& records) {
  TraceStats s;
  s.records = static_cast<std::int64_t>(records.size());
  if (records.empty()) {
    return s;
  }
  s.min_lba = std::numeric_limits<std::int64_t>::max();
  for (const TraceRecord& r : records) {
    (r.is_write ? s.writes : s.reads) += 1;
    s.total_sectors += r.count;
    s.min_lba = std::min(s.min_lba, r.lba);
    s.max_lba_end = std::max(s.max_lba_end, r.lba + r.count);
  }
  s.first_time = records.front().time;
  s.last_time = records.back().time;
  s.peak_iops = PeakWindowIops(records);
  double span_s = ToSeconds(s.last_time);
  s.mean_iops = span_s > 0.0 ? static_cast<double>(s.records) / span_s : s.peak_iops;
  return s;
}

}  // namespace

std::uint64_t Fnv1a64(const void* bytes, std::size_t len, std::uint64_t state) {
  const auto* p = static_cast<const std::uint8_t*>(bytes);
  for (std::size_t i = 0; i < len; ++i) {
    state = (state ^ p[i]) * 0x100000001b3ull;
  }
  return state;
}

// ---------------------------------------------------------------------------
// Compiler.

TraceCompileResult CompileRecords(std::vector<TraceRecord> records, std::string* out,
                                  const TraceCompileOptions& options) {
  HIB_CHECK(out != nullptr);
  HIB_CHECK_GT(options.records_per_block, 0);
  out->clear();

  // Sorting by value and by bit image agree for finite nonnegative doubles;
  // stable so equal-time records keep their arrival order.
  std::stable_sort(records.begin(), records.end(),
                   [](const TraceRecord& a, const TraceRecord& b) { return a.time < b.time; });

  TraceStats stats = ComputeStats(records);
  SectorAddr space = options.address_space_sectors;
  if (space <= 0) {
    space = NextPow2(stats.max_lba_end);
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    const TraceRecord& r = records[i];
    if (TimeBits(r.time) >= kInfTimeBits) {
      return CompileError("non-finite or negative timestamp in record " + std::to_string(i));
    }
    if (r.lba < 0 || r.count < 1 || r.count > std::numeric_limits<std::uint32_t>::max() ||
        r.lba > space - r.count) {
      return CompileError("lba/count outside the address space in record " + std::to_string(i));
    }
    if (r.stream < 0 || r.stream > std::numeric_limits<std::uint16_t>::max()) {
      return CompileError("stream id outside [0, 65535] in record " + std::to_string(i));
    }
  }

  const std::int64_t n = static_cast<std::int64_t>(records.size());
  const std::int64_t rpb = options.records_per_block;
  const std::int64_t num_blocks = n > 0 ? (n + rpb - 1) / rpb : 0;

  // Encode the blocks first (the index needs their sizes).
  std::string blocks;
  blocks.reserve(records.size() * 20);
  std::vector<std::uint64_t> rel_offsets;
  rel_offsets.reserve(static_cast<std::size_t>(num_blocks));
  for (std::int64_t b = 0; b < num_blocks; ++b) {
    const std::int64_t lo = b * rpb;
    const std::int64_t hi = std::min(n, lo + rpb);
    rel_offsets.push_back(blocks.size());
    const std::size_t block_start = blocks.size();

    std::string deltas;
    std::uint64_t prev_bits = TimeBits(records[static_cast<std::size_t>(lo)].time);
    for (std::int64_t j = lo + 1; j < hi; ++j) {
      std::uint64_t bits = TimeBits(records[static_cast<std::size_t>(j)].time);
      PutVarint(&deltas, bits - prev_bits);
      prev_bits = bits;
    }

    Put<std::uint64_t>(&blocks, TimeBits(records[static_cast<std::size_t>(lo)].time));
    Put<std::uint64_t>(&blocks, 0);  // checksum, patched below
    Put<std::uint32_t>(&blocks, static_cast<std::uint32_t>(hi - lo));
    Put<std::uint32_t>(&blocks, static_cast<std::uint32_t>(deltas.size()));
    blocks += deltas;
    PadTo8(&blocks);
    for (std::int64_t j = lo; j < hi; ++j) {
      const TraceRecord& r = records[static_cast<std::size_t>(j)];
      Put<std::int64_t>(&blocks, r.lba);
      Put<std::uint32_t>(&blocks, static_cast<std::uint32_t>(r.count));
      Put<std::uint16_t>(&blocks, static_cast<std::uint16_t>(r.stream));
      Put<std::uint8_t>(&blocks, r.is_write ? 1 : 0);
      Put<std::uint8_t>(&blocks, 0);
    }

    // Seal the block: the checksum covers every block byte except itself.
    const char* base = blocks.data() + block_start;
    std::uint64_t sum = Fnv1a64(base, 8, kFnvOffset);
    sum = Fnv1a64(base + 16, blocks.size() - block_start - 16, sum);
    std::memcpy(blocks.data() + block_start + kTraceBlockChecksumOffset, &sum, sizeof sum);
  }

  const std::int64_t index_bytes = 8 * num_blocks + 8;
  const std::int64_t blocks_start = kTraceHeaderBytes + index_bytes;
  const std::int64_t footer_offset = blocks_start + static_cast<std::int64_t>(blocks.size());

  out->reserve(static_cast<std::size_t>(footer_offset + kTraceFooterBytes));
  Put<std::uint32_t>(out, kTraceMagic);
  Put<std::uint32_t>(out, kTraceVersion);
  Put<std::uint64_t>(out, 0);  // flags
  Put<std::int64_t>(out, space);
  Put<std::int64_t>(out, n);
  Put<std::int64_t>(out, num_blocks);
  Put<std::int64_t>(out, rpb);
  Put<std::uint64_t>(out, static_cast<std::uint64_t>(kTraceHeaderBytes));
  Put<std::uint64_t>(out, static_cast<std::uint64_t>(footer_offset));
  Put<std::uint64_t>(out, Fnv1a64(out->data(), 64));

  const std::size_t index_start = out->size();
  for (std::uint64_t rel : rel_offsets) {
    Put<std::uint64_t>(out, static_cast<std::uint64_t>(blocks_start) + rel);
  }
  Put<std::uint64_t>(out, Fnv1a64(out->data() + index_start, 8 * static_cast<std::size_t>(num_blocks)));

  *out += blocks;

  const std::size_t footer_start = out->size();
  PutBytes(out, &stats, sizeof stats);
  Put<std::uint32_t>(out, kTraceFooterMagic);
  Put<std::uint32_t>(out, 0);  // reserved
  Put<std::uint64_t>(out, Fnv1a64(out->data() + footer_start, out->size() - footer_start));

  TraceCompileResult result;
  result.ok = true;
  result.records = n;
  result.bytes = static_cast<std::int64_t>(out->size());
  result.stats = stats;
  return result;
}

TraceCompileResult CompileTrace(WorkloadSource& source, std::string* out,
                                const TraceCompileOptions& options, std::int64_t max_records) {
  std::vector<TraceRecord> records;
  TraceRecord r;
  while ((max_records < 0 || static_cast<std::int64_t>(records.size()) < max_records) &&
         source.Next(&r)) {
    records.push_back(r);
  }
  TraceCompileOptions opts = options;
  if (opts.address_space_sectors <= 0) {
    opts.address_space_sectors = source.AddressSpaceSectors();
  }
  return CompileRecords(std::move(records), out, opts);
}

TraceCompileResult CompileTraceToFile(WorkloadSource& source, const std::string& path,
                                      const TraceCompileOptions& options,
                                      std::int64_t max_records) {
  std::string bytes;
  TraceCompileResult result = CompileTrace(source, &bytes, options, max_records);
  if (!result.ok) {
    return result;
  }
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  f.flush();
  if (!f) {
    return CompileError("cannot write compiled trace to " + path);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Reader.

std::unique_ptr<CompiledTraceReader> CompiledTraceReader::FromBuffer(std::string bytes) {
  auto reader = std::unique_ptr<CompiledTraceReader>(new CompiledTraceReader());
  reader->owned_ = std::move(bytes);
  reader->data_ = reinterpret_cast<const std::uint8_t*>(reader->owned_.data());
  reader->size_ = reader->owned_.size();
  reader->Validate();
  return reader;
}

std::unique_ptr<CompiledTraceReader> CompiledTraceReader::Open(const std::string& path) {
  auto reader = std::unique_ptr<CompiledTraceReader>(new CompiledTraceReader());
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    reader->Fail("cannot open compiled trace '" + path + "'", 0);
    return reader;
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    reader->Fail("cannot stat compiled trace '" + path + "'", 0);
    return reader;
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  void* base = size > 0 ? ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0) : MAP_FAILED;
  if (base != MAP_FAILED) {
    reader->mmap_base_ = base;
    reader->mmap_len_ = size;
    reader->data_ = static_cast<const std::uint8_t*>(base);
    reader->size_ = size;
    ::close(fd);
  } else {
    // mmap can fail on exotic filesystems; fall back to a plain read.
    ::close(fd);
    std::ifstream f(path, std::ios::binary);
    reader->owned_.assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
    if (!f) {
      reader->Fail("cannot read compiled trace '" + path + "'", 0);
      return reader;
    }
    reader->data_ = reinterpret_cast<const std::uint8_t*>(reader->owned_.data());
    reader->size_ = reader->owned_.size();
  }
  reader->Validate();
  return reader;
}

CompiledTraceReader::~CompiledTraceReader() {
  if (mmap_base_ != nullptr) {
    ::munmap(mmap_base_, mmap_len_);
  }
}

bool CompiledTraceReader::Fail(const std::string& what, std::int64_t offset) {
  if (error_.empty()) {
    error_ = "compiled trace check failed: " + what + " @ byte " + std::to_string(offset);
    HIB_LOG(kWarning) << error_;
  }
  return false;
}

void CompiledTraceReader::Validate() {
  if (!error_.empty()) {
    return;
  }
  const std::int64_t size = static_cast<std::int64_t>(size_);
  if (size < kTraceHeaderBytes + kTraceFooterBytes) {
    Fail("file too small for header + footer", size);
    return;
  }
  if (Get<std::uint32_t>(data_, 0) != kTraceMagic) {
    Fail("bad magic (not a HIBT trace)", 0);
    return;
  }
  if (Get<std::uint32_t>(data_, 4) != kTraceVersion) {
    Fail("unsupported version " + std::to_string(Get<std::uint32_t>(data_, 4)), 4);
    return;
  }
  if (Get<std::uint64_t>(data_, 64) != Fnv1a64(data_, 64)) {
    Fail("header checksum mismatch", 64);
    return;
  }
  address_space_sectors_ = Get<std::int64_t>(data_, 16);
  num_records_ = Get<std::int64_t>(data_, 24);
  num_blocks_ = Get<std::int64_t>(data_, 32);
  const std::int64_t rpb = Get<std::int64_t>(data_, 40);
  index_offset_ = static_cast<std::int64_t>(Get<std::uint64_t>(data_, 48));
  footer_offset_ = static_cast<std::int64_t>(Get<std::uint64_t>(data_, 56));
  if (address_space_sectors_ <= 0 || num_records_ < 0 || rpb < 1) {
    Fail("implausible header fields", 16);
    return;
  }
  if (num_blocks_ != (num_records_ > 0 ? (num_records_ + rpb - 1) / rpb : 0)) {
    Fail("block count inconsistent with record count", 32);
    return;
  }
  if (index_offset_ != kTraceHeaderBytes) {
    Fail("bad index offset", 48);
    return;
  }
  if (num_blocks_ > (size - kTraceHeaderBytes - kTraceFooterBytes) / 8) {
    Fail("block index larger than the file", 32);
    return;
  }
  const std::int64_t index_end = index_offset_ + 8 * num_blocks_ + 8;
  if (footer_offset_ != size - kTraceFooterBytes || footer_offset_ < index_end) {
    Fail("bad footer offset (truncated file?)", 56);
    return;
  }
  const std::size_t footer_sum_bytes = static_cast<std::size_t>(kTraceFooterBytes) - 8;
  if (Get<std::uint64_t>(data_, footer_offset_ + kTraceFooterBytes - 8) !=
      Fnv1a64(data_ + footer_offset_, footer_sum_bytes)) {
    Fail("footer checksum mismatch", footer_offset_);
    return;
  }
  if (Get<std::uint32_t>(data_, footer_offset_ + 80) != kTraceFooterMagic) {
    Fail("bad footer magic", footer_offset_ + 80);
    return;
  }
  if (Get<std::uint64_t>(data_, index_end - 8) !=
      Fnv1a64(data_ + index_offset_, 8 * static_cast<std::size_t>(num_blocks_))) {
    Fail("block index checksum mismatch", index_offset_);
    return;
  }
  std::memcpy(&stats_, data_ + footer_offset_, sizeof stats_);
  if (stats_.records != num_records_) {
    Fail("footer record count disagrees with header", footer_offset_);
    return;
  }
  block_verified_.assign(static_cast<std::size_t>(num_blocks_), false);
  Reset();
}

bool CompiledTraceReader::EnterBlock(std::int64_t b) {
  const std::int64_t index_end = index_offset_ + 8 * num_blocks_ + 8;
  const std::uint64_t raw_offset = Get<std::uint64_t>(data_, index_offset_ + 8 * b);
  if (raw_offset > static_cast<std::uint64_t>(footer_offset_ - kTraceBlockHeaderBytes)) {
    return Fail("block offset outside the file", index_offset_ + 8 * b);
  }
  const std::int64_t offset = static_cast<std::int64_t>(raw_offset);
  if (offset < index_end || offset % 8 != 0) {
    return Fail("misaligned block offset", index_offset_ + 8 * b);
  }
  const std::uint64_t base_bits = Get<std::uint64_t>(data_, offset);
  const std::uint64_t stored_sum = Get<std::uint64_t>(data_, offset + 8);
  const std::uint32_t nrec = Get<std::uint32_t>(data_, offset + 16);
  const std::uint32_t tbytes = Get<std::uint32_t>(data_, offset + 20);
  if (nrec < 1) {
    return Fail("empty block", offset);
  }
  const std::int64_t time_start = offset + kTraceBlockHeaderBytes;
  const std::int64_t time_end = time_start + static_cast<std::int64_t>(tbytes);
  const std::int64_t rec_start = (time_end + 7) & ~std::int64_t{7};
  if (time_end < time_start || rec_start > footer_offset_ - 16 * static_cast<std::int64_t>(nrec)) {
    return Fail("block overruns the file (truncated block?)", offset);
  }
  const std::int64_t block_end = rec_start + 16 * static_cast<std::int64_t>(nrec);
  if (emitted_ + static_cast<std::int64_t>(nrec) > num_records_) {
    return Fail("block overruns the trace record count", offset);
  }
  if (!block_verified_[static_cast<std::size_t>(b)]) {
    std::uint64_t sum = Fnv1a64(data_ + offset, 8, kFnvOffset);
    sum = Fnv1a64(data_ + offset + 16, static_cast<std::size_t>(block_end - offset - 16), sum);
    if (sum != stored_sum) {
      return Fail("block checksum mismatch", offset);
    }
    block_verified_[static_cast<std::size_t>(b)] = true;
  }
  if (base_bits >= kInfTimeBits) {
    return Fail("non-finite block base timestamp", offset);
  }
  if (emitted_ > 0 && base_bits < time_bits_) {
    return Fail("non-monotonic block base timestamp", offset);
  }
  block_records_ = nrec;
  rec_in_block_ = 0;
  time_pos_ = time_start;
  time_end_ = time_end;
  rec_pos_ = rec_start;
  time_bits_ = base_bits;
  first_in_block_ = true;
  return true;
}

bool CompiledTraceReader::Next(TraceRecord* out) {
  if (!error_.empty()) {
    return false;
  }
  if (block_ < 0) {
    if (num_blocks_ == 0) {
      return false;
    }
    block_ = 0;
    if (!EnterBlock(0)) {
      return false;
    }
  }
  while (rec_in_block_ == block_records_) {
    ++block_;
    if (block_ >= num_blocks_) {
      if (emitted_ != num_records_) {
        Fail("trace ended with fewer records than the header promised",
             static_cast<std::int64_t>(size_));
      }
      return false;
    }
    if (!EnterBlock(block_)) {
      return false;
    }
  }

  if (first_in_block_) {
    first_in_block_ = false;  // time_bits_ already holds the block base
  } else {
    std::uint64_t delta = 0;
    int shift = 0;
    while (true) {
      if (time_pos_ >= time_end_) {
        Fail("truncated varint timestamp delta", time_pos_);
        return false;
      }
      const std::uint8_t byte = data_[time_pos_++];
      if (shift == 63 && byte > 1) {
        Fail("overflowing varint timestamp delta", time_pos_ - 1);
        return false;
      }
      delta |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        break;
      }
      shift += 7;
      if (shift > 63) {
        Fail("overflowing varint timestamp delta", time_pos_ - 1);
        return false;
      }
    }
    if (delta > kInfTimeBits - time_bits_) {
      Fail("timestamp delta overflows past infinity", time_pos_);
      return false;
    }
    time_bits_ += delta;
    if (time_bits_ >= kInfTimeBits) {
      Fail("non-finite timestamp", time_pos_);
      return false;
    }
  }

  const std::int64_t lba = Get<std::int64_t>(data_, rec_pos_);
  const std::uint32_t count = Get<std::uint32_t>(data_, rec_pos_ + 8);
  const std::uint16_t stream = Get<std::uint16_t>(data_, rec_pos_ + 12);
  const std::uint8_t flags = Get<std::uint8_t>(data_, rec_pos_ + 14);
  if (lba < 0 || count < 1 ||
      lba > address_space_sectors_ - static_cast<SectorCount>(count)) {
    Fail("record lba/count outside the address space", rec_pos_);
    return false;
  }
  out->time = TimeFromBits(time_bits_);
  out->lba = lba;
  out->count = static_cast<SectorCount>(count);
  out->is_write = (flags & 1) != 0;
  out->stream = stream;
  rec_pos_ += kTraceRecordBytes;
  ++rec_in_block_;
  ++emitted_;
  return true;
}

void CompiledTraceReader::Reset() {
  // A corrupt trace stays corrupt: error_ latches, so a Reset() after a
  // mid-stream failure does not reopen the garbage for replay.
  block_ = -1;
  rec_in_block_ = 0;
  block_records_ = 0;
  time_pos_ = 0;
  time_end_ = 0;
  rec_pos_ = 0;
  time_bits_ = 0;
  first_in_block_ = true;
  emitted_ = 0;
}

}  // namespace hib

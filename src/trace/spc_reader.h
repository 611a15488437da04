// Reader for SPC-1-style ASCII block traces, so genuine traces (Cello99
// exports, UMass/SPC traces, Microsoft production traces converted to this
// form) can replace the synthetic generators.
//
// Line format (comma separated, one request per line):
//
//   asu,lba,size_bytes,opcode,timestamp
//
//   asu        integer application storage unit id (mapped to an address
//              offset: each ASU gets a contiguous slice of the space)
//   lba        sector address within the ASU
//   size_bytes request size in bytes (rounded up to whole sectors)
//   opcode     "r"/"R" for reads, "w"/"W" for writes
//   timestamp  seconds from trace start (float, nondecreasing)
//
// Blank lines and lines starting with '#' are skipped.
#ifndef HIBERNATOR_SRC_TRACE_SPC_READER_H_
#define HIBERNATOR_SRC_TRACE_SPC_READER_H_

#include <fstream>
#include <istream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/trace/trace.h"

namespace hib {

// What to do with a record whose timestamp runs backwards.  SPC traces are
// sorted by definition, so a backwards timestamp means the file is damaged
// or was concatenated wrong — silently repairing it (the old clamp behavior)
// would hide exactly the corruption the trace compiler needs surfaced.
enum class TimeOrderPolicy {
  kReject,  // drop the record, count it in time_order_errors(), keep going
  kAccept,  // pass records through unordered (the trace compiler sorts)
};

class SpcTraceReader : public WorkloadSource {
 public:
  // Reads from a file on disk.  `asu_slice_sectors` is the address-space
  // slice reserved per ASU; LBAs beyond a slice wrap within it.
  SpcTraceReader(std::string path, SectorAddr address_space_sectors, int max_asus = 8,
                 TimeOrderPolicy time_order = TimeOrderPolicy::kReject);

  // Reads from an in-memory string (tests).
  static std::unique_ptr<SpcTraceReader> FromString(std::string contents,
                                                    SectorAddr address_space_sectors,
                                                    int max_asus = 8,
                                                    TimeOrderPolicy time_order = TimeOrderPolicy::kReject);

  bool Next(TraceRecord* out) override;
  void Reset() override;
  SectorAddr AddressSpaceSectors() const override { return address_space_sectors_; }

  // Number of malformed lines skipped so far.
  std::int64_t parse_errors() const { return parse_errors_; }

  // Number of records rejected for non-monotonic timestamps (kReject only).
  // Cleared by Reset(): the monotonicity check restarts with the stream.
  std::int64_t time_order_errors() const { return time_order_errors_; }

 private:
  SpcTraceReader(SectorAddr address_space_sectors, int max_asus, TimeOrderPolicy time_order);
  void OpenStream();
  bool ParseLine(const std::string& line, TraceRecord* out);

  std::string path_;           // empty when reading from memory
  std::string memory_buffer_;  // used when path_ is empty
  std::unique_ptr<std::istream> stream_;
  SectorAddr address_space_sectors_;
  int max_asus_;
  SectorAddr asu_slice_sectors_;
  TimeOrderPolicy time_order_;
  std::int64_t parse_errors_ = 0;
  std::int64_t time_order_errors_ = 0;
  std::int64_t line_number_ = 0;
  SimTime last_time_;
};

}  // namespace hib

#endif  // HIBERNATOR_SRC_TRACE_SPC_READER_H_

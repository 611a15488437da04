// Writer for the SPC-1-style ASCII trace format read by SpcTraceReader.
//
// Lets any WorkloadSource (including the synthetic OLTP/Cello generators) be
// exported to a portable text trace — useful for sharing repeatable inputs or
// feeding other simulators.  Round-trips with SpcTraceReader: write, read
// back, and the record stream matches (modulo the reader's ASU slicing, which
// Export sidesteps by emitting everything as ASU 0).
#ifndef HIBERNATOR_SRC_TRACE_SPC_WRITER_H_
#define HIBERNATOR_SRC_TRACE_SPC_WRITER_H_

#include <ostream>

#include "src/trace/trace.h"

namespace hib {

class SpcTraceWriter {
 public:
  // Writes records to `out` as "asu,lba,size_bytes,opcode,timestamp" lines.
  explicit SpcTraceWriter(std::ostream* out);

  // Appends one record; returns false (and writes nothing) if the record is
  // malformed (negative lba/time, nonpositive size) or goes back in time.
  bool Write(const TraceRecord& record);

  std::int64_t records_written() const { return records_written_; }

 private:
  std::ostream* out_;
  std::int64_t records_written_ = 0;
  SimTime last_time_;
};

// Drains `source` into `out`; returns the number of records written.
// `max_records` < 0 means no cap.
std::int64_t ExportSpcTrace(WorkloadSource& source, std::ostream& out,
                            std::int64_t max_records = -1);

}  // namespace hib

#endif  // HIBERNATOR_SRC_TRACE_SPC_WRITER_H_

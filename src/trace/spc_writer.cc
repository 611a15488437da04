#include "src/trace/spc_writer.h"

#include <iomanip>

namespace hib {

SpcTraceWriter::SpcTraceWriter(std::ostream* out) : out_(out) {}

bool SpcTraceWriter::Write(const TraceRecord& record) {
  if (record.lba < 0 || record.count <= 0 || record.time < last_time_ ||
      record.time < SimTime{}) {
    return false;
  }
  // ASU 0 keeps the reader's slicing out of the address math on round-trip.
  *out_ << 0 << ',' << record.lba << ',' << record.count * kSectorBytes << ','
        << (record.is_write ? 'w' : 'r') << ',' << std::fixed << std::setprecision(6)
        << ToSeconds(record.time) << '\n';
  last_time_ = record.time;
  ++records_written_;
  return true;
}

std::int64_t ExportSpcTrace(WorkloadSource& source, std::ostream& out,
                            std::int64_t max_records) {
  SpcTraceWriter writer(&out);
  TraceRecord record;
  while ((max_records < 0 || writer.records_written() < max_records) && source.Next(&record)) {
    writer.Write(record);
  }
  return writer.records_written();
}

}  // namespace hib

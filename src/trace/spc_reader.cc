#include "src/trace/spc_reader.h"

#include <algorithm>
#include <cstdlib>

#include "src/util/log.h"

namespace hib {

SpcTraceReader::SpcTraceReader(SectorAddr address_space_sectors, int max_asus,
                               TimeOrderPolicy time_order)
    : address_space_sectors_(address_space_sectors),
      max_asus_(std::max(1, max_asus)),
      asu_slice_sectors_(address_space_sectors / std::max(1, max_asus)),
      time_order_(time_order) {}

SpcTraceReader::SpcTraceReader(std::string path, SectorAddr address_space_sectors, int max_asus,
                               TimeOrderPolicy time_order)
    : SpcTraceReader(address_space_sectors, max_asus, time_order) {
  path_ = std::move(path);
  OpenStream();
}

std::unique_ptr<SpcTraceReader> SpcTraceReader::FromString(std::string contents,
                                                           SectorAddr address_space_sectors,
                                                           int max_asus,
                                                           TimeOrderPolicy time_order) {
  auto reader = std::unique_ptr<SpcTraceReader>(
      new SpcTraceReader(address_space_sectors, max_asus, time_order));
  reader->memory_buffer_ = std::move(contents);
  reader->OpenStream();
  return reader;
}

void SpcTraceReader::OpenStream() {
  if (!path_.empty()) {
    stream_ = std::make_unique<std::ifstream>(path_);
  } else {
    stream_ = std::make_unique<std::istringstream>(memory_buffer_);
  }
  last_time_ = SimTime{};
}

bool SpcTraceReader::ParseLine(const std::string& line, TraceRecord* out) {
  // asu,lba,size_bytes,opcode,timestamp
  std::istringstream in(line);
  std::string field;
  auto next_field = [&](std::string* dst) {
    return static_cast<bool>(std::getline(in, *dst, ','));
  };
  std::string asu_s, lba_s, size_s, op_s, ts_s;
  if (!next_field(&asu_s) || !next_field(&lba_s) || !next_field(&size_s) ||
      !next_field(&op_s) || !next_field(&ts_s)) {
    return false;
  }
  char* end = nullptr;
  long asu = std::strtol(asu_s.c_str(), &end, 10);
  if (end == asu_s.c_str() || asu < 0) {
    return false;
  }
  long long lba = std::strtoll(lba_s.c_str(), &end, 10);
  if (end == lba_s.c_str() || lba < 0) {
    return false;
  }
  long long size_bytes = std::strtoll(size_s.c_str(), &end, 10);
  if (end == size_s.c_str() || size_bytes <= 0) {
    return false;
  }
  // Trim whitespace from the opcode.
  std::string op;
  for (char c : op_s) {
    if (!isspace(static_cast<unsigned char>(c))) {
      op.push_back(c);
    }
  }
  if (op != "r" && op != "R" && op != "w" && op != "W") {
    return false;
  }
  double ts = std::strtod(ts_s.c_str(), &end);
  if (end == ts_s.c_str() || ts < 0.0) {
    return false;
  }

  SectorCount count = (size_bytes + kSectorBytes - 1) / kSectorBytes;
  count = std::min<SectorCount>(count, std::max<SectorCount>(1, asu_slice_sectors_));
  SectorAddr base = (asu % max_asus_) * asu_slice_sectors_;
  SectorAddr offset = asu_slice_sectors_ > count
                          ? lba % (asu_slice_sectors_ - count + 1)
                          : 0;
  out->lba = std::min(base + offset, address_space_sectors_ - count);
  out->count = count;
  out->is_write = (op == "w" || op == "W");
  out->time = Seconds(ts);
  out->stream = static_cast<int>(asu);
  return true;
}

bool SpcTraceReader::Next(TraceRecord* out) {
  if (!stream_ || !*stream_) {
    return false;
  }
  std::string line;
  while (std::getline(*stream_, line)) {
    ++line_number_;
    // CRLF traces (SPC files often come from Windows tooling): getline stops
    // at '\n' and leaves the '\r' on the line — strip it so it neither turns
    // a blank line into a "parse error" nor rides into the last field.
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    // Skip blank (including whitespace-only) and comment lines.
    if (line.find_first_not_of(" \t") == std::string::npos || line[0] == '#') {
      continue;
    }
    if (!ParseLine(line, out)) {
      ++parse_errors_;
      continue;
    }
    if (time_order_ != TimeOrderPolicy::kAccept && out->time < last_time_) {
      // SPC traces are sorted by definition; a backwards timestamp means the
      // file is damaged, not that the clock should be repaired for it.
      ++time_order_errors_;
      if (time_order_errors_ == 1) {
        HIB_LOG(kWarning) << "SPC trace: rejecting non-monotonic record at line " << line_number_
                          << " (" << out->time << " after " << last_time_ << ")";
      }
      continue;
    }
    if (time_order_ != TimeOrderPolicy::kAccept) {
      last_time_ = out->time;
    }
    return true;
  }
  return false;
}

void SpcTraceReader::Reset() {
  OpenStream();
  line_number_ = 0;
  // The monotonicity check restarts with the stream, so its error count does
  // too; parse_errors_ stays cumulative across passes.
  time_order_errors_ = 0;
}

}  // namespace hib

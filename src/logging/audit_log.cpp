#include "logging/audit_log.hpp"

#include <string>

namespace manet::logging {

void write_record(net::ByteWriter<std::endian::little>& w,
                  const LogRecord& record) {
  w.time(record.time);
  w.node(record.node);
  w.str(record.event);
  w.count(record.fields.size());
  // Values go out as their text form, the v2 layout; the scratch buffer
  // keeps rendering ids allocation-free after its first growth.
  thread_local std::string value;
  for (const auto& field : record.fields) {
    w.str(field.key);
    value.clear();
    field.render(value);
    w.str(value);
  }
}

void AuditWriter::begin_frame(AuditFrame kind) {
  if (frame_size_at_ != SIZE_MAX)
    throw AuditError{"audit frame already open"};
  u8(static_cast<std::uint8_t>(kind));
  frame_size_at_ = size_prefix<std::uint32_t>();
}

void AuditWriter::end_frame() {
  if (frame_size_at_ == SIZE_MAX) throw AuditError{"no audit frame open"};
  patch_size<std::uint32_t>(frame_size_at_, size() - frame_size_at_ - 4);
  frame_size_at_ = SIZE_MAX;
}

void AuditWriter::line(const LogRecord& record) {
  begin_frame(AuditFrame::kLine);
  write_record(*this, record);
  end_frame();
}

AuditReader::FrameHeader AuditReader::begin_frame() {
  FrameHeader frame;
  const auto kind = u8();
  if (kind < static_cast<std::uint8_t>(AuditFrame::kLine) ||
      kind > static_cast<std::uint8_t>(AuditFrame::kForwardAudit))
    throw AuditError{"unknown audit frame kind " + std::to_string(kind)};
  frame.kind = static_cast<AuditFrame>(kind);
  const std::uint32_t size = u32();
  if (size > remaining()) throw AuditError{"truncated audit frame"};
  frame.end = pos() + size;
  return frame;
}

void AuditReader::end_frame(const FrameHeader& frame) {
  if (pos() != frame.end)
    throw AuditError{"audit frame payload size mismatch"};
}

}  // namespace manet::logging

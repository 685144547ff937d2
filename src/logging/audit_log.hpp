#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>

#include "logging/record.hpp"
#include "net/byte_codec.hpp"

namespace manet::logging {

/// First bytes of every audit log ("MNTA" little-endian) and the format
/// version. Same compatibility rule as the checkpoint codec
/// (faults/checkpoint.hpp): a reader accepts exactly its own version —
/// the stream is a byte-exact replay input, so any frame-layout change
/// bumps the version and invalidates old files. Version 2 added the
/// kForwardAudit frame kind (forwarding-audit grayhole detection).
inline constexpr std::uint32_t kAuditMagic = 0x41544E4Du;  // "MNTA"
inline constexpr std::uint32_t kAuditVersion = 2;

/// Thrown on malformed, truncated or version-mismatched audit logs.
struct AuditError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Frame kinds of the audit stream. kLine payloads are encoded/decoded
/// here (they are plain LogRecords); kRound and kDecay payloads belong to
/// the detection layer (core/audit_event.hpp) — this layer only frames
/// them.
enum class AuditFrame : std::uint8_t {
  kLine = 1,   ///< one audit-log line of the node's routing daemon
  kRound = 2,  ///< one completed investigation round (core codec)
  kDecay = 3,  ///< one idle-slot trust decay sweep (core codec)
  /// One closed forwarding-audit window tally for an audited MPR (core
  /// codec; observability of the grayhole producer — carries no trust
  /// updates on replay).
  kForwardAudit = 4,
};

/// Byte layout of one LogRecord — time, node, event, field count, then the
/// key/value strings — shared by audit kLine frames and the checkpoint's
/// log images. Node and node-list values are written as their text form
/// (LogField::render) and read back into ids, so the bytes are those of a
/// record whose values were all strings.
void write_record(net::ByteWriter<std::endian::little>& w,
                  const LogRecord& record);

/// Least wire bytes of one record field (two empty strings) and of one
/// record (time, node, empty event, field count): the count() bounds that
/// stop a corrupt count from reserving more than the input can hold.
inline constexpr std::size_t kRecordFieldMinBytes = 16;
inline constexpr std::size_t kRecordMinBytes = 28;

/// Reads one record written by write_record into `record`, reusing its
/// storage (a replay decoding into one record allocates only to grow); a
/// node or node-list value that is not ids throws `Error`.
template <class Error>
void read_record(net::ByteReader<std::endian::little, Error>& r,
                 LogRecord& record) {
  record.time = r.time();
  record.node = r.node();
  record.event.assign(r.str());
  record.fields.resize(r.count(kRecordFieldMinBytes));
  for (auto& field : record.fields) {
    field.key.assign(r.str());
    try {
      field.parse_value(r.str());
    } catch (const std::invalid_argument& e) {
      throw Error{e.what()};
    }
  }
}

template <class Error>
LogRecord read_record(net::ByteReader<std::endian::little, Error>& r) {
  LogRecord record;
  read_record(r, record);
  return record;
}

/// Little-endian writer of the audit-log format. Frames are length-prefixed
/// ([u8 kind][u32 size][payload]) so a reader can validate truncation per
/// frame.
class AuditWriter : public net::ByteWriter<std::endian::little> {
 public:
  /// Opens a frame: writes the kind byte and reserves the size prefix.
  /// Frames do not nest.
  void begin_frame(AuditFrame kind);
  /// Closes the open frame, patching the size prefix.
  void end_frame();

  /// One whole kLine frame (the LogStore writer mode calls this on every
  /// append).
  void line(const LogRecord& record);

 private:
  std::size_t frame_size_at_ = SIZE_MAX;  ///< position of the open size prefix
};

/// Bounds-checked reader over an audit log held in (possibly mmapped)
/// memory; throws AuditError instead of reading past the end.
class AuditReader : public net::ByteReader<std::endian::little, AuditError> {
 public:
  using ByteReader::ByteReader;

  /// One frame header. The returned `end` is the absolute position just
  /// past the payload; a size prefix pointing past the buffer throws.
  struct FrameHeader {
    AuditFrame kind;
    std::size_t end = 0;
  };
  FrameHeader begin_frame();
  /// Validates the payload was consumed exactly (decode drift = corruption).
  void end_frame(const FrameHeader& frame);
};

}  // namespace manet::logging

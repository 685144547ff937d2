#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "net/packet.hpp"
#include "olsr/messages.hpp"

namespace manet::olsr {

/// RFC 3626 wire (de)serialization, big-endian, including the
/// mantissa/exponent encoding of validity times (§18.3). Deserialization
/// throws WireError on truncated or inconsistent input — a receiver drops
/// such packets, exactly like a real daemon.

struct WireError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Vtime/Htime 8-bit encoding: value = C * (1 + a/16) * 2^b seconds with
/// C = 1/16 s, a = high nibble, b = low nibble.
std::uint8_t encode_vtime(sim::Duration d);
sim::Duration decode_vtime(std::uint8_t encoded);

net::Bytes serialize_packet(const OlsrPacket& packet);
OlsrPacket parse_packet(const net::Bytes& bytes);

/// Size in bytes a message will occupy on the wire (header included).
std::size_t wire_size(const Message& message);

/// The neighbor lists one HELLO advertises, as every receiver reads them.
struct HelloLists {
  /// HelloMessage::symmetric_neighbors(): SYM link or SYM/MPR neighbor
  /// type, first occurrence in wire order.
  std::vector<NodeId> sym;
  /// Addresses under ASYM_LINK + NOT_NEIGH, in wire order.
  std::vector<NodeId> asym;
};

/// One received payload, decoded once: the packet plus each HELLO's
/// advertised lists, or the WireError that rejected the bytes.
struct DecodedFrame {
  OlsrPacket packet;                    ///< empty when `error` is set
  /// Parallel to packet.messages when the packet carries a HELLO, else
  /// empty (no allocation for TC, MID, HNA and DATA frames).
  std::vector<HelloLists> hello_lists;
  std::optional<WireError> error;
};

/// parse_packet plus the HELLO lists; never throws (a WireError is kept).
DecodedFrame decode_frame(const net::Bytes& bytes);

/// The decode of `packet`'s payload, memoized on the shared payload: the
/// first receiver decodes (one obs::Hot::kFramesDecoded), every later
/// receiver of the same payload reads the same frame. Valid while the
/// packet holds its payload.
const DecodedFrame& decoded(const net::Packet& packet);

}  // namespace manet::olsr

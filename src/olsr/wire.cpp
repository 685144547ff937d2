#include "olsr/wire.hpp"

#include <bit>
#include <cmath>
#include <type_traits>

#include "net/byte_codec.hpp"
#include "obs/obs.hpp"

namespace manet::olsr {
namespace {

using ByteWriter = net::ByteWriter<std::endian::big>;
using ByteReader = net::ByteReader<std::endian::big, WireError>;

constexpr double kVtimeScale = 1.0 / 16.0;  // C in seconds

/// type + vtime + size + originator + ttl + hop count + seq num (§3.3).
constexpr std::size_t kMessageHeaderSize = 12;

void write_body(ByteWriter& w, const HelloMessage& h) {
  w.u16(0);  // reserved
  w.u8(encode_vtime(h.htime));
  w.u8(static_cast<std::uint8_t>(h.willingness));
  for (const auto& [code, addrs] : h.link_groups) {
    w.u8(code);
    w.u8(0);  // reserved
    w.narrow_count<std::uint16_t>(4 + 4 * addrs.size());
    for (auto a : addrs) w.node(a);
  }
}

void write_body(ByteWriter& w, const TcMessage& t) {
  w.u16(t.ansn);
  w.u16(0);  // reserved
  for (auto a : t.advertised) w.node(a);
}

void write_body(ByteWriter& w, const MidMessage& m) {
  for (auto a : m.interfaces) w.node(a);
}

void write_body(ByteWriter& w, const HnaMessage& h) {
  for (const auto& e : h.entries) {
    w.u32(e.network);
    w.u32(e.prefix_len == 0 ? 0u
                            : (~0u << (32 - e.prefix_len)));
  }
}

void write_body(ByteWriter& w, const DataMessage& d) {
  w.node(d.source);
  w.node(d.destination);
  w.narrow_count<std::uint8_t>(d.route.size());
  w.narrow_count<std::uint8_t>(d.trace.size());
  w.u16(d.protocol);
  for (auto hop : d.route) w.node(hop);
  for (auto hop : d.trace) w.node(hop);
  w.narrow_count<std::uint16_t>(d.payload.size());
  w.blob(d.payload.data(), d.payload.size());
}

/// Exact serialized body size per message type — lets serialize_packet
/// reserve the output buffer in one shot and wire_size() skip serializing.
std::size_t body_wire_size(const MessageBody& body) {
  return std::visit(
      [](const auto& b) -> std::size_t {
        using T = std::remove_cvref_t<decltype(b)>;
        if constexpr (std::is_same_v<T, HelloMessage>) {
          std::size_t n = 4;
          for (const auto& [code, addrs] : b.link_groups)
            n += 4 + 4 * addrs.size();
          return n;
        } else if constexpr (std::is_same_v<T, TcMessage>) {
          return 4 + 4 * b.advertised.size();
        } else if constexpr (std::is_same_v<T, MidMessage>) {
          return 4 * b.interfaces.size();
        } else if constexpr (std::is_same_v<T, HnaMessage>) {
          return 8 * b.entries.size();
        } else {
          static_assert(std::is_same_v<T, DataMessage>);
          return 14 + 4 * (b.route.size() + b.trace.size()) +
                 b.payload.size();
        }
      },
      body);
}

/// A node address; the reserved kInvalid is no node and would reach the
/// audit log as the unparseable "n?".
NodeId read_node(ByteReader& r) {
  const auto id = r.node();
  if (!id.valid()) throw WireError{"reserved node address"};
  return id;
}

HelloMessage read_hello(ByteReader& r, std::size_t body_end) {
  HelloMessage h;
  r.u16();  // reserved
  h.htime = decode_vtime(r.u8());
  h.willingness = static_cast<Willingness>(r.u8());
  while (r.pos() < body_end) {
    const auto code = r.u8();
    r.u8();  // reserved
    const auto size = r.u16();
    if (size < 4 || (size - 4) % 4 != 0) throw WireError{"bad link group size"};
    const std::size_t count = (size - 4) / 4;
    auto& group = h.link_groups[code];
    for (std::size_t i = 0; i < count; ++i) group.push_back(read_node(r));
  }
  if (r.pos() != body_end) throw WireError{"hello body overrun"};
  return h;
}

TcMessage read_tc(ByteReader& r, std::size_t body_end) {
  TcMessage t;
  t.ansn = r.u16();
  r.u16();  // reserved
  while (r.pos() + 4 <= body_end) t.advertised.push_back(read_node(r));
  if (r.pos() != body_end) throw WireError{"tc body overrun"};
  return t;
}

MidMessage read_mid(ByteReader& r, std::size_t body_end) {
  MidMessage m;
  while (r.pos() + 4 <= body_end) m.interfaces.push_back(read_node(r));
  if (r.pos() != body_end) throw WireError{"mid body overrun"};
  return m;
}

HnaMessage read_hna(ByteReader& r, std::size_t body_end) {
  HnaMessage h;
  while (r.pos() + 8 <= body_end) {
    HnaMessage::Entry e;
    e.network = r.u32();
    const auto mask = r.u32();
    e.prefix_len = static_cast<std::uint8_t>(std::popcount(mask));
    h.entries.push_back(e);
  }
  if (r.pos() != body_end) throw WireError{"hna body overrun"};
  return h;
}

DataMessage read_data(ByteReader& r, std::size_t body_end) {
  DataMessage d;
  d.source = read_node(r);
  d.destination = read_node(r);
  const auto route_len = r.u8();
  const auto trace_len = r.u8();
  d.protocol = r.u16();
  for (std::size_t i = 0; i < route_len; ++i) d.route.push_back(read_node(r));
  for (std::size_t i = 0; i < trace_len; ++i) d.trace.push_back(read_node(r));
  const auto payload_len = r.u16();
  d.payload.reserve(payload_len);
  r.bytes(d.payload, payload_len);
  if (r.pos() != body_end) throw WireError{"data body overrun"};
  return d;
}

}  // namespace

std::uint8_t encode_vtime(sim::Duration d) {
  const double seconds = d.seconds();
  if (seconds <= 0.0) return 0;
  // Find the smallest b such that seconds fits C*(1+a/16)*2^b with a in 0..15.
  for (int b = 0; b <= 15; ++b) {
    for (int a = 0; a <= 15; ++a) {
      const double v = kVtimeScale * (1.0 + a / 16.0) * std::pow(2.0, b);
      if (v + 1e-9 >= seconds)
        return static_cast<std::uint8_t>((a << 4) | b);
    }
  }
  return 0xFF;  // maximum representable
}

sim::Duration decode_vtime(std::uint8_t encoded) {
  const int a = (encoded >> 4) & 0x0F;
  const int b = encoded & 0x0F;
  return sim::Duration::from_seconds(kVtimeScale * (1.0 + a / 16.0) *
                                     std::pow(2.0, b));
}

namespace {

void write_message(ByteWriter& w, const Message& m) {
  w.u8(static_cast<std::uint8_t>(m.header.type));
  w.u8(encode_vtime(m.header.vtime));
  const std::size_t size_at = w.size_prefix<std::uint16_t>();
  w.node(m.header.originator);
  w.u8(m.header.ttl);
  w.u8(m.header.hop_count);
  w.u16(m.header.seq_num);
  const std::size_t header_start = size_at - 2;
  std::visit([&](const auto& body) { write_body(w, body); }, m.body);
  w.patch_size<std::uint16_t>(size_at, w.size() - header_start);
}

}  // namespace

net::Bytes serialize_packet(const OlsrPacket& packet) {
  std::size_t total = 4;  // packet header
  for (const auto& m : packet.messages)
    total += kMessageHeaderSize + body_wire_size(m.body);
  ByteWriter w;
  w.reserve(total);
  const std::size_t length_at = w.size_prefix<std::uint16_t>();
  w.u16(packet.seq_num);
  for (const auto& m : packet.messages) write_message(w, m);
  w.patch_size<std::uint16_t>(length_at, w.size());
  return w.take();
}

OlsrPacket parse_packet(const net::Bytes& bytes) {
  ByteReader r{bytes};
  OlsrPacket packet;
  const auto packet_len = r.u16();
  if (packet_len != bytes.size()) throw WireError{"packet length mismatch"};
  packet.seq_num = r.u16();

  while (r.remaining() > 0) {
    Message m;
    const std::size_t msg_start = r.pos();
    m.header.type = static_cast<MessageType>(r.u8());
    m.header.vtime = decode_vtime(r.u8());
    const auto msg_size = r.u16();
    if (msg_size < 12) throw WireError{"message size too small"};
    m.header.originator = read_node(r);
    m.header.ttl = r.u8();
    m.header.hop_count = r.u8();
    m.header.seq_num = r.u16();
    const std::size_t body_end = msg_start + msg_size;
    if (body_end > bytes.size()) throw WireError{"message overruns packet"};

    switch (m.header.type) {
      case MessageType::kHello:
        m.body = read_hello(r, body_end);
        break;
      case MessageType::kTc:
        m.body = read_tc(r, body_end);
        break;
      case MessageType::kMid:
        m.body = read_mid(r, body_end);
        break;
      case MessageType::kHna:
        m.body = read_hna(r, body_end);
        break;
      case MessageType::kData:
        m.body = read_data(r, body_end);
        break;
      default:
        throw WireError{"unknown message type"};
    }
    packet.messages.push_back(std::move(m));
  }
  return packet;
}

std::size_t wire_size(const Message& message) {
  return kMessageHeaderSize + body_wire_size(message.body);
}

DecodedFrame decode_frame(const net::Bytes& bytes) {
  DecodedFrame frame;
  try {
    frame.packet = parse_packet(bytes);
  } catch (const WireError& e) {
    frame.error = e;
    return frame;
  }
  const auto& messages = frame.packet.messages;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const auto* hello = messages[i].as_hello();
    if (hello == nullptr) continue;
    frame.hello_lists.resize(messages.size());
    auto& lists = frame.hello_lists[i];
    lists.sym = hello->symmetric_neighbors();
    for (const auto& [code, addrs] : hello->link_groups)
      if (link_type_of(code) == LinkType::kAsym &&
          neighbor_type_of(code) == NeighborType::kNotNeigh)
        lists.asym.insert(lists.asym.end(), addrs.begin(), addrs.end());
  }
  return frame;
}

const DecodedFrame& decoded(const net::Packet& packet) {
  return packet.data.memo<DecodedFrame>([](const net::Bytes& bytes) {
    obs::hit(obs::Hot::kFramesDecoded);
    return decode_frame(bytes);
  });
}

}  // namespace manet::olsr

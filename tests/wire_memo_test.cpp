// The decode memo on a shared payload (olsr::decoded): the memoized frame
// equals a direct parse_packet plus the HELLO lists every receiver used to
// derive for itself, every receiver still logs, counts and hooks its own
// reception, and a payload is decoded at most once.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <vector>

#include "net/byte_codec.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "olsr/wire.hpp"
#include "scenario/network.hpp"
#include "sim/rng.hpp"

namespace manet {
namespace {

using net::NodeId;
using olsr::LinkType;
using olsr::NeighborType;

/// One HELLO link group as the wire carries it.
using Group = std::pair<std::uint8_t, std::vector<NodeId>>;

/// The ASYM_LINK + NOT_NEIGH addresses of a HELLO, filtered as each
/// receiver did before the lists moved into the decoded frame.
std::vector<NodeId> old_asym_filter(const olsr::HelloMessage& hello) {
  std::vector<NodeId> out;
  for (const auto& [code, addrs] : hello.link_groups)
    if (olsr::link_type_of(code) == LinkType::kAsym &&
        olsr::neighbor_type_of(code) == NeighborType::kNotNeigh)
      out.insert(out.end(), addrs.begin(), addrs.end());
  return out;
}

NodeId random_node(sim::Rng& rng) {
  return NodeId{static_cast<std::uint32_t>(rng.uniform_int(0, 40))};
}

std::uint8_t random_code(sim::Rng& rng) {
  // Mostly the codes the protocol emits (LOST included), sometimes any byte.
  if (rng.bernoulli(0.2))
    return static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return olsr::make_link_code(static_cast<LinkType>(rng.uniform_int(0, 3)),
                              static_cast<NeighborType>(rng.uniform_int(0, 2)));
}

/// Link groups in wire order: codes repeat and run out of order, as a
/// foreign sender may emit them, and one address may sit under several
/// codes, a LOST one included.
std::vector<Group> random_groups(sim::Rng& rng) {
  std::vector<Group> groups;
  for (auto g = rng.uniform_int(0, 5); g > 0; --g) {
    Group group{random_code(rng), {}};
    for (auto i = rng.uniform_int(0, 6); i > 0; --i)
      group.second.push_back(random_node(rng));
    groups.push_back(std::move(group));
  }
  if (!groups.empty() && !groups.front().second.empty() && rng.bernoulli(0.5)) {
    const auto shared = groups.front().second.front();
    groups.push_back({random_code(rng), {shared}});
    groups.push_back(
        {olsr::make_link_code(LinkType::kLost, NeighborType::kNotNeigh),
         {shared}});
  }
  return groups;
}

olsr::MessageHeader random_header(sim::Rng& rng) {
  olsr::MessageHeader h;
  h.originator = random_node(rng);
  h.vtime = olsr::decode_vtime(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
  h.ttl = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  h.hop_count = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  h.seq_num = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
  return h;
}

using Writer = net::ByteWriter<std::endian::big>;

/// Writes a HELLO with its link groups in the given order (serialize_packet
/// only writes the ascending-code order a HelloMessage holds).
void write_hello(Writer& w, sim::Rng& rng) {
  auto header = random_header(rng);
  const auto groups = random_groups(rng);
  std::size_t size = 12 + 4;
  for (const auto& [code, addrs] : groups) size += 4 + 4 * addrs.size();
  w.u8(static_cast<std::uint8_t>(olsr::MessageType::kHello));
  w.u8(olsr::encode_vtime(header.vtime));
  w.u16(static_cast<std::uint16_t>(size));
  w.node(header.originator);
  w.u8(header.ttl);
  w.u8(header.hop_count);
  w.u16(header.seq_num);
  w.u16(0);  // reserved
  w.u8(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));  // htime
  w.u8(static_cast<std::uint8_t>(rng.uniform_int(0, 7)));    // willingness
  for (const auto& [code, addrs] : groups) {
    w.u8(code);
    w.u8(0);
    w.u16(static_cast<std::uint16_t>(4 + 4 * addrs.size()));
    for (auto a : addrs) w.node(a);
  }
}

/// A TC, MID, HNA or DATA message, written through serialize_packet.
void write_other(Writer& w, sim::Rng& rng) {
  olsr::Message m;
  m.header = random_header(rng);
  const auto nodes = [&](std::int64_t max) {
    std::vector<NodeId> out;
    for (auto i = rng.uniform_int(0, max); i > 0; --i)
      out.push_back(random_node(rng));
    return out;
  };
  switch (rng.uniform_int(0, 3)) {
    case 0:
      m.header.type = olsr::MessageType::kTc;
      m.body = olsr::TcMessage{
          static_cast<std::uint16_t>(rng.uniform_int(0, 65535)), nodes(6)};
      break;
    case 1:
      m.header.type = olsr::MessageType::kMid;
      m.body = olsr::MidMessage{nodes(4)};
      break;
    case 2: {
      m.header.type = olsr::MessageType::kHna;
      olsr::HnaMessage hna;
      for (auto i = rng.uniform_int(0, 4); i > 0; --i)
        hna.entries.push_back(
            {static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFF)),
             static_cast<std::uint8_t>(rng.uniform_int(0, 32))});
      m.body = hna;
      break;
    }
    default: {
      m.header.type = olsr::MessageType::kData;
      olsr::DataMessage d;
      d.source = random_node(rng);
      d.destination = random_node(rng);
      d.route = nodes(4);
      d.trace = nodes(4);
      d.protocol = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
      for (auto i = rng.uniform_int(0, 20); i > 0; --i)
        d.payload.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
      m.body = d;
      break;
    }
  }
  olsr::OlsrPacket one;
  one.messages.push_back(m);
  const auto bytes = olsr::serialize_packet(one);
  w.blob(bytes.data() + 4, bytes.size() - 4);  // drop the packet header
}

/// A packet of 1-3 random messages, HELLOs among them.
net::Bytes random_packet(sim::Rng& rng) {
  Writer w;
  const auto length_at = w.size_prefix<std::uint16_t>();
  w.u16(static_cast<std::uint16_t>(rng.uniform_int(0, 65535)));
  for (auto i = rng.uniform_int(1, 3); i > 0; --i) {
    if (rng.bernoulli(0.4))
      write_hello(w, rng);
    else
      write_other(w, rng);
  }
  w.patch_size<std::uint16_t>(length_at, w.size());
  return w.take();
}

net::Packet packet_of(net::Bytes bytes) {
  return net::Packet{NodeId{1}, net::kInvalidNode,
                     net::make_payload(std::move(bytes)), sim::Time{}};
}

TEST(WireMemo, DecodedViewMatchesParsePacketAndTheOldHelloLists) {
  sim::Rng rng{16};
  obs::Context ctx;
  obs::Scope scope{&ctx};
  std::size_t hellos = 0, rejected = 0;
  for (int trial = 0; trial < 600; ++trial) {
    auto bytes = random_packet(rng);
    if (trial % 10 == 9) bytes.resize(bytes.size() - 1);  // truncated
    SCOPED_TRACE("trial " + std::to_string(trial));

    const auto packet = packet_of(bytes);
    const auto copy = packet;  // a second receiver of the same payload
    const olsr::DecodedFrame& frame = olsr::decoded(packet);
    EXPECT_EQ(&olsr::decoded(copy), &frame);

    olsr::OlsrPacket oracle;
    try {
      oracle = olsr::parse_packet(bytes);
    } catch (const olsr::WireError& e) {
      ASSERT_TRUE(frame.error.has_value());
      EXPECT_STREQ(frame.error->what(), e.what());
      EXPECT_TRUE(frame.packet.messages.empty());
      ++rejected;
      continue;
    }
    ASSERT_FALSE(frame.error.has_value());
    EXPECT_EQ(frame.packet, oracle);
    const bool has_hello = std::ranges::any_of(
        oracle.messages, [](const olsr::Message& m) { return m.as_hello(); });
    ASSERT_EQ(frame.hello_lists.size(),
              has_hello ? oracle.messages.size() : 0u);
    for (std::size_t i = 0; i < oracle.messages.size(); ++i) {
      const auto* hello = oracle.messages[i].as_hello();
      if (hello == nullptr) {
        if (has_hello) {
          EXPECT_TRUE(frame.hello_lists[i].sym.empty());
          EXPECT_TRUE(frame.hello_lists[i].asym.empty());
        }
        continue;
      }
      ++hellos;
      EXPECT_EQ(frame.hello_lists[i].sym, hello->symmetric_neighbors());
      EXPECT_EQ(frame.hello_lists[i].asym, old_asym_filter(*hello));
    }
  }
  EXPECT_GT(hellos, 150u);
  EXPECT_GT(rejected, 50u);
  EXPECT_EQ(ctx.snapshot().counter_value(
                obs::hot_name(obs::Hot::kFramesDecoded)),
            600u);
}

/// A 5-node full mesh, agents running, with optional receive hooks.
scenario::Network::Config mesh_config() {
  scenario::Network::Config c;
  c.seed = 11;
  c.radio.range_m = 500.0;
  c.positions = net::grid_layout(5, 20.0);
  return c;
}

TEST(WireMemo, MalformedFrameIsLoggedByEveryReceiver) {
  scenario::Network net{mesh_config()};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(1.0));
  // Claims 9 bytes, carries 5: every receiver must reject it on its own.
  net.medium().broadcast(scenario::Network::id_of(0),
                         net::Bytes{0x00, 0x09, 0x00, 0x01, 0x01});
  net.run_for(sim::Duration::from_seconds(1.0));
  for (std::size_t i = 1; i < net.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    const auto& agent = net.agent(i);
    EXPECT_EQ(agent.stats().parse_errors, 1u);
    const auto errors = agent.log().records_with_event("packet_parse_error");
    ASSERT_EQ(std::ranges::distance(errors), 1);
    EXPECT_EQ(errors.front().node_field("from"), scenario::Network::id_of(0));
  }
  EXPECT_EQ(net.agent(0).stats().parse_errors, 0u);
}

/// Counts the messages of one originator each receiver's hook observes.
class CountingHooks : public olsr::AgentHooks {
 public:
  explicit CountingHooks(NodeId originator) : originator_{originator} {}
  void on_receive(const olsr::Message& message) override {
    if (message.header.originator == originator_)
      ++seen_[message.header.seq_num];
  }
  const std::map<std::uint16_t, int>& seen() const { return seen_; }

 private:
  NodeId originator_;
  std::map<std::uint16_t, int> seen_;
};

TEST(WireMemo, ReceiveHookFiresOncePerReceiverPerMessage) {
  scenario::Network net{mesh_config()};
  const NodeId ghost{77};  // no such node: only the injected frame carries it
  for (std::size_t i = 1; i < net.size(); ++i)
    net.set_hooks(i, std::make_unique<CountingHooks>(ghost));
  net.start_all();
  net.run_for(sim::Duration::from_seconds(1.0));

  olsr::OlsrPacket p;
  for (std::uint16_t seq : {101, 102, 103}) {
    olsr::Message m;
    m.header.type = seq == 101 ? olsr::MessageType::kHello
                               : olsr::MessageType::kMid;
    m.header.originator = ghost;
    m.header.seq_num = seq;
    if (seq == 101) {
      olsr::HelloMessage h;
      h.add(LinkType::kSym, NeighborType::kSymNeigh, NodeId{2});
      m.body = h;
    } else {
      m.body = olsr::MidMessage{{NodeId{78}}};
    }
    p.messages.push_back(m);
  }
  net.medium().broadcast(scenario::Network::id_of(0), olsr::serialize_packet(p));
  net.run_for(sim::Duration::from_seconds(1.0));

  const std::map<std::uint16_t, int> once{{101, 1}, {102, 1}, {103, 1}};
  for (std::size_t i = 1; i < net.size(); ++i) {
    const auto* hooks = static_cast<CountingHooks*>(net.hooks(i));
    EXPECT_EQ(hooks->seen(), once) << "node " << i;
  }
}

TEST(WireMemo, FramesDecodedAtMostFramesSentInASequentialRun) {
  obs::Context ctx;
  std::uint64_t sent = 0, deliveries = 0;
  {
    obs::Scope scope{&ctx};
    scenario::Network net{mesh_config()};
    net.start_all();
    net.run_for(sim::Duration::from_seconds(30.0));
    sent = net.medium().stats().frames_sent;
    deliveries = net.medium().stats().deliveries;
  }
  const auto decoded = ctx.snapshot().counter_value(
      obs::hot_name(obs::Hot::kFramesDecoded));
  EXPECT_GT(decoded, 0u);
  EXPECT_LE(decoded, sent);
  // Four receivers share each broadcast's one decode.
  EXPECT_GE(deliveries, 3 * decoded);
}

}  // namespace
}  // namespace manet

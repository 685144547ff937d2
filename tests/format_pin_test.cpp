// Format pins for the three binary encodings a run writes: the recorded
// audit log, the checkpoint image and an OLSR packet. Round-trip tests pass
// even when writer and reader change together; these pin a 64-bit FNV-1a
// hash of the exact bytes, so any layout change (field order, endianness,
// width of a count) fails here until the hash is deliberately updated.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/investigation.hpp"
#include "core/recommendation.hpp"
#include "olsr/wire.hpp"
#include "scenario/trust_experiment.hpp"

namespace manet {
namespace {

using scenario::TrustExperiment;

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const auto b : bytes) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return h;
}

TEST(FormatPin, SpoofingAuditLog16Nodes) {
  TrustExperiment::Config config;
  config.seed = 11;
  config.num_nodes = 16;
  config.num_liars = 4;
  config.rounds = 3;
  config.record_audit = true;
  TrustExperiment exp{config};
  exp.setup();
  for (int r = 0; r < 3; ++r) exp.run_round();
  exp.cease_attack();
  exp.run_idle_round();
  exp.detector().feed_log_growth();
  const auto log = exp.audit_log();
  EXPECT_EQ(log.size(), 47309u);
  EXPECT_EQ(fnv1a64(log), 0x4A0A51758A412578ull);
}

TEST(FormatPin, CheckpointImage) {
  TrustExperiment::Config config;
  config.seed = 29;
  config.num_nodes = 16;
  config.num_liars = 4;
  config.checkpointable = true;
  TrustExperiment exp{config};
  exp.setup();
  for (int r = 0; r < 2; ++r) exp.run_round();
  const auto image = exp.save_checkpoint();
  EXPECT_EQ(image.size(), 595761u);
  EXPECT_EQ(fnv1a64(image), 0x0D4771C682783D41ull);
}

TEST(FormatPin, HelloAndTcPacket) {
  olsr::HelloMessage hello;
  hello.htime = sim::Duration::from_seconds(2.0);
  hello.willingness = olsr::Willingness::kHigh;
  hello.add(olsr::LinkType::kSym, olsr::NeighborType::kMprNeigh,
            net::NodeId{2});
  hello.add(olsr::LinkType::kSym, olsr::NeighborType::kSymNeigh,
            net::NodeId{3});
  hello.add(olsr::LinkType::kAsym, olsr::NeighborType::kNotNeigh,
            net::NodeId{0x01020304});
  olsr::Message h;
  h.header.type = olsr::MessageType::kHello;
  h.header.vtime = sim::Duration::from_seconds(6.0);
  h.header.originator = net::NodeId{1};
  h.header.ttl = 1;
  h.header.seq_num = 0xABCD;
  h.body = hello;

  olsr::TcMessage tc;
  tc.ansn = 513;
  tc.advertised = {net::NodeId{5}, net::NodeId{0xA0B0C0D0}};
  olsr::Message t;
  t.header.type = olsr::MessageType::kTc;
  t.header.vtime = sim::Duration::from_seconds(15.0);
  t.header.originator = net::NodeId{7};
  t.header.ttl = 255;
  t.header.hop_count = 2;
  t.header.seq_num = 4242;
  t.body = tc;

  olsr::OlsrPacket packet;
  packet.seq_num = 0x1234;
  packet.messages = {h, t};
  const auto bytes = olsr::serialize_packet(packet);
  EXPECT_EQ(bytes.size(), 68u);
  EXPECT_EQ(fnv1a64(bytes), 0x0DD786159EE61F08ull);
}

TEST(FormatPin, InvestigationAndRecommendationPayloads) {
  core::LinkQuery query;
  query.investigation_id = 0x01020304;
  query.kind = core::QueryKind::kForwarding;
  query.suspect = net::NodeId{5};
  query.subject = net::NodeId{0xA0B0C0D0};
  query.claimed_up = true;
  core::LinkAnswer answer;
  answer.investigation_id = 77;
  answer.responder = net::NodeId{3};
  answer.suspect = net::NodeId{5};
  answer.subject = net::NodeId{6};
  answer.evidence = -1.0;
  core::RecommendationReply reply;
  reply.request_id = 0xDEADBEEF;
  reply.recommender = net::NodeId{2};
  reply.trusts = {{net::NodeId{1}, 0.25}, {net::NodeId{9}, 1.0}};

  std::vector<std::uint8_t> all;
  for (const auto& part :
       {core::encode_query(query), core::encode_answer(answer),
        core::encode_recommendation_request(
            9, {net::NodeId{1}, net::NodeId{0x00FF00FF}}),
        core::encode_recommendation_reply(reply)})
    all.insert(all.end(), part.begin(), part.end());
  EXPECT_EQ(all.size(), 67u);
  EXPECT_EQ(fnv1a64(all), 0x04D948A07FC849BBull);
}

}  // namespace
}  // namespace manet

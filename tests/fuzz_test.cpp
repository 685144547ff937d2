// Seeded fuzzing of every untrusted decoder (CTest label "fuzz"): the
// OLSR wire format, audit logs, checkpoints, fault plans and log text.
// Malformed input must never crash, only throw the format's own error or
// be rejected; ASan/UBSan runs turn any overread into a failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/pipeline.hpp"
#include "faults/checkpoint.hpp"
#include "faults/fault_plan.hpp"
#include "logging/audit_log.hpp"
#include "logging/format.hpp"
#include "olsr/wire.hpp"
#include "scenario/trust_experiment.hpp"

namespace manet {
namespace {

// --- byte-level fuzzing ---------------------------------------------------

class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzz, RandomBytesNeverCrash) {
  sim::Rng rng{GetParam()};
  for (int trial = 0; trial < 200; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 120));
    net::Bytes bytes(len);
    for (auto& b : bytes)
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    try {
      const auto packet = olsr::parse_packet(bytes);
      // If it parsed, re-serialization must not crash either.
      olsr::serialize_packet(packet);
    } catch (const olsr::WireError&) {
      // rejected — fine
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Range<std::uint64_t>(1, 9));

class WireMutationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireMutationFuzz, BitFlippedValidPacketsNeverCrash) {
  olsr::HelloMessage h;
  for (std::uint32_t i = 0; i < 6; ++i)
    h.add(olsr::LinkType::kSym, olsr::NeighborType::kSymNeigh,
          net::NodeId{i});
  olsr::Message m;
  m.header.type = olsr::MessageType::kHello;
  m.header.originator = net::NodeId{9};
  m.body = h;
  olsr::OlsrPacket p;
  p.messages.push_back(m);
  const auto valid = olsr::serialize_packet(p);

  sim::Rng rng{GetParam()};
  for (int trial = 0; trial < 300; ++trial) {
    auto mutated = valid;
    const auto flips = rng.uniform_int(1, 4);
    for (std::int64_t f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()) - 1));
      mutated[at] ^= static_cast<std::uint8_t>(1 << rng.uniform_int(0, 7));
    }
    try {
      olsr::parse_packet(mutated);
    } catch (const olsr::WireError&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireMutationFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

// Seeded mutation fuzz over the remaining untrusted decoders: a valid
// input generated in-test from a fixed seed is mutated (bit flips, byte
// overwrites, truncation) and decoded. Every decode either succeeds or
// throws that format's own error type; any other exception fails the test,
// and a crash, overread or hang fails it under ASan+UBSan or the timeout.
enum class Format { kAuditLog, kCheckpoint, kFaultPlan };

std::string format_name(const ::testing::TestParamInfo<
                        std::tuple<Format, std::uint64_t>>& info) {
  static const char* const kNames[] = {"AuditLog", "Checkpoint", "FaultPlan"};
  return std::string{kNames[static_cast<int>(std::get<0>(info.param))]} +
         "_" + std::to_string(std::get<1>(info.param));
}

scenario::TrustExperiment::Config fuzz_experiment_config() {
  scenario::TrustExperiment::Config c;
  c.seed = 3;
  c.num_nodes = 8;
  c.num_liars = 2;
  c.rounds = 2;
  return c;
}

std::vector<std::uint8_t> valid_input(Format format) {
  switch (format) {
    case Format::kAuditLog: {
      auto c = fuzz_experiment_config();
      c.record_audit = true;
      scenario::TrustExperiment exp{c};
      exp.setup();
      exp.run_round();
      exp.cease_attack();
      exp.run_idle_round();
      exp.detector().feed_log_growth();
      return exp.audit_log();
    }
    case Format::kCheckpoint: {
      auto c = fuzz_experiment_config();
      c.checkpointable = true;
      scenario::TrustExperiment exp{c};
      exp.setup();
      exp.run_round();
      return exp.save_checkpoint();
    }
    case Format::kFaultPlan: {
      const auto text =
          faults::FaultPlan::chaos(5, 8, 150.0, sim::Time::from_ms(10'000),
                                   sim::Time::from_ms(60'000))
              .format();
      return {text.begin(), text.end()};
    }
  }
  return {};
}

/// A decoded kLine record is a fixed point of the v2 record codec:
/// write_record then read_record gives it back.
void expect_fixed_point(const logging::LogRecord& record) {
  net::ByteWriter<std::endian::little> w;
  logging::write_record(w, record);
  const auto bytes = w.take();
  net::ByteReader<std::endian::little, logging::AuditError> r{bytes};
  EXPECT_EQ(logging::read_record(r), record);
  EXPECT_TRUE(r.at_end());
}

/// True if `bytes` decode, false if the decoder rejects them with the
/// format's own error type; any other exception propagates.
bool decodes(Format format, const std::vector<std::uint8_t>& bytes) {
  switch (format) {
    case Format::kAuditLog:
      try {
        core::AuditStreamReader stream{bytes};
        core::AuditEvent event;
        while (stream.next(event))
          if (event.kind == logging::AuditFrame::kLine)
            expect_fixed_point(event.line);
        return true;
      } catch (const logging::AuditError&) {
        return false;
      }
    case Format::kCheckpoint:
      try {
        auto c = fuzz_experiment_config();
        c.checkpointable = true;
        scenario::TrustExperiment::restore_checkpoint(c, bytes);
        return true;
      } catch (const faults::CheckpointError&) {
        return false;
      }
    case Format::kFaultPlan:
      try {
        faults::FaultPlan::parse(std::string{bytes.begin(), bytes.end()});
        return true;
      } catch (const std::invalid_argument&) {
        return false;
      }
  }
  return false;
}

class DecoderMutationFuzz
    : public ::testing::TestWithParam<std::tuple<Format, std::uint64_t>> {};

TEST_P(DecoderMutationFuzz, MutatedValidInputsDecodeOrThrowFormatError) {
  const auto [format, seed] = GetParam();
  const auto valid = valid_input(format);
  ASSERT_FALSE(valid.empty());
  ASSERT_TRUE(decodes(format, valid));

  sim::Rng rng{seed};
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  int rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    auto mutated = valid;
    const auto edits = rng.uniform_int(1, 4);
    for (std::int64_t e = 0; e < edits; ++e) {
      const auto at = pick(mutated.size());
      switch (rng.uniform_int(0, 3)) {
        case 0:  // bit flip
          mutated[at] ^= static_cast<std::uint8_t>(1 << rng.uniform_int(0, 7));
          break;
        case 1:  // byte overwrite with an extreme value
          mutated[at] = rng.uniform_int(0, 1) == 0 ? 0x00 : 0xFF;
          break;
        case 2:  // random byte
          mutated[at] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
          break;
        default:  // truncation
          mutated.resize(at + 1);
          break;
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    if (!decodes(format, mutated)) ++rejected;
  }
  // The decoder really checks something: some mutants must be rejected.
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Formats, DecoderMutationFuzz,
    ::testing::Combine(::testing::Values(Format::kAuditLog,
                                         Format::kCheckpoint,
                                         Format::kFaultPlan),
                       ::testing::Range<std::uint64_t>(1, 9)),
    format_name);

TEST(LogFuzz, RandomTextNeverCrashesParser) {
  sim::Rng rng{77};
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789=|.- \nt";
  for (int trial = 0; trial < 500; ++trial) {
    std::string line;
    const auto len = rng.uniform_int(0, 80);
    for (std::int64_t i = 0; i < len; ++i)
      line += alphabet[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(alphabet.size()) - 1))];
    try {
      logging::parse_record(line);
    } catch (const std::invalid_argument&) {
    }
  }
}

/// Audit lines of a real 16-node run: every record the investigator and
/// a bystander retained after setup and one spoofing round.
const std::vector<std::string>& real_log_lines() {
  static const auto lines = [] {
    scenario::TrustExperiment::Config c;
    c.seed = 5;
    c.num_nodes = 16;
    c.num_liars = 4;
    scenario::TrustExperiment exp{c};
    exp.setup();
    exp.run_round();
    std::vector<std::string> out;
    for (const std::size_t node : {0, 2})
      for (const auto& r : exp.network().agent(node).log().records())
        out.push_back(logging::format_record(r));
    return out;
  }();
  return lines;
}

/// One token-level mutation of a log line: the damage a hand-edited or
/// truncated log file carries, aimed at the typed node and list fields.
std::string mutate_tokens(const std::string& line, sim::Rng& rng) {
  std::vector<std::string> tokens;
  for (std::size_t pos = 0; pos <= line.size();) {
    const auto end = std::min(line.find(' ', pos), line.size());
    tokens.push_back(line.substr(pos, end - pos));
    pos = end + 1;
  }
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  // Field tokens follow "t=… node=… event=…"; a header token is hit when
  // the record has no fields.
  auto& token = tokens[tokens.size() > 3 ? 3 + pick(tokens.size() - 3)
                                         : pick(tokens.size())];
  const auto eq = token.find('=');
  const auto key = token.substr(0, eq);
  auto& value = token;
  const auto set_value = [&](const std::string& v) { value = key + "=" + v; };
  static const char* const kBadIds[] = {
      "n?",  "n4294967295", "n4294967296", "n99999999999", "nx", "n1a",
      "7",   "n",           "n-1",         "n+1",          "N3", "n007"};
  switch (rng.uniform_int(0, 9)) {
    case 0:  // missing '='
      if (eq != std::string::npos) token.erase(eq, 1);
      break;
    case 1:
      set_value("-");
      break;
    case 2:
      set_value("");
      break;
    case 3:  // a bad id alone
      set_value(kBadIds[pick(std::size(kBadIds))]);
      break;
    case 4: {  // a bad id inside a list
      const auto ids = token.substr(eq == std::string::npos ? 0 : eq + 1);
      set_value(ids + "|" + kBadIds[pick(std::size(kBadIds))] + "|n2");
      break;
    }
    case 5: {  // a stray '|'
      const auto at = eq == std::string::npos
                          ? token.size()
                          : eq + 1 + pick(token.size() - eq);
      token.insert(at, "|");
      break;
    }
    case 6:  // duplicate key
      tokens.push_back(token);
      break;
    case 7:  // the same key again with another value
      tokens.push_back(key + "=n" + std::to_string(pick(40)));
      break;
    case 8:  // an unknown key, list-shaped or not
      tokens.push_back(rng.bernoulli(0.5) ? "bogus=n1|n2" : "bogus=x|y");
      break;
    default:  // two mutations at once
      return mutate_tokens(mutate_tokens(line, rng), rng);
  }
  std::string out;
  for (const auto& t : tokens) {
    if (!out.empty()) out += ' ';
    out += t;
  }
  return out;
}

TEST(LogFuzz, TokenMutationsParseToFixedPointsOrThrow) {
  // Every mutant of a real line parses or throws std::invalid_argument;
  // a parsed record is a fixed point of format_record -> parse_record.
  const auto& lines = real_log_lines();
  ASSERT_GT(lines.size(), 100u);
  sim::Rng rng{2026};
  std::size_t parsed = 0, rejected = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    const auto mutant = mutate_tokens(
        lines[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(lines.size()) - 1))],
        rng);
    SCOPED_TRACE(mutant);
    try {
      const auto record = logging::parse_record(mutant);
      EXPECT_EQ(logging::parse_record(logging::format_record(record)), record);
      ++parsed;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 1000u);
  EXPECT_GT(rejected, 1000u);
}

TEST(LogFuzz, TokenMutatedV2LinesDecodeToFixedPointsOrThrow) {
  // The same mutants as v2 kLine payloads: the field strings go to the
  // wire as they are, and read_record either types them or throws
  // AuditError. A decoded record is a fixed point of both codecs.
  const auto& lines = real_log_lines();
  sim::Rng rng{2027};
  std::size_t decoded = 0, rejected = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    const auto& line = lines[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(lines.size()) - 1))];
    const auto header = logging::parse_record(line);
    const auto mutant = mutate_tokens(line, rng);
    SCOPED_TRACE(mutant);
    net::ByteWriter<std::endian::little> w;
    w.time(header.time);
    w.node(header.node);
    w.str(header.event);
    std::vector<std::pair<std::string, std::string>> fields;
    std::size_t pos = 0;
    for (int skip = 0; skip < 3 && pos != std::string::npos; ++skip) {
      pos = mutant.find(' ', pos);
      if (pos != std::string::npos) ++pos;
    }
    while (pos != std::string::npos && pos < mutant.size()) {
      const auto end = mutant.find(' ', pos);
      const auto token = mutant.substr(pos, end - pos);
      const auto eq = token.find('=');
      fields.emplace_back(token.substr(0, eq),
                          eq == std::string::npos ? "" : token.substr(eq + 1));
      pos = end == std::string::npos ? end : end + 1;
    }
    w.count(fields.size());
    for (const auto& [k, v] : fields) {
      w.str(k);
      w.str(v);
    }
    const auto bytes = w.take();
    net::ByteReader<std::endian::little, logging::AuditError> r{bytes};
    try {
      const auto record = logging::read_record(r);
      expect_fixed_point(record);
      ++decoded;
    } catch (const logging::AuditError&) {
      ++rejected;
    }
  }
  EXPECT_GT(decoded, 1000u);
  EXPECT_GT(rejected, 1000u);
}

// --- structure-aware wire fuzzing ---------------------------------------

/// One multi-message seed packet: a HELLO with three link groups (one
/// address under two codes), a TC, a MID, an HNA and a DATA message.
olsr::OlsrPacket wire_seed() {
  using olsr::LinkType;
  using olsr::NeighborType;
  olsr::OlsrPacket p;
  p.seq_num = 7;
  const auto message = [&](olsr::MessageType type, olsr::MessageBody body) {
    olsr::Message m;
    m.header.type = type;
    m.header.originator = net::NodeId{3};
    m.header.seq_num = static_cast<std::uint16_t>(100 + p.messages.size());
    m.body = std::move(body);
    p.messages.push_back(std::move(m));
  };
  olsr::HelloMessage h;
  h.add(LinkType::kSym, NeighborType::kMprNeigh, net::NodeId{1});
  h.add(LinkType::kSym, NeighborType::kSymNeigh, net::NodeId{2});
  h.add(LinkType::kSym, NeighborType::kSymNeigh, net::NodeId{4});
  h.add(LinkType::kAsym, NeighborType::kNotNeigh, net::NodeId{5});
  h.add(LinkType::kLost, NeighborType::kNotNeigh, net::NodeId{2});
  message(olsr::MessageType::kHello, h);
  message(olsr::MessageType::kTc,
          olsr::TcMessage{9, {net::NodeId{1}, net::NodeId{6}}});
  message(olsr::MessageType::kMid, olsr::MidMessage{{net::NodeId{30}}});
  message(olsr::MessageType::kHna,
          olsr::HnaMessage{{{0x0A000000u, 8}, {0xC0A80100u, 24}}});
  olsr::DataMessage d;
  d.source = net::NodeId{3};
  d.destination = net::NodeId{6};
  d.route = {net::NodeId{1}, net::NodeId{6}};
  d.trace = {net::NodeId{2}};
  d.protocol = 42;
  d.payload = {1, 2, 3, 4, 5};
  message(olsr::MessageType::kData, d);
  return p;
}

/// A count or size field of the serialized seed, with its width and the
/// smallest value the decoder accepts there.
struct WireField {
  std::size_t at = 0;
  int width = 2;  ///< bytes, big-endian
  unsigned minimum = 0;
};

std::uint16_t read_u16(const net::Bytes& b, std::size_t at) {
  return static_cast<std::uint16_t>(b[at] << 8 | b[at + 1]);
}

/// The packet length, every message size, every HELLO link-group size and
/// the DATA route, trace and payload counts of a valid packet.
std::vector<WireField> wire_fields(const net::Bytes& b) {
  std::vector<WireField> out{{0, 2, 4}};
  for (std::size_t msg = 4; msg < b.size(); msg += read_u16(b, msg + 2)) {
    out.push_back({msg + 2, 2, 12});
    const std::size_t body = msg + 12;
    const std::size_t end = msg + read_u16(b, msg + 2);
    switch (static_cast<olsr::MessageType>(b[msg])) {
      case olsr::MessageType::kHello:
        for (std::size_t g = body + 4; g < end; g += read_u16(b, g + 2))
          out.push_back({g + 2, 2, 4});
        break;
      case olsr::MessageType::kData: {
        out.push_back({body + 8, 1, 0});
        out.push_back({body + 9, 1, 0});
        const std::size_t hops = b[body + 8] + b[body + 9];
        out.push_back({body + 12 + 4 * hops, 2, 0});
        break;
      }
      default:
        break;
    }
  }
  return out;
}

void write_field(net::Bytes& b, const WireField& f, unsigned v) {
  if (f.width == 1) {
    b[f.at] = static_cast<std::uint8_t>(v);
  } else {
    b[f.at] = static_cast<std::uint8_t>(v >> 8);
    b[f.at + 1] = static_cast<std::uint8_t>(v);
  }
}

class WireStructFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireStructFuzz, BoundaryCountsDecodeAlikeMemoizedAndDirect) {
  const auto valid = olsr::serialize_packet(wire_seed());
  const auto fields = wire_fields(valid);
  ASSERT_EQ(fields.size(), 1u + 5u + 4u + 3u);  // packet, msgs, groups, data

  sim::Rng rng{GetParam()};
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::size_t decoded = 0, rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    auto mutated = valid;
    for (auto edits = rng.uniform_int(1, 3); edits > 0; --edits) {
      const auto& f = fields[pick(fields.size())];
      const unsigned max = f.width == 1 ? 0xFFu : 0xFFFFu;
      const unsigned now =
          f.width == 1 ? valid[f.at] : read_u16(valid, f.at);
      const unsigned choices[] = {0,         f.minimum,
                                  f.minimum + 1, f.minimum > 0 ? f.minimum - 1 : 1,
                                  now + 1,   now > 0 ? now - 1 : 0,
                                  max,       max - 1};
      write_field(mutated, f, choices[pick(std::size(choices))]);
    }
    switch (rng.uniform_int(0, 3)) {
      case 0:  // truncate or extend the frame
        mutated.resize(rng.bernoulli(0.5) ? pick(mutated.size())
                                          : mutated.size() + 1 + pick(8));
        break;
      case 1:
      case 2:  // keep the packet length consistent, so deeper fields count
        if (mutated.size() <= 0xFFFF)
          write_field(mutated, fields[0],
                      static_cast<unsigned>(mutated.size()));
        break;
      default:
        break;
    }
    SCOPED_TRACE("trial " + std::to_string(trial));

    const net::Packet packet{net::NodeId{3}, net::kInvalidNode,
                             net::make_payload(mutated), sim::Time{}};
    const olsr::DecodedFrame& frame = olsr::decoded(packet);
    try {
      const auto direct = olsr::parse_packet(mutated);
      ASSERT_FALSE(frame.error.has_value()) << frame.error->what();
      EXPECT_EQ(frame.packet, direct);
      for (std::size_t i = 0; i < direct.messages.size(); ++i) {
        if (const auto* h = direct.messages[i].as_hello()) {
          ASSERT_EQ(frame.hello_lists.size(), direct.messages.size());
          EXPECT_EQ(frame.hello_lists[i].sym, h->symmetric_neighbors());
        }
      }
      ++decoded;
    } catch (const olsr::WireError& e) {
      ASSERT_TRUE(frame.error.has_value());
      EXPECT_STREQ(frame.error->what(), e.what());
      ++rejected;
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireStructFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace manet

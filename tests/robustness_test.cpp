// Robustness and failure-injection tests: wire/log fuzzing and seeded
// mutation fuzzing of every untrusted decoder (malformed input must never
// crash, only throw the format's error or reject), node death mid-
// investigation, heavy radio loss, log-capacity pressure, and colluding
// attacker+liar coalitions.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "attacks/composite.hpp"
#include "attacks/drop.hpp"
#include "attacks/link_spoofing.hpp"
#include "core/investigation.hpp"
#include "core/pipeline.hpp"
#include "faults/checkpoint.hpp"
#include "faults/fault_plan.hpp"
#include "logging/audit_log.hpp"
#include "logging/format.hpp"
#include "net/topology.hpp"
#include "olsr/wire.hpp"
#include "scenario/network.hpp"
#include "scenario/trust_experiment.hpp"

namespace manet {
namespace {

using scenario::Network;

// --- fuzzing -------------------------------------------------------------

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

TEST(InvestigationFuzz, GarbagePayloadsIgnored) {
  Network::Config c;
  c.radio.range_m = 200.0;
  c.positions = net::grid_layout(3, 50.0);
  Network net{c};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(10.0));

  sim::Rng rng{5};
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> junk(
        static_cast<std::size_t>(rng.uniform_int(0, 40)));
    for (auto& b : junk)
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    net.agent(1).send_data(Network::id_of(0), core::kInvestigationProtocol,
                           junk);
  }
  net.run_for(sim::Duration::from_seconds(5.0));
  // The endpoint survived and kept no bogus outstanding state.
  EXPECT_EQ(net.investigations(0).outstanding(), 0u);
}

// --- failure injection ---------------------------------------------------

TEST(FailureInjection, VerifierDiesMidInvestigation) {
  Network::Config c;
  c.radio.range_m = 400.0;
  c.positions = net::grid_layout(5, 50.0);
  Network net{c};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(12.0));

  core::LinkQuery q;
  q.suspect = Network::id_of(1);
  q.subject = Network::id_of(4);
  q.claimed_up = true;

  std::optional<core::RoundResult> result;
  net.investigations(0).investigate(q, {Network::id_of(2), Network::id_of(3)},
                                    [&](const core::RoundResult& r) {
                                      result = r;
                                    });
  net.agent(2).stop();  // dies before it can answer
  net.run_for(sim::Duration::from_seconds(15.0));

  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->answers.size(), 2u);
  std::size_t answered = 0;
  for (const auto& a : result->answers)
    if (a.answered) ++answered;
  EXPECT_EQ(answered, 1u);  // the survivor
  EXPECT_EQ(result->timeouts, 1u);
}

TEST(FailureInjection, DetectionSurvivesHeavyLoss) {
  Network::Config c;
  c.seed = 31;
  c.radio.range_m = 160.0;
  // 10% per frame per hop compounds steeply over multi-hop query+answer
  // paths. At ~15% the timeout-discounted aggregate (paper §IV-B: absent
  // answers enter Eq. 8 as e=0) stalls at the gamma boundary and conviction
  // plateaus — measured and documented in EXPERIMENTS.md.
  c.radio.loss_probability = 0.10;
  c.positions = net::grid_layout(9, 100.0);
  Network net{c};
  net.set_hooks(4, std::make_unique<attacks::LinkSpoofingAttack>(
                       attacks::LinkSpoofingAttack::Mode::kAddNonExistent,
                       std::set<net::NodeId>{net::NodeId{77}}));
  auto& detector = net.add_detector(0);
  net.start_all();
  net.run_for(sim::Duration::from_seconds(30.0));
  detector.start();
  net.run_for(sim::Duration::from_seconds(180.0));

  std::size_t intruder = 0;
  for (const auto& r : detector.reports())
    if (r.verdict == trust::Verdict::kIntruder &&
        r.suspect == Network::id_of(4))
      ++intruder;
  EXPECT_GT(intruder, 0u);
}

TEST(FailureInjection, CollusionOfSpooferAndDataDropper) {
  // The attacker spoofs AND blackholes investigation data through itself;
  // the suspect-avoiding routing plus retries must still collect answers.
  Network::Config c;
  c.seed = 13;
  c.radio.range_m = 160.0;
  c.positions = net::grid_layout(9, 100.0);
  Network net{c};

  auto composite = std::make_unique<attacks::CompositeHooks>();
  auto spoof = std::make_unique<attacks::LinkSpoofingAttack>(
      attacks::LinkSpoofingAttack::Mode::kAddNonExistent,
      std::set<net::NodeId>{net::NodeId{77}});
  auto drop = std::make_unique<attacks::DropAttack>(
      sim::Rng{1}, 1.0, /*drop_control=*/false, /*drop_data=*/true);
  composite->add(*spoof);
  composite->add(*drop);
  net.set_hooks(4, std::move(composite));

  auto& detector = net.add_detector(0);
  net.start_all();
  net.run_for(sim::Duration::from_seconds(25.0));
  detector.start();
  net.run_for(sim::Duration::from_seconds(90.0));

  std::size_t intruder = 0;
  for (const auto& r : detector.reports())
    if (r.verdict == trust::Verdict::kIntruder &&
        r.suspect == Network::id_of(4))
      ++intruder;
  EXPECT_GT(intruder, 0u);
  (void)spoof;
  (void)drop;
}

TEST(FailureInjection, LogCapacityPressureKeepsDetectorSane) {
  // A tiny log forces aggressive retention; the detector must keep working
  // on the surviving suffix without throwing.
  Network::Config c;
  c.seed = 3;
  c.radio.range_m = 160.0;
  c.positions = net::grid_layout(9, 100.0);
  c.agent.log_capacity = 200;
  Network net{c};
  net.set_hooks(4, std::make_unique<attacks::LinkSpoofingAttack>(
                       attacks::LinkSpoofingAttack::Mode::kAddNonExistent,
                       std::set<net::NodeId>{net::NodeId{77}}));
  auto& detector = net.add_detector(0);
  net.start_all();
  net.run_for(sim::Duration::from_seconds(20.0));
  detector.start();
  EXPECT_NO_THROW(net.run_for(sim::Duration::from_seconds(60.0)));
  EXPECT_GT(net.agent(0).log().dropped(), 0u);
}

TEST(FailureInjection, ReservedAddressSpoofIsRejectedOnTheWire) {
  // The attacker advertises the reserved address NodeId::kInvalid as a
  // neighbor. Its HELLOs must fail to decode (packet_parse_error) rather
  // than reach the audit log as "n?", which no log reader can parse back.
  Network::Config c;
  c.seed = 3;
  c.radio.range_m = 160.0;
  c.positions = net::grid_layout(9, 100.0);
  c.agent.log_capacity = 200;
  Network net{c};
  net.set_hooks(4, std::make_unique<attacks::LinkSpoofingAttack>(
                       attacks::LinkSpoofingAttack::Mode::kAddNonExistent,
                       std::set<net::NodeId>{net::NodeId{net::NodeId::kInvalid}}));
  auto& detector = net.add_detector(0);
  net.start_all();
  net.run_for(sim::Duration::from_seconds(20.0));
  detector.start();
  EXPECT_NO_THROW(net.run_for(sim::Duration::from_seconds(60.0)));

  // Every receiver's log renders to text that parses back to itself (the
  // attacker's own log still records the forged HELLO it sent).
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < net.size(); ++i) {
    if (i == 4) continue;
    const auto& log = net.agent(i).log();
    for (const auto& rec : log.records_with_event("packet_parse_error"))
      if (rec.node_field("from") == Network::id_of(4)) ++rejected;
    const auto text = log.text_since(sim::Time{});
    std::vector<logging::LogRecord> parsed;
    ASSERT_NO_THROW(parsed = logging::parse_log(text)) << "node " << i;
    ASSERT_EQ(parsed.size(), log.size());
    for (std::size_t k = 0; k < parsed.size(); ++k)
      EXPECT_EQ(parsed[k], log.at(k));
  }
  EXPECT_GT(rejected, 0u);
}

TEST(FailureInjection, CollusionBoundaryAtHalfTheVerifiers) {
  // 7 of 14 verifiers lie (exactly half): the investigator's own
  // first-hand denial (Property 5, full weight) is the tie-breaker that
  // keeps the aggregate negative, so the coalition cannot capture the
  // verdict. Beyond 50% the system can be captured — a documented limit
  // shared with every majority-voting scheme (see EXPERIMENTS.md).
  scenario::TrustExperiment::Config cfg;
  cfg.seed = 19;
  cfg.num_nodes = 16;
  cfg.num_liars = 7;
  scenario::TrustExperiment exp{cfg};
  exp.setup();
  const auto snaps = exp.run_attack_rounds(15);
  EXPECT_LT(snaps.back().detect, 0.0);
  EXPECT_NE(snaps.back().verdict, trust::Verdict::kWellBehaving);
}

}  // namespace
}  // namespace manet

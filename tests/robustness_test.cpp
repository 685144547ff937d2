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

/// True if `bytes` decode, false if the decoder rejects them with the
/// format's own error type; any other exception propagates.
bool decodes(Format format, const std::vector<std::uint8_t>& bytes) {
  switch (format) {
    case Format::kAuditLog:
      try {
        core::AuditStreamReader stream{bytes};
        core::AuditEvent event;
        while (stream.next(event)) {
        }
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

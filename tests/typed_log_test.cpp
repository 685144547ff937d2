// Equivalence of the typed audit-log queries with the string
// implementations they replaced. The oracle below is the IDS as it read
// its log before records were typed: every query copies the matching
// records, renders them to text, splits the '|'-joined lists and parses
// each id back; the scan batch is text_since + parse_log. The live
// results — every investigation query a node answers, every answer the
// investigator receives, every scan batch and the detector queries at the
// moment a scan runs — must equal the oracle's, across spoof, grayhole and
// chaos-fault rounds, under retention pressure and across a checkpoint
// restore. A second part checks that every event kind the agent emits
// renders to the text and v2 bytes of the all-string record.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "attacks/link_spoofing.hpp"
#include "core/detector.hpp"
#include "core/investigation.hpp"
#include "faults/fault_plan.hpp"
#include "logging/audit_log.hpp"
#include "logging/format.hpp"
#include "logging/log_store.hpp"
#include "net/topology.hpp"
#include "scenario/network.hpp"
#include "scenario/trust_experiment.hpp"

namespace manet {
namespace {

using core::LinkQuery;
using core::QueryKind;
using logging::LogRecord;
using logging::LogStore;
using net::NodeId;
using scenario::Network;
using scenario::TrustExperiment;

// --------------------------------------------------------------- oracle

/// A record as the string-typed IDS saw it: fields split from its text.
struct TextRecord {
  sim::Time time;
  std::string event;
  std::vector<std::pair<std::string, std::string>> fields;

  std::string field_or_throw(std::string_view key) const {
    for (const auto& [k, v] : fields)
      if (k == key) return v;
    throw std::invalid_argument{"log record missing field: " +
                                std::string{key}};
  }
  NodeId node_field(std::string_view key) const {
    return NodeId::parse(field_or_throw(key));
  }
  std::vector<NodeId> node_list_field(std::string_view key) const {
    const auto v = field_or_throw(key);
    std::vector<NodeId> out;
    if (v.empty()) return out;
    std::size_t start = 0;
    while (true) {
      const auto sep = v.find('|', start);
      out.push_back(NodeId::parse(v.substr(start, sep - start)));
      if (sep == std::string::npos) return out;
      start = sep + 1;
    }
  }
};

TextRecord text_record(const LogRecord& record) {
  TextRecord out{record.time, record.event, {}};
  const auto line = logging::format_record(record);
  // Tokens after "t=… node=… event=…" are the fields; "-" is empty.
  std::size_t pos = 0;
  for (int header = 0; header < 3 && pos != std::string::npos; ++header) {
    pos = line.find(' ', pos);
    if (pos != std::string::npos) ++pos;
  }
  while (pos != std::string::npos && pos < line.size()) {
    const auto end = line.find(' ', pos);
    const auto token = line.substr(pos, end == std::string::npos
                                            ? std::string::npos
                                            : end - pos);
    const auto eq = token.find('=');
    auto value = token.substr(eq + 1);
    if (value == "-") value.clear();
    out.fields.emplace_back(token.substr(0, eq), value);
    pos = end == std::string::npos ? end : end + 1;
  }
  return out;
}

/// The text form of one node's retained log, each record rendered and
/// split once and kept in step with the store's retention: the log as the
/// string IDS read it.
class TextLog {
 public:
  const std::deque<TextRecord>& sync(const LogStore& log) {
    const auto base = log.base_index();
    while (!records_.empty() && first_ < base) {
      records_.pop_front();
      ++first_;
    }
    if (records_.empty()) first_ = std::max(first_, base);
    for (auto i = first_ + records_.size(); i < log.total_appended(); ++i)
      records_.push_back(text_record(log.at(i - base)));
    return records_;
  }

 private:
  std::uint64_t first_ = 0;  ///< absolute index of records_.front()
  std::deque<TextRecord> records_;
};

/// The copying records_with_event the string IDS queried.
std::vector<TextRecord> text_with_event(const std::deque<TextRecord>& log,
                                        std::string_view event) {
  std::vector<TextRecord> out;
  for (const auto& r : log)
    if (r.event == event) out.push_back(r);
  return out;
}

double oracle_honest_observation(const olsr::Agent& agent,
                                 const std::deque<TextRecord>& log,
                                 sim::Time now, const LinkQuery& query) {
  const auto freshness = core::InvestigationConfig{}.hello_freshness;
  if (query.kind == QueryKind::kForwarding) {
    if (!agent.is_mpr(query.suspect)) return 0.0;
    for (const auto& rec : text_with_event(log, "own_fwd_heard")) {
      if (now - rec.time > freshness) continue;
      if (rec.node_field("by") == query.suspect) return +1.0;
    }
    return -1.0;
  }
  if (query.subject == agent.id())
    return agent.is_symmetric_neighbor(query.suspect) ? +1.0 : -1.0;
  if (!query.claimed_up) return 0.0;

  const auto hellos = text_with_event(log, "hello_recv");
  for (auto it = hellos.rbegin(); it != hellos.rend(); ++it) {
    if (now - it->time > freshness) break;
    if (it->node_field("from") != query.subject) continue;
    const auto sym = it->node_list_field("sym");
    if (std::find(sym.begin(), sym.end(), query.suspect) == sym.end())
      return -1.0;
    for (auto jt = hellos.rbegin(); jt != hellos.rend(); ++jt) {
      if (now - jt->time > freshness) break;
      if (jt->node_field("from") != query.suspect) continue;
      const auto ssym = jt->node_list_field("sym");
      return std::find(ssym.begin(), ssym.end(), query.subject) != ssym.end()
                 ? +1.0
                 : -1.0;
    }
    return +1.0;
  }
  for (const auto& rec : text_with_event(log, "tc_recv")) {
    if (rec.node_field("orig") == query.subject) return 0.0;
    const auto adv = rec.node_list_field("adv");
    if (rec.node_field("orig") != query.suspect &&
        std::find(adv.begin(), adv.end(), query.subject) != adv.end())
      return 0.0;
  }
  for (auto it = hellos.rbegin(); it != hellos.rend(); ++it) {
    const auto from = it->node_field("from");
    if (from == query.suspect || from == query.subject) continue;
    const auto sym = it->node_list_field("sym");
    if (std::find(sym.begin(), sym.end(), query.subject) != sym.end())
      return 0.0;
  }
  return -1.0;
}

std::map<NodeId, std::vector<NodeId>> oracle_latest_sym(
    const std::deque<TextRecord>& log) {
  std::map<NodeId, std::vector<NodeId>> latest;
  for (const auto& rec : text_with_event(log, "hello_recv"))
    latest[rec.node_field("from")] = rec.node_list_field("sym");
  return latest;
}

std::vector<NodeId> oracle_believed_neighbors_of(
    const olsr::Agent& agent, const std::deque<TextRecord>& log,
    NodeId suspect) {
  std::set<NodeId> out;
  const auto latest_sym = oracle_latest_sym(log);
  auto it = latest_sym.find(suspect);
  if (it != latest_sym.end())
    for (auto n : it->second) out.insert(n);
  for (const auto& [from, sym] : latest_sym) {
    if (from == suspect) continue;
    if (std::find(sym.begin(), sym.end(), suspect) != sym.end())
      out.insert(from);
  }
  out.erase(agent.id());
  out.erase(suspect);
  return {out.begin(), out.end()};
}

std::vector<NodeId> oracle_find_disputed_links(
    const olsr::Agent& agent, const std::deque<TextRecord>& log,
    NodeId suspect) {
  constexpr std::size_t kMaxLinks = 3;
  const auto latest_sym = oracle_latest_sym(log);
  auto it = latest_sym.find(suspect);
  if (it == latest_sym.end()) return {};
  std::set<NodeId> independent;
  for (const auto& [from, sym] : latest_sym) {
    independent.insert(from);
    if (from == suspect) continue;
    independent.insert(sym.begin(), sym.end());
  }
  for (const auto& rec : text_with_event(log, "tc_recv")) {
    independent.insert(rec.node_field("orig"));
    if (rec.node_field("orig") == suspect) continue;
    const auto adv = rec.node_list_field("adv");
    independent.insert(adv.begin(), adv.end());
  }
  std::vector<NodeId> disputed;
  for (auto x : it->second) {
    if (disputed.size() >= kMaxLinks) break;
    if (x == agent.id()) continue;
    if (!independent.contains(x)) {
      disputed.push_back(x);
      continue;
    }
    auto xh = latest_sym.find(x);
    if (xh != latest_sym.end() &&
        std::find(xh->second.begin(), xh->second.end(), suspect) ==
            xh->second.end())
      disputed.push_back(x);
  }
  return disputed;
}

// --------------------------------------------------------------- probes

/// Comparison counts, and the oracle's text view of every node's log.
struct Tally {
  std::deque<TextLog> text;
  std::size_t observations = 0;  ///< honest_observation comparisons
  std::size_t detector_queries = 0;
  std::size_t batches = 0;
  std::size_t batch_records = 0;
};

/// Compares honest_observation with the oracle for every investigation
/// query the node receives and, at the investigator, for the link of
/// every answer it receives — at the moment the message arrives, which is
/// the log state and sim time of the live call (a query's own data_recv
/// line is appended afterwards and is no input to the observation).
class QueryProbe : public olsr::AgentHooks {
 public:
  QueryProbe(Network& net, std::size_t index, TextLog& text, Tally& tally)
      : net_{net}, index_{index}, text_{text}, tally_{tally} {}

  void on_receive(const olsr::Message& message) override {
    const auto* data = message.as_data();
    if (data == nullptr || data->protocol != core::kInvestigationProtocol ||
        data->destination != Network::id_of(index_))
      return;
    if (const auto q = core::decode_query(data->payload)) {
      check(*q);
    } else if (const auto a = core::decode_answer(data->payload)) {
      LinkQuery q;
      q.suspect = a->suspect;
      q.subject = a->subject;
      check(q);
      q.kind = QueryKind::kForwarding;
      check(q);
    }
  }

 private:
  void check(const LinkQuery& q) {
    const auto& agent = net_.agent(index_);
    EXPECT_EQ(net_.investigations(index_).honest_observation(q),
              oracle_honest_observation(agent, text_.sync(agent.log()),
                                        net_.now(), q))
        << "node " << index_ << " suspect " << q.suspect.to_string()
        << " subject " << q.subject.to_string() << " kind "
        << static_cast<int>(q.kind) << " at " << net_.now().to_string();
    ++tally_.observations;
  }

  Network& net_;
  std::size_t index_;
  TextLog& text_;
  Tally& tally_;
};

/// Puts a QueryProbe on every node that runs no attack hooks, with a
/// fresh text view of each node's log.
void install_probes(Network& net, Tally& tally) {
  tally.text.clear();
  tally.text.resize(net.size());
  for (std::size_t i = 0; i < net.size(); ++i)
    if (net.hooks(i) == nullptr)
      net.set_hooks(i, std::make_unique<QueryProbe>(net, i, tally.text[i],
                                                    tally));
}

/// The detector's queries about `suspects`, and the batch its next scan
/// reads, against the oracle — called right before that scan runs.
void check_detector(Network& net, std::size_t index, core::Detector& detector,
                    const std::vector<NodeId>& suspects, Tally& tally) {
  const auto& agent = net.agent(index);
  const auto& text = tally.text.at(index).sync(agent.log());
  for (auto s : suspects) {
    EXPECT_EQ(detector.find_disputed_links(s),
              oracle_find_disputed_links(agent, text, s))
        << "suspect " << s.to_string() << " at " << net.now().to_string();
    EXPECT_EQ(detector.believed_neighbors_of(s),
              oracle_believed_neighbors_of(agent, text, s))
        << "suspect " << s.to_string() << " at " << net.now().to_string();
    tally.detector_queries += 2;
  }

  const auto since = detector.persist().last_scan;
  const auto& log = agent.log();
  const auto parsed = logging::parse_log(log.text_since(since));
  const auto batch = log.records_since(since);
  ASSERT_EQ(parsed.size(), batch.size());
  auto it = parsed.begin();
  for (const auto& rec : batch) EXPECT_EQ(*it++, rec);
  ++tally.batches;
  tally.batch_records += batch.size();
}

/// Every node of `net` plus `extra`: the suspects a scan may ask about.
std::vector<NodeId> every_node(const Network& net, std::vector<NodeId> extra) {
  for (std::size_t i = 0; i < net.size(); ++i)
    extra.push_back(Network::id_of(i));
  return extra;
}

/// The suspects of a claim-driven round: the attacker, its phantom and a
/// bystander.
std::vector<NodeId> round_suspects(TrustExperiment& exp) {
  return {exp.attacker(), exp.phantom(), exp.honest().front()};
}

constexpr std::uint64_t kSeeds = 50;

TrustExperiment::Config experiment(std::uint64_t seed,
                                   TrustExperiment::AttackKind attack,
                                   int rounds) {
  TrustExperiment::Config c;
  c.seed = seed;
  c.num_nodes = 16;
  c.num_liars = 4;
  c.rounds = rounds;
  c.attack = attack;
  return c;
}

// ---------------------------------------------------------------- cases

TEST(TypedLog, SpoofRoundsMatchStringQueries) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    TrustExperiment exp{
        experiment(seed, TrustExperiment::AttackKind::kSpoof, 4)};
    exp.setup();
    install_probes(exp.network(), tally);
    for (int r = 0; r < 4; ++r) {
      exp.run_round();
      check_detector(exp.network(), 0, exp.detector(), round_suspects(exp),
                     tally);
    }
  }
  EXPECT_GT(tally.observations, kSeeds * 4 * 10);
  EXPECT_GT(tally.batch_records, 0u);
}

TEST(TypedLog, GrayholeScansMatchStringQueries) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    TrustExperiment exp{
        experiment(seed, TrustExperiment::AttackKind::kGrayhole, 4)};
    exp.setup();
    install_probes(exp.network(), tally);
    for (int r = 1; r <= 4; ++r) {
      // Drive to the round's scan slot so the check sees the state the
      // round's scan reads (run_round then drives no further before it).
      const auto slot = sim::Time::from_seconds(15.0 + 5.0 * r);
      auto& net = exp.network();
      if (net.now() < slot) net.run_for(slot - net.now());
      check_detector(net, 0, exp.detector(), every_node(net, {}), tally);
      exp.run_round();
    }
  }
  EXPECT_GT(tally.batches, kSeeds * 3);
  EXPECT_GT(tally.batch_records, 0u);
  EXPECT_GT(tally.observations, 0u);
}

TEST(TypedLog, ChaosRoundsMatchStringQueries) {
  Tally tally;
  constexpr int kRounds = 4;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto config = experiment(seed, TrustExperiment::AttackKind::kSpoof,
                             kRounds);
    // The --faults chaos plan of runtime::ReplicationTask (16 nodes).
    config.fault_plan = faults::FaultPlan::chaos(
        seed, 16, 4 * 50.0, sim::Time::from_seconds(20.0),
        sim::Time::from_seconds(20.0 + 5.0 * kRounds));
    TrustExperiment exp{config};
    exp.setup();
    install_probes(exp.network(), tally);
    for (int r = 0; r < kRounds; ++r) {
      exp.run_churn_round();
      check_detector(exp.network(), 0, exp.detector(), round_suspects(exp),
                     tally);
    }
  }
  EXPECT_GT(tally.observations, kSeeds * kRounds * 5);
}

TEST(TypedLog, RetentionPressureMatchesStringQueries) {
  // A 200-record log retires records on every HELLO round: the per-event
  // index and the latest-HELLO lookup must track exactly the retained
  // suffix the text oracle reads.
  Tally tally;
  std::uint64_t dropped = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Network::Config c;
    c.seed = seed;
    c.radio.range_m = 160.0;
    c.positions = net::grid_layout(9, 100.0);
    c.agent.log_capacity = 200;
    Network net{c};
    net.set_hooks(4, std::make_unique<attacks::LinkSpoofingAttack>(
                         attacks::LinkSpoofingAttack::Mode::kAddNonExistent,
                         std::set<NodeId>{NodeId{77}}));
    auto& detector = net.add_detector(0);
    install_probes(net, tally);
    net.start_all();
    net.run_for(sim::Duration::from_seconds(20.0));
    for (int scan = 0; scan < 8; ++scan) {
      net.run_for(sim::Duration::from_seconds(5.0));
      check_detector(net, 0, detector, every_node(net, {NodeId{77}}), tally);
      net.run_as(0, [&] { detector.scan_once(); });
    }
    net.run_for(sim::Duration::from_seconds(10.0));
    dropped += net.agent(0).log().dropped();
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(tally.batches, kSeeds * 7);
  EXPECT_GT(tally.observations, 0u);
}

TEST(TypedLog, CheckpointRestoreMatchesStringQueries) {
  // Checkpointed at round 3 and restored: the restored stores rebuild
  // their indexes from the decoded records.
  auto config = experiment(11, TrustExperiment::AttackKind::kSpoof, 6);
  config.checkpointable = true;
  Tally tally;
  TrustExperiment original{config};
  original.setup();
  for (int r = 0; r < 3; ++r) original.run_round();
  const auto bytes = original.save_checkpoint();

  auto restored = TrustExperiment::restore_checkpoint(config, bytes);
  auto& net = restored->network();
  for (std::size_t i = 0; i < net.size(); ++i) {
    const auto& log = net.agent(i).log();
    const auto& before = original.network().agent(i).log();
    ASSERT_EQ(log.size(), before.size());
    EXPECT_TRUE(std::ranges::equal(log.records(), before.records()));
    EXPECT_TRUE(std::ranges::equal(log.records_with_event("hello_recv"),
                                   before.records_with_event("hello_recv")));
    ASSERT_EQ(log.latest_hellos().size(), before.latest_hellos().size());
    for (const auto& [from, rec] : log.latest_hellos())
      EXPECT_EQ(*rec, *before.latest_hello_from(from));
  }
  install_probes(net, tally);
  check_detector(net, 0, restored->detector(),
                 every_node(net, {restored->phantom()}), tally);
  for (int r = 3; r < 6; ++r) {
    restored->run_round();
    check_detector(net, 0, restored->detector(), round_suspects(*restored),
                   tally);
  }
  EXPECT_GT(tally.observations, 3u * 10);
}

// ----------------------------------------------------- rendering parity

/// The value text of a field as the all-string record held it: ids
/// joined with NodeId::to_string and '|'.
std::string string_value(const logging::LogField& field) {
  if (const auto* text = std::get_if<std::string>(&field.value)) return *text;
  std::string out;
  for (auto id : field.ids()) {
    if (!out.empty()) out += '|';
    out += id.to_string();
  }
  return out;
}

std::string string_format(const LogRecord& r) {
  std::string out = "t=" + r.time.to_string() + " node=" + r.node.to_string() +
                    " event=" + r.event;
  for (const auto& f : r.fields) {
    const auto v = string_value(f);
    out += ' ' + f.key + '=' + (v.empty() ? std::string{"-"} : v);
  }
  return out;
}

std::vector<std::uint8_t> string_bytes(const LogRecord& r) {
  net::ByteWriter<std::endian::little> w;
  w.time(r.time);
  w.node(r.node);
  w.str(r.event);
  w.count(r.fields.size());
  for (const auto& f : r.fields) {
    w.str(f.key);
    w.str(string_value(f));
  }
  return w.take();
}

std::vector<std::uint8_t> typed_bytes(const LogRecord& r) {
  net::ByteWriter<std::endian::little> w;
  logging::write_record(w, r);
  return w.take();
}

/// Checks every retained record of every node; returns the event kinds.
std::set<std::string> check_rendering(Network& net) {
  std::set<std::string> events;
  for (std::size_t i = 0; i < net.size(); ++i) {
    for (const auto& r : net.agent(i).log().records()) {
      events.insert(r.event);
      EXPECT_EQ(logging::format_record(r), string_format(r));
      const auto bytes = typed_bytes(r);
      EXPECT_EQ(bytes, string_bytes(r)) << r.event;
      net::ByteReader<std::endian::little, logging::AuditError> reader{bytes};
      EXPECT_EQ(logging::read_record(reader), r) << r.event;
    }
  }
  return events;
}

TEST(TypedLog, EveryAgentEventRendersLikeTheStringRecord) {
  std::set<std::string> events;
  {
    // A 4-node chain: multi-hop TC forwarding (msg_fwd, own_fwd_heard,
    // fwd_echo), MID/HNA, data relaying, a lost link and a table reset.
    Network::Config c;
    c.radio.range_m = 60.0;
    c.positions = {{0, 0}, {50, 0}, {100, 0}, {150, 0}};
    c.agent.extra_interfaces = {NodeId{200}};
    c.agent.hna_networks = {olsr::HnaMessage::Entry{0x0A000000u, 8}};
    c.agent.log_fwd_echo = true;
    Network net{c};
    net.start_all();
    net.run_for(sim::Duration::from_seconds(30.0));
    net.agent(0).send_data(Network::id_of(3), 7, {1, 2, 3});
    net.agent(0).send_data(NodeId{99}, 7, {1});  // data_no_route
    // A DATA message whose source route is already used up: the relay
    // drops it (data_drop).
    olsr::DataMessage stale;
    stale.source = Network::id_of(0);
    stale.destination = Network::id_of(3);
    stale.protocol = 7;
    olsr::Message m;
    m.header.type = olsr::MessageType::kData;
    m.header.originator = Network::id_of(0);
    m.header.ttl = 8;
    m.body = stale;
    net.agent(0).raw_broadcast(m);
    // A message from the reserved address: packet_parse_error.
    m.header.originator = NodeId{NodeId::kInvalid};
    net.agent(0).raw_broadcast(m);
    net.run_for(sim::Duration::from_seconds(5.0));
    net.agent(3).stop();
    net.run_for(sim::Duration::from_seconds(20.0));
    net.agent(1).reset_tables();
    net.run_for(sim::Duration::from_seconds(5.0));
    const auto seen = check_rendering(net);
    events.insert(seen.begin(), seen.end());
  }
  {
    // The paper's spoofing round on a full mesh (mpr selector churn).
    TrustExperiment exp{experiment(3, TrustExperiment::AttackKind::kSpoof, 2)};
    exp.setup();
    exp.run_round();
    const auto seen = check_rendering(exp.network());
    events.insert(seen.begin(), seen.end());
  }
  for (const char* event :
       {"daemon_start", "daemon_stop", "hello_sent", "tc_sent", "mid_sent",
        "hna_sent", "packet_parse_error", "own_fwd_heard", "hello_recv",
        "link_sym", "link_lost", "two_hop_update", "mpr_selector_add",
        "mpr_selector_del", "fwd_echo", "tc_recv", "mid_recv", "hna_recv",
        "msg_fwd", "tables_reset", "data_no_route", "data_sent", "data_recv",
        "data_drop", "data_fwd", "mpr_changed", "routes_changed"})
    EXPECT_TRUE(events.contains(event)) << event;
}

}  // namespace
}  // namespace manet

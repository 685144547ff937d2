// Unit tests for the audit-log substrate: record fields, text format
// round-trip, log store retention and queries.

#include <gtest/gtest.h>

#include "logging/format.hpp"
#include "logging/log_store.hpp"
#include "logging/record.hpp"

namespace manet::logging {
namespace {

using net::NodeId;

LogRecord sample_record() {
  LogRecord r;
  r.time = sim::Time::from_us(1'234'567);
  r.node = NodeId{3};
  r.event = "hello_recv";
  r.with("from", NodeId{5})
      .with("sym", join_node_list({NodeId{1}, NodeId{2}}))
      .with("seq", std::int64_t{42});
  return r;
}

TEST(Record, FieldAccessors) {
  const auto r = sample_record();
  EXPECT_EQ(r.field("from"), "n5");
  EXPECT_FALSE(r.field("missing").has_value());
  EXPECT_EQ(r.node_field("from"), NodeId{5});
  EXPECT_EQ(r.int_field("seq"), 42);
  EXPECT_EQ(r.node_list_field("sym"),
            (std::vector<NodeId>{NodeId{1}, NodeId{2}}));
}

TEST(Record, MissingFieldThrows) {
  const auto r = sample_record();
  EXPECT_THROW(r.node_list_field("nope"), std::invalid_argument);
  EXPECT_THROW(r.node_field("nope"), std::invalid_argument);
  EXPECT_THROW(r.int_field("from"), std::invalid_argument);
}

TEST(Record, JoinAndSplitNodeList) {
  EXPECT_EQ(join_node_list({}), "");
  EXPECT_EQ(join_node_list({NodeId{7}}), "n7");
  EXPECT_EQ(join_node_list({NodeId{1}, NodeId{2}}), "n1|n2");
  // The split is the typed parse of a node-list value.
  EXPECT_TRUE(LogRecord{}.with("sym", "").node_list_field("sym").empty());
  EXPECT_EQ(LogRecord{}.with("sym", "n1|n2|n3").node_list_field("sym"),
            (std::vector<NodeId>{NodeId{1}, NodeId{2}, NodeId{3}}));
  EXPECT_EQ(LogRecord{}.with("sym", "n7").node_list_field("sym"),
            (std::vector<NodeId>{NodeId{7}}));
  EXPECT_THROW(LogRecord{}.with("sym", "n1||n2"), std::invalid_argument);
}

TEST(Format, FormatsCanonicalLine) {
  const auto line = format_record(sample_record());
  EXPECT_EQ(line, "t=1.234567s node=n3 event=hello_recv from=n5 sym=n1|n2 seq=42");
}

TEST(Format, EmptyValueUsesDashPlaceholder) {
  LogRecord r;
  r.time = sim::Time{};
  r.node = NodeId{0};
  r.event = "mpr_changed";
  r.with("added", "");
  const auto line = format_record(r);
  EXPECT_NE(line.find("added=-"), std::string::npos);
  const auto back = parse_record(line);
  EXPECT_EQ(back.field("added"), "");
}

TEST(Format, RoundTripPreservesEverything) {
  const auto original = sample_record();
  const auto back = parse_record(format_record(original));
  EXPECT_EQ(back.time, original.time);
  EXPECT_EQ(back.node, original.node);
  EXPECT_EQ(back.event, original.event);
  EXPECT_EQ(back.fields, original.fields);
}

TEST(Format, ParseRejectsMalformedLines) {
  EXPECT_THROW(parse_record(""), std::invalid_argument);
  EXPECT_THROW(parse_record("node=n1 event=x"), std::invalid_argument);
  EXPECT_THROW(parse_record("t=1.000000s event=x"), std::invalid_argument);
  EXPECT_THROW(parse_record("t=1.000000s node=n1"), std::invalid_argument);
  EXPECT_THROW(parse_record("t=bogus node=n1 event=x"), std::invalid_argument);
  EXPECT_THROW(parse_record("t=1.0s node=n1 event=x"), std::invalid_argument);
  EXPECT_THROW(parse_record("t=1.000000s node=n1 event=x ="),
               std::invalid_argument);
}

TEST(Format, ParseLogSkipsBlankLines) {
  const auto text = format_record(sample_record()) + "\n\n" +
                    format_record(sample_record()) + "\n";
  const auto records = parse_log(text);
  EXPECT_EQ(records.size(), 2u);
}

TEST(Format, ForwardingAuditRecordsRoundTrip) {
  // The forwarding-audit records introduced with audit-log version 2:
  // fwd_echo (agent overhears an MPR re-broadcast) and fwd_audit_fail
  // (synthesized by the auditor's sweep). Both must survive the canonical
  // text format, since manet_parse replays logs through it.
  LogRecord echo;
  echo.time = sim::Time::from_seconds(21.5);
  echo.node = NodeId{0};
  echo.event = "fwd_echo";
  echo.with("by", NodeId{1}).with("orig", NodeId{5}).with("seq",
                                                          std::int64_t{1040});
  auto back = parse_record(format_record(echo));
  EXPECT_EQ(back.node_field("by"), NodeId{1});
  EXPECT_EQ(back.node_field("orig"), NodeId{5});
  EXPECT_EQ(back.int_field("seq"), 1040);

  LogRecord fail;
  fail.time = sim::Time::from_seconds(25.0);
  fail.node = NodeId{0};
  fail.event = "fwd_audit_fail";
  fail.with("mpr", NodeId{1})
      .with("expected", std::int64_t{6})
      .with("forwarded", std::int64_t{0});
  back = parse_record(format_record(fail));
  EXPECT_EQ(back.event, "fwd_audit_fail");
  EXPECT_EQ(back.node_field("mpr"), NodeId{1});
  EXPECT_EQ(back.int_field("expected"), 6);
  EXPECT_EQ(back.int_field("forwarded"), 0);
}

TEST(Format, NegativeTimeRejected) {
  // Times are since simulation start; "-1.000000s" must not parse.
  EXPECT_THROW(parse_record("t=-1.000000s node=n1 event=x"),
               std::invalid_argument);
}

TEST(LogStore, AppendsInOrderAndQueries) {
  LogStore store;
  for (int i = 0; i < 5; ++i) {
    LogRecord r;
    r.time = sim::Time::from_seconds(i);
    r.node = NodeId{0};
    r.event = i % 2 ? "odd" : "even";
    store.append(std::move(r));
  }
  EXPECT_EQ(store.size(), 5u);
  EXPECT_EQ(store.records_since(sim::Time::from_seconds(3)).size(), 2u);
  EXPECT_EQ(store.records_with_event("even").size(), 3u);
  EXPECT_EQ(store.total_appended(), 5u);
}

TEST(LogStore, BoundedRetentionDropsOldest) {
  LogStore store{3};
  for (int i = 0; i < 10; ++i) {
    LogRecord r;
    r.time = sim::Time::from_seconds(i);
    r.node = NodeId{0};
    r.event = "e";  // += dodges GCC 12's -Wrestrict false positive
    r.event += std::to_string(i);
    store.append(std::move(r));
  }
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.dropped(), 7u);
  EXPECT_EQ(store.at(0).event, "e7");
}

TEST(LogStore, ZeroCapacityRejected) {
  // A store must keep the record it just appended: the audit writer and
  // the observer read it back after retention has run.
  EXPECT_THROW(LogStore{0}, std::invalid_argument);
  LogStore one{1};
  int seen = 0;
  one.set_observer([&](const LogRecord& r) {
    EXPECT_EQ(r.event, "hello_recv");
    ++seen;
  });
  one.append(sample_record());
  one.append(sample_record());
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(one.dropped(), 1u);
}

TEST(LogStore, TextSinceIsParseable) {
  LogStore store;
  for (int i = 0; i < 4; ++i) {
    auto r = sample_record();
    r.time = sim::Time::from_seconds(i);
    store.append(std::move(r));
  }
  const auto text = store.text_since(sim::Time::from_seconds(2));
  const auto parsed = parse_log(text);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].time, sim::Time::from_seconds(2));
}

TEST(LogStore, ObserverSeesEveryAppend) {
  LogStore store;
  int seen = 0;
  store.set_observer([&](const LogRecord&) { ++seen; });
  store.append(sample_record());
  store.append(sample_record());
  EXPECT_EQ(seen, 2);
}

// Property: format/parse round-trip over a variety of field shapes.
class FormatRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(FormatRoundTrip, Holds) {
  LogRecord r;
  r.time = sim::Time::from_us(GetParam() * 997);
  r.node = NodeId{static_cast<std::uint32_t>(GetParam())};
  r.event = "event_" + std::to_string(GetParam());
  for (int f = 0; f < GetParam() % 7; ++f)
    r.with("k" + std::to_string(f), std::int64_t{f * 13});
  const auto back = parse_record(format_record(r));
  EXPECT_EQ(back.time, r.time);
  EXPECT_EQ(back.node, r.node);
  EXPECT_EQ(back.event, r.event);
  EXPECT_EQ(back.fields, r.fields);
}

INSTANTIATE_TEST_SUITE_P(Shapes, FormatRoundTrip,
                         ::testing::Values(0, 1, 2, 5, 13, 100, 12345));

}  // namespace
}  // namespace manet::logging

// Tests for the RFC 3626 §8.3.1 MPR selection heuristic, including
// randomized property sweeps over the coverage invariant — the invariant a
// link spoofing attack exploits from the victim's side.

#include <gtest/gtest.h>

#include <algorithm>

#include "olsr/mpr_selection.hpp"
#include "sim/rng.hpp"

namespace manet::olsr {
namespace {

NodeId n(std::uint32_t v) { return NodeId{v}; }

// Builders keeping the flat MprInputs slabs sorted the way the agent does.
void set_will(MprInputs& in, NodeId id, Willingness w) {
  auto it = std::lower_bound(
      in.neighbors.begin(), in.neighbors.end(), id,
      [](const auto& p, NodeId v) { return p.first < v; });
  if (it != in.neighbors.end() && it->first == id) {
    it->second = w;
  } else {
    in.neighbors.insert(it, {id, w});
  }
}

void add_reach(MprInputs& in, NodeId via, NodeId two_hop) {
  auto it = std::lower_bound(
      in.reach.begin(), in.reach.end(), via,
      [](const auto& p, NodeId v) { return p.first < v; });
  if (it == in.reach.end() || it->first != via)
    it = in.reach.insert(it, {via, {}});
  auto& ths = it->second;
  auto pos = std::lower_bound(ths.begin(), ths.end(), two_hop);
  if (pos == ths.end() || *pos != two_hop) ths.insert(pos, two_hop);
}

bool contains(const std::vector<NodeId>& sorted, NodeId id) {
  return std::binary_search(sorted.begin(), sorted.end(), id);
}

TEST(MprSelection, EmptyInputsEmptyMprs) {
  EXPECT_TRUE(select_mprs(MprInputs{}).empty());
}

TEST(MprSelection, NoTwoHopsNoMprs) {
  MprInputs in;
  set_will(in, n(1), Willingness::kDefault);
  set_will(in, n(2), Willingness::kDefault);
  EXPECT_TRUE(select_mprs(in).empty());
}

TEST(MprSelection, WillAlwaysIsAlwaysSelected) {
  MprInputs in;
  set_will(in, n(1), Willingness::kAlways);
  set_will(in, n(2), Willingness::kDefault);
  add_reach(in, n(2), n(10));
  const auto mprs = select_mprs(in);
  EXPECT_TRUE(contains(mprs, n(1)));
  EXPECT_TRUE(contains(mprs, n(2)));
}

TEST(MprSelection, SoleProviderForced) {
  MprInputs in;
  set_will(in, n(1), Willingness::kDefault);
  set_will(in, n(2), Willingness::kDefault);
  add_reach(in, n(1), n(10));
  add_reach(in, n(1), n(11));
  add_reach(in, n(2), n(11));
  add_reach(in, n(2), n(12));  // only n2 reaches n12
  const auto mprs = select_mprs(in);
  EXPECT_TRUE(contains(mprs, n(2)));
}

TEST(MprSelection, GreedyPrefersLargerCoverage) {
  MprInputs in;
  for (std::uint32_t i = 1; i <= 3; ++i)
    set_will(in, n(i), Willingness::kDefault);
  add_reach(in, n(1), n(10));
  add_reach(in, n(1), n(11));
  add_reach(in, n(1), n(12));
  add_reach(in, n(2), n(10));
  add_reach(in, n(3), n(11));
  const auto mprs = select_mprs(in);
  EXPECT_EQ(mprs, (std::vector<NodeId>{n(1)}));
}

TEST(MprSelection, TieBrokenByWillingness) {
  MprInputs in;
  set_will(in, n(1), Willingness::kLow);
  set_will(in, n(2), Willingness::kHigh);
  add_reach(in, n(1), n(10));
  add_reach(in, n(2), n(10));
  const auto mprs = select_mprs(in);
  EXPECT_EQ(mprs, (std::vector<NodeId>{n(2)}));
}

TEST(MprSelection, TieBrokenByIdForDeterminism) {
  MprInputs in;
  set_will(in, n(5), Willingness::kDefault);
  set_will(in, n(2), Willingness::kDefault);
  add_reach(in, n(5), n(10));
  add_reach(in, n(2), n(10));
  EXPECT_EQ(select_mprs(in), (std::vector<NodeId>{n(2)}));
}

TEST(MprSelection, UnreachableTwoHopDoesNotLoopForever) {
  MprInputs in;
  set_will(in, n(1), Willingness::kDefault);
  add_reach(in, n(1), n(10));
  // n11 appears via a neighbor with no entry in `neighbors` — a degenerate
  // input; the loop must terminate with partial coverage.
  add_reach(in, n(99), n(11));
  const auto mprs = select_mprs(in);
  EXPECT_TRUE(contains(mprs, n(1)));
}

TEST(MprSelection, CoversAllTwoHopsDetectsGaps) {
  MprInputs in;
  set_will(in, n(1), Willingness::kDefault);
  set_will(in, n(2), Willingness::kDefault);
  add_reach(in, n(1), n(10));
  add_reach(in, n(2), n(11));
  EXPECT_FALSE(covers_all_two_hops(in, {n(1)}));
  EXPECT_TRUE(covers_all_two_hops(in, {n(1), n(2)}));
}

// The paper's Expression 1 exploit, from the selector's perspective: a
// neighbor advertising a phantom 2-hop node is guaranteed to be selected,
// because it is the phantom's sole provider.
TEST(MprSelection, PhantomNeighborForcesAttackerSelection) {
  MprInputs in;
  for (std::uint32_t i = 1; i <= 4; ++i)
    set_will(in, n(i), Willingness::kDefault);
  add_reach(in, n(1), n(10));
  add_reach(in, n(1), n(11));
  add_reach(in, n(2), n(10));
  add_reach(in, n(2), n(11));
  // The attacker n4 has poor real coverage but invents phantom n99.
  add_reach(in, n(4), n(99));
  const auto mprs = select_mprs(in);
  EXPECT_TRUE(contains(mprs, n(4)));
}

// The scratch overload must agree with the plain one (the agent uses the
// former; tests mostly exercise the latter).
TEST(MprSelection, ScratchOverloadMatchesPlain) {
  MprInputs in;
  for (std::uint32_t i = 1; i <= 4; ++i)
    set_will(in, n(i), Willingness::kDefault);
  add_reach(in, n(1), n(10));
  add_reach(in, n(2), n(10));
  add_reach(in, n(2), n(11));
  add_reach(in, n(3), n(12));
  MprScratch scratch;
  std::vector<NodeId> out{n(77)};  // stale content must be cleared
  select_mprs(in, scratch, out);
  EXPECT_EQ(out, select_mprs(in));
}

// Property sweep: for random neighborhoods, the selected MPR set always
// covers every strict 2-hop node, never includes WILL_NEVER-excluded
// entries (the caller drops them from reach).
class MprProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MprProperty, CoverageInvariants) {
  sim::Rng rng{GetParam()};
  MprInputs in;
  const int n1_count = static_cast<int>(rng.uniform_int(1, 12));
  const int n2_count = static_cast<int>(rng.uniform_int(1, 20));
  for (int i = 1; i <= n1_count; ++i) {
    const auto w = std::vector<Willingness>{
        Willingness::kLow, Willingness::kDefault, Willingness::kHigh,
        Willingness::kAlways}[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    set_will(in, n(static_cast<std::uint32_t>(i)), w);
  }
  for (int j = 0; j < n2_count; ++j) {
    const auto two_hop = n(static_cast<std::uint32_t>(100 + j));
    const int providers = static_cast<int>(rng.uniform_int(1, n1_count));
    for (int k = 0; k < providers; ++k) {
      const auto via =
          n(static_cast<std::uint32_t>(rng.uniform_int(1, n1_count)));
      add_reach(in, via, two_hop);
    }
  }

  const auto mprs = select_mprs(in);
  EXPECT_TRUE(covers_all_two_hops(in, mprs));
  EXPECT_TRUE(std::is_sorted(mprs.begin(), mprs.end()));
  for (auto m : mprs) {
    const auto it = std::lower_bound(
        in.neighbors.begin(), in.neighbors.end(), m,
        [](const auto& p, NodeId v) { return p.first < v; });
    EXPECT_TRUE(it != in.neighbors.end() && it->first == m);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MprProperty,
                         ::testing::Range<std::uint64_t>(1, 40));

}  // namespace
}  // namespace manet::olsr

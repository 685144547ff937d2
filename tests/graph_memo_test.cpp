// Equivalence suite for the memoized, packed-key KnowledgeGraph build.
//
// The graph keeps the raw arc list its CSR was built from and keeps the CSR
// when the next gathered list is equal; a rebuild LSD-radix-sorts packed
// (from << 32 | to) keys, one counting pass per byte that differs between
// the keys, and takes the node list from the sources. Replication ids are
// small, so WideIdArcListsMatchTheOracle makes every byte of the key
// differ. The oracle below is the pair-sorting build the graph used
// before: every CSR the memoized graph hands out must equal the oracle's
// over the same arcs — in unit cases, and in full replications where a
// checker reads every agent's graph at a fixed sim-time cadence and
// rebuilds the oracle from the agent's own tables (link set, 2-hop set,
// topology set).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "attacks/link_spoofing.hpp"
#include "faults/fault_plan.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "olsr/routing_table.hpp"
#include "runtime/experiment_spec.hpp"
#include "scenario/network.hpp"
#include "scenario/trust_experiment.hpp"
#include "sim/rng.hpp"

namespace {

using namespace manet;
using net::NodeId;
using olsr::KnowledgeGraph;
using scenario::TrustExperiment;
using Arc = std::pair<NodeId, NodeId>;

struct Csr {
  std::vector<NodeId> nodes;
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> targets;
  friend bool operator==(const Csr&, const Csr&) = default;
  // A failed comparison prints the arrays, not the vectors' bytes.
  friend void PrintTo(const Csr& g, std::ostream* os) {
    *os << "nodes [";
    for (const auto id : g.nodes) *os << ' ' << id.value();
    *os << " ] offsets [";
    for (const auto o : g.offsets) *os << ' ' << o;
    *os << " ] targets [";
    for (const auto t : g.targets) *os << ' ' << t;
    *os << " ]";
  }
};

/// The pair-sorting build the memoized graph replaced: sort and dedup the
/// (from, to) pairs, take the union of both endpoint sets as the node
/// list, then fill the CSR in one sweep. An empty arc list yields no
/// arrays at all, as a cleared graph always had.
Csr oracle_build(std::vector<Arc> arcs) {
  Csr g;
  if (arcs.empty()) return g;
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  for (const auto& [from, to] : arcs) {
    g.nodes.push_back(from);
    g.nodes.push_back(to);
  }
  std::sort(g.nodes.begin(), g.nodes.end());
  g.nodes.erase(std::unique(g.nodes.begin(), g.nodes.end()), g.nodes.end());
  g.offsets.assign(g.nodes.size() + 1, 0);
  std::size_t node = 0;
  for (const auto& [from, to] : arcs) {
    while (g.nodes[node] != from) g.offsets[++node] = g.targets.size();
    g.targets.push_back(static_cast<std::uint32_t>(
        std::lower_bound(g.nodes.begin(), g.nodes.end(), to) -
        g.nodes.begin()));
  }
  while (node < g.nodes.size()) g.offsets[++node] = g.targets.size();
  return g;
}

Csr csr_of(const KnowledgeGraph& g) {
  const auto offsets = g.offsets();
  const auto targets = g.targets();
  return Csr{g.nodes(), {offsets.begin(), offsets.end()},
             {targets.begin(), targets.end()}};
}

KnowledgeGraph graph_of(const std::vector<Arc>& arcs) {
  KnowledgeGraph g;
  for (const auto& [from, to] : arcs) g.add_arc(from, to);
  return g;
}

/// Builds and reuses counted while `fn` runs.
template <typename F>
std::pair<std::uint64_t, std::uint64_t> count_builds(F&& fn) {
  obs::Context ctx;
  {
    obs::Scope scope{&ctx};
    fn();
  }
  const auto snap = ctx.snapshot();
  return {snap.counter_value(obs::hot_name(obs::Hot::kGraphBuilds)),
          snap.counter_value(obs::hot_name(obs::Hot::kGraphReuses))};
}

NodeId n(std::uint32_t v) { return NodeId{v}; }

// --- unit cases -------------------------------------------------------------

TEST(GraphMemo, AsymmetricTargetThatIsNeverASource) {
  // n9 and n7 only ever appear as targets: the node list must still hold
  // them (the union fallback), in id order, with empty adjacency.
  const std::vector<Arc> arcs{{n(3), n(9)}, {n(1), n(3)}, {n(3), n(7)},
                              {n(1), n(9)}};
  const auto g = graph_of(arcs);
  EXPECT_EQ(csr_of(g), oracle_build(arcs));
  EXPECT_EQ(g.nodes(), (std::vector<NodeId>{n(1), n(3), n(7), n(9)}));
  EXPECT_TRUE(g.arcs_from(g.index_of(n(9))).empty());
  EXPECT_EQ(g.arc_count(), 4u);
}

TEST(GraphMemo, SymmetricGraphTakesNodesFromSources) {
  KnowledgeGraph g;
  g.add_edge(n(5), n(2));
  g.add_edge(n(2), n(8));
  g.add_edge(n(5), n(2));  // duplicate edge
  const std::vector<Arc> arcs{{n(5), n(2)}, {n(2), n(5)}, {n(2), n(8)},
                              {n(8), n(2)}};
  EXPECT_EQ(csr_of(g), oracle_build(arcs));
  EXPECT_EQ(g.arc_count(), 4u);
}

TEST(GraphMemo, SameArcsInAnotherOrderGiveTheSameCsr) {
  std::vector<Arc> arcs{{n(4), n(1)}, {n(1), n(4)}, {n(2), n(6)},
                        {n(6), n(2)}, {n(1), n(2)}, {n(2), n(1)},
                        {n(4), n(6)}};
  const auto want = oracle_build(arcs);
  KnowledgeGraph g;
  for (int pass = 0; pass < 4; ++pass) {
    g.clear();
    for (const auto& [from, to] : arcs) g.add_arc(from, to);
    EXPECT_EQ(csr_of(g), want) << "pass " << pass;
    std::reverse(arcs.begin(), arcs.end());
    std::rotate(arcs.begin(), arcs.begin() + 2, arcs.end());
  }
}

TEST(GraphMemo, ClearThenIdenticalArcsIsAReuse) {
  const std::vector<Arc> arcs{{n(1), n(2)}, {n(2), n(1)}, {n(2), n(3)},
                              {n(3), n(2)}};
  KnowledgeGraph g;
  const auto [builds, reuses] = count_builds([&] {
    for (int pass = 0; pass < 3; ++pass) {
      g.clear();
      for (const auto& [from, to] : arcs) g.add_arc(from, to);
      EXPECT_EQ(csr_of(g), oracle_build(arcs));
    }
  });
  EXPECT_EQ(builds, 1u);
  EXPECT_EQ(reuses, 2u);

  // A changed list is a miss; going back to the first list is one again
  // (the memo holds one list, not a history).
  const auto [builds2, reuses2] = count_builds([&] {
    g.clear();
    g.add_edge(n(1), n(4));
    EXPECT_EQ(csr_of(g), oracle_build({{n(1), n(4)}, {n(4), n(1)}}));
    g.clear();
    for (const auto& [from, to] : arcs) g.add_arc(from, to);
    EXPECT_EQ(csr_of(g), oracle_build(arcs));
  });
  EXPECT_EQ(builds2, 2u);
  EXPECT_EQ(reuses2, 0u);
}

TEST(GraphMemo, EmptyGraph) {
  KnowledgeGraph fresh;
  EXPECT_EQ(csr_of(fresh), Csr{});
  EXPECT_EQ(fresh.index_of(n(1)), KnowledgeGraph::kNpos);

  // Emptied after a build: no stale CSR survives.
  KnowledgeGraph g = graph_of({{n(1), n(2)}, {n(2), n(1)}});
  EXPECT_EQ(g.node_count(), 2u);
  g.clear();
  EXPECT_EQ(csr_of(g), Csr{});
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.index_of(n(1)), KnowledgeGraph::kNpos);
  EXPECT_FALSE(olsr::RoutingTable::shortest_path(g, n(1), n(2)));
}

TEST(GraphMemo, AddAfterQueryExtendsTheGraph) {
  // Arcs added after a query (without clear) join the already-built ones.
  std::vector<Arc> arcs{{n(2), n(1)}, {n(1), n(2)}};
  KnowledgeGraph g = graph_of(arcs);
  EXPECT_EQ(csr_of(g), oracle_build(arcs));
  g.add_arc(n(1), n(5));
  arcs.emplace_back(n(1), n(5));
  EXPECT_EQ(csr_of(g), oracle_build(arcs));
  g.add_arc(n(2), n(1));  // already present
  EXPECT_EQ(csr_of(g), oracle_build(arcs));
}

TEST(GraphMemo, RandomArcListsMatchTheOracle) {
  // One graph object refilled with a random mix of fresh lists, repeats,
  // permutations, same-length edits and asymmetric arcs: every read must
  // equal the oracle.
  sim::Rng rng{17};
  KnowledgeGraph g;
  std::vector<Arc> arcs;
  for (int step = 0; step < 400; ++step) {
    const auto choice = rng.uniform_int(0, 3);
    if (choice == 0 || arcs.empty()) {
      arcs.clear();
      const auto count = rng.uniform_int(0, 40);
      for (int i = 0; i < count; ++i) {
        const auto a = n(static_cast<std::uint32_t>(rng.uniform_int(0, 11)));
        const auto b = n(static_cast<std::uint32_t>(rng.uniform_int(0, 11)));
        arcs.emplace_back(a, b);
        if (rng.uniform_int(0, 3) != 0) arcs.emplace_back(b, a);
      }
    } else if (choice == 1) {
      rng.shuffle(arcs);
    } else if (choice == 2) {
      // Same length, one arc retargeted: only a content compare sees it.
      auto& arc = arcs[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(arcs.size()) - 1))];
      arc.second = n(static_cast<std::uint32_t>(rng.uniform_int(0, 11)));
    }  // else: the same list again
    g.clear();
    for (const auto& [from, to] : arcs) g.add_arc(from, to);
    ASSERT_EQ(csr_of(g), oracle_build(arcs)) << "step " << step;
  }
}

TEST(GraphMemo, WideIdArcListsMatchTheOracle) {
  // The rebuild's radix sort skips every byte that is equal in all keys,
  // so ids below 16 only ever exercise the passes over bytes 0 and 4.
  // These lists make each byte of both halves of the key differ — alone
  // and together — on one graph object, so every list is a memo miss.
  constexpr std::uint32_t kMaxId = 0xFFFFFFFEu;  // kInvalid is reserved
  KnowledgeGraph g;
  const auto check = [&g](const std::vector<Arc>& arcs, const char* what) {
    g.clear();
    for (const auto& [from, to] : arcs) g.add_arc(from, to);
    EXPECT_EQ(csr_of(g), oracle_build(arcs)) << what;
  };
  const auto symmetric = [](const std::vector<std::uint32_t>& ids) {
    // A ring plus chords over `ids` in the given (unsorted) order.
    std::vector<Arc> arcs;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto a = n(ids[i]);
      for (const auto step : {std::size_t{1}, std::size_t{3}}) {
        const auto b = n(ids[(i + step) % ids.size()]);
        arcs.emplace_back(a, b);
        arcs.emplace_back(b, a);
      }
    }
    return arcs;
  };

  check({{n(kMaxId), n(70000)}}, "one arc (asymmetric)");
  check({{n(kMaxId), n(kMaxId)}}, "one self-loop");
  check(std::vector<Arc>(9, {n(65536), n(kMaxId)}), "one arc nine times");

  // Only one byte of the ids varies; the others are equal and nonzero.
  for (const unsigned shift : {0u, 8u, 16u, 24u}) {
    std::vector<std::uint32_t> ids;
    for (const std::uint32_t b : {7u, 0u, 254u, 3u, 128u, 1u, 200u})
      ids.push_back((0x5A5A5A5Au & ~(0xFFu << shift)) | b << shift);
    check(symmetric(ids), "one byte varies, symmetric");
    // The same ids as targets of one source: only the low half varies,
    // and no target is a source (the union fallback).
    std::vector<Arc> fan;
    for (const auto id : ids) fan.emplace_back(n(0x01020304u), n(id));
    check(fan, "one byte of the target varies, asymmetric");
    // As sources of one target that is not a source: only the high half
    // varies.
    std::vector<Arc> fan_in;
    for (const auto id : ids) fan_in.emplace_back(n(id), n(0x01020304u));
    check(fan_in, "one byte of the source varies, asymmetric");
  }

  // Ids across all four bytes in one list, from 0 to the largest id.
  const std::vector<std::uint32_t> wide{
      kMaxId,     255,        256,        0,          65535,
      65536,      0x00FFFFFF, 0x01000000, 0x7FFFFFFF, 0x80000000,
      0xFF000000, 0x0000FF00, 0x00010001, 0xFFFEFFFE, 1};
  check(symmetric(wide), "ids across all four bytes");

  // Random lists over ids of 1 to 4 significant bytes: fresh lists, heavy
  // duplicates from a small pool, asymmetric arcs, and permutations.
  sim::Rng rng{29};
  const auto random_id = [&rng] {
    const auto bytes = rng.uniform_int(1, 4);
    const auto top =
        std::min<std::int64_t>((std::int64_t{1} << (8 * bytes)) - 1, kMaxId);
    return static_cast<std::uint32_t>(rng.uniform_int(0, top));
  };
  std::vector<Arc> arcs;
  for (int step = 0; step < 300; ++step) {
    const auto choice = rng.uniform_int(0, 3);
    if (choice == 0 || arcs.empty()) {
      arcs.clear();
      const auto count = rng.uniform_int(1, 120);
      for (int i = 0; i < count; ++i) {
        const auto a = n(random_id());
        const auto b = n(random_id());
        arcs.emplace_back(a, b);
        if (rng.uniform_int(0, 3) != 0) arcs.emplace_back(b, a);
      }
    } else if (choice == 1) {
      // Heavy in duplicates: 200 arcs over a pool of four wide ids.
      std::vector<NodeId> pool;
      for (int i = 0; i < 4; ++i) pool.push_back(n(random_id()));
      arcs.clear();
      const auto pick = [&] {
        return pool[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      };
      for (int i = 0; i < 200; ++i) {
        const auto from = pick();
        arcs.emplace_back(from, pick());
      }
    } else if (choice == 2) {
      rng.shuffle(arcs);
    }  // else: the same list again (a memo hit)
    g.clear();
    for (const auto& [from, to] : arcs) g.add_arc(from, to);
    ASSERT_EQ(csr_of(g), oracle_build(arcs)) << "step " << step;
  }
}

// --- replications: every agent's graph against the oracle -------------------

/// The arcs Agent::knowledge_graph() gathers, read back from the agent's
/// public tables at sim time `now`.
std::vector<Arc> gathered_arcs(const olsr::Agent& agent, sim::Time now) {
  std::vector<Arc> arcs;
  const auto self = agent.id();
  const auto edge = [&arcs](NodeId a, NodeId b) {
    arcs.emplace_back(a, b);
    arcs.emplace_back(b, a);
  };
  for (const auto nb : agent.links().symmetric_neighbors(now)) edge(self, nb);
  for (const auto& t : agent.neighbors().two_hop_tuples())
    if (t.two_hop != self) edge(t.via, t.two_hop);
  for (const auto& t : agent.topology().tuples())
    if (t.dest != self && t.last_hop != self) edge(t.last_hop, t.dest);
  return arcs;
}

/// Reads every agent's graph and compares it with the oracle.
struct GraphAudit {
  std::size_t reads = 0;
  std::size_t mismatches = 0;
  std::string first;

  void check(scenario::Network& net) {
    for (std::size_t i = 0; i < net.size(); ++i) {
      net.run_as(i, [&] {
        const auto& agent = net.agent(i);
        const auto want = oracle_build(gathered_arcs(agent, net.now()));
        ++reads;
        if (csr_of(agent.knowledge_graph()) == want) return;
        if (mismatches++ == 0) {
          std::ostringstream os;
          os << "agent " << i << " at " << net.now().us() << " us";
          first = os.str();
        }
      });
    }
  }
};

/// Re-arms itself every `period` on the sequential engine and audits every
/// agent's graph; cancelled on destruction (before any checkpoint save).
class PeriodicAudit {
 public:
  PeriodicAudit(scenario::Network& net, GraphAudit& audit,
                sim::Duration period)
      : net_{net}, audit_{audit}, period_{period} {
    arm();
  }
  ~PeriodicAudit() { net_.sim().cancel(next_); }
  PeriodicAudit(const PeriodicAudit&) = delete;
  PeriodicAudit& operator=(const PeriodicAudit&) = delete;

 private:
  void arm() {
    next_ = net_.sim().schedule(period_, [this] {
      audit_.check(net_);
      arm();
    });
  }

  scenario::Network& net_;
  GraphAudit& audit_;
  sim::Duration period_;
  sim::EventId next_{};
};

constexpr std::size_t kSeeds = 50;
// Audit cadence: a spoof round lasts 250 ms of sim time (one investigation,
// every query and answer a send_data read), so its rounds are sampled
// densely; warm-up, grayhole and chaos rounds run for seconds.
const sim::Duration kPeriod = sim::Duration::from_ms(100);
const sim::Duration kRoundPeriod = sim::Duration::from_ms(10);

std::vector<std::uint64_t> seeds() {
  return runtime::ExperimentSpec::seed_range(13, kSeeds);
}

void expect_clean(const GraphAudit& audit, std::uint64_t seed) {
  EXPECT_GT(audit.reads, 0u) << "seed " << seed;
  EXPECT_EQ(audit.mismatches, 0u)
      << "seed " << seed << ": first mismatch at " << audit.first;
}

TrustExperiment::Config spoof_config(std::uint64_t seed) {
  TrustExperiment::Config c;
  c.num_nodes = 8;
  c.num_liars = 2;
  c.seed = seed;
  c.rounds = 3;
  return c;
}

TEST(GraphMemoReplication, ColdStartConvergence) {
  // The 15 s warm-up TrustExperiment::setup() drives, audited from t = 0:
  // the full-mesh cluster with a phantom-advertising attacker, and the
  // 150 m multi-hop grid.
  for (const auto seed : seeds()) {
    for (const double spacing : {50.0, 150.0}) {
      scenario::Network::Config nc;
      nc.seed = seed;
      nc.radio.range_m = 250.0;
      nc.positions = net::grid_layout(9, spacing);
      scenario::Network net{nc};
      if (spacing < 100.0)
        net.set_hooks(1, std::make_unique<attacks::LinkSpoofingAttack>(
                             attacks::LinkSpoofingAttack::Mode::kAddNonExistent,
                             std::set<NodeId>{n(99)}));
      GraphAudit audit;
      {
        PeriodicAudit periodic{net, audit, kPeriod};
        net.start_all();
        net.run_for(sim::Duration::from_seconds(15.0));
      }
      expect_clean(audit, seed);
    }
  }
}

TEST(GraphMemoReplication, SpoofRounds) {
  for (const auto seed : seeds()) {
    TrustExperiment exp{spoof_config(seed)};
    exp.setup();
    GraphAudit audit;
    audit.check(exp.network());
    {
      PeriodicAudit periodic{exp.network(), audit, kRoundPeriod};
      exp.run_attack_rounds(6);
    }
    expect_clean(audit, seed);
  }
}

TEST(GraphMemoReplication, GrayholeRounds) {
  for (const auto seed : seeds()) {
    TrustExperiment::Config c = spoof_config(seed);
    c.num_nodes = 9;
    c.attack = TrustExperiment::AttackKind::kGrayhole;
    TrustExperiment exp{c};
    exp.setup();
    GraphAudit audit;
    audit.check(exp.network());
    {
      PeriodicAudit periodic{exp.network(), audit, kPeriod};
      exp.run_attack_rounds(3);
    }
    expect_clean(audit, seed);
  }
}

TEST(GraphMemoReplication, ChaosRounds) {
  // The --faults chaos plan: crashes, amnesiac restarts, a brown-out and a
  // partition land inside the rounds, so tables shrink as well as grow.
  constexpr int kRounds = 4;
  for (const auto seed : seeds()) {
    TrustExperiment::Config c = spoof_config(seed);
    c.rounds = kRounds;
    c.fault_plan = faults::FaultPlan::chaos(
        seed, c.num_nodes, 3 * 50.0, sim::Time::from_seconds(20.0),
        sim::Time::from_seconds(20.0 + 5.0 * kRounds));
    TrustExperiment exp{c};
    exp.setup();
    GraphAudit audit;
    {
      PeriodicAudit periodic{exp.network(), audit, kPeriod};
      for (int r = 0; r < kRounds; ++r) exp.run_churn_round();
    }
    expect_clean(audit, seed);
  }
}

TEST(GraphMemoReplication, CheckpointRestoredAtRoundThree) {
  // The memo is not checkpointed: a restored agent starts with an empty
  // graph and rebuilds it on first use.
  auto config = spoof_config(29);
  config.checkpointable = true;
  TrustExperiment original{config};
  original.setup();
  GraphAudit audit;
  {
    PeriodicAudit periodic{original.network(), audit, kRoundPeriod};
    original.run_attack_rounds(3);
  }
  const auto bytes = original.save_checkpoint();
  auto restored = TrustExperiment::restore_checkpoint(config, bytes);
  audit.check(restored->network());
  {
    PeriodicAudit periodic{restored->network(), audit, kRoundPeriod};
    restored->run_attack_rounds(3);
  }
  expect_clean(audit, config.seed);
  // The continued run's tables match the uninterrupted run's, so the
  // graphs do too.
  original.run_attack_rounds(3);
  for (std::size_t i = 0; i < config.num_nodes; ++i)
    EXPECT_EQ(csr_of(restored->network().agent(i).knowledge_graph()),
              csr_of(original.network().agent(i).knowledge_graph()))
        << "agent " << i;
}

TEST(GraphMemoReplication, ShardedRoundBoundaries) {
  // Worker threads build the graphs inside shard windows; the audit reads
  // them from this thread between windows (the TSan job runs this case).
  for (const auto seed : runtime::ExperimentSpec::seed_range(31, 8)) {
    auto c = spoof_config(seed);
    c.engine = sim::EngineKind::kSharded;
    c.engine_threads = 4;
    c.shards = 4;
    TrustExperiment exp{c};
    exp.setup();
    GraphAudit audit;
    audit.check(exp.network());
    for (int r = 0; r < 3; ++r) {
      exp.run_round();
      audit.check(exp.network());
    }
    expect_clean(audit, seed);
  }
}

}  // namespace

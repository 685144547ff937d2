// Micro-benchmarks of the OLSR substrate: MPR selection, routing-table
// computation, the knowledge-graph build, wire (de)serialization, the
// HELLO receive fan-out and audit-log parsing throughput.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "logging/format.hpp"
#include "net/topology.hpp"
#include "olsr/link_set.hpp"
#include "olsr/mpr_selection.hpp"
#include "olsr/routing_table.hpp"
#include "olsr/wire.hpp"
#include "scenario/network.hpp"
#include "sim/rng.hpp"

using namespace manet;
using olsr::NodeId;

namespace {

olsr::MprInputs random_mpr_inputs(std::size_t n1, std::size_t n2,
                                  std::uint64_t seed) {
  sim::Rng rng{seed};
  olsr::MprInputs in;
  for (std::size_t i = 1; i <= n1; ++i)
    in.neighbors.emplace_back(NodeId{static_cast<std::uint32_t>(i)},
                              olsr::Willingness::kDefault);
  in.reach.resize(n1);
  for (std::size_t i = 0; i < n1; ++i)
    in.reach[i].first = NodeId{static_cast<std::uint32_t>(i + 1)};
  for (std::size_t j = 0; j < n2; ++j) {
    const NodeId two_hop{static_cast<std::uint32_t>(1000 + j)};
    const auto providers = rng.uniform_int(1, static_cast<std::int64_t>(n1));
    for (std::int64_t k = 0; k < providers; ++k) {
      const auto via = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(n1)) - 1);
      in.reach[via].second.push_back(two_hop);
    }
  }
  for (auto& [via, ths] : in.reach) {
    std::sort(ths.begin(), ths.end());
    ths.erase(std::unique(ths.begin(), ths.end()), ths.end());
  }
  std::erase_if(in.reach, [](const auto& p) { return p.second.empty(); });
  return in;
}

olsr::KnowledgeGraph random_graph(std::size_t nodes, std::size_t degree,
                                  std::uint64_t seed) {
  sim::Rng rng{seed};
  olsr::KnowledgeGraph g;
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t d = 0; d < degree; ++d) {
      const auto j = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
      if (j == i) continue;
      g.add_edge(NodeId{static_cast<std::uint32_t>(i)}, NodeId{j});
    }
  }
  return g;
}

}  // namespace

static void BM_MprSelection(benchmark::State& state) {
  const auto in = random_mpr_inputs(static_cast<std::size_t>(state.range(0)),
                                    static_cast<std::size_t>(state.range(1)),
                                    42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(olsr::select_mprs(in));
  }
}
BENCHMARK(BM_MprSelection)->Args({8, 20})->Args({16, 60})->Args({32, 200});

static void BM_RoutingRecompute(benchmark::State& state) {
  const auto g = random_graph(static_cast<std::size_t>(state.range(0)), 4, 7);
  for (auto _ : state) {
    // Fresh table per iteration: recompute now short-circuits an unchanged
    // graph, so reusing one table would measure the no-op check only.
    olsr::RoutingTable rt;
    benchmark::DoNotOptimize(rt.recompute(NodeId{0}, g));
  }
}
BENCHMARK(BM_RoutingRecompute)->Arg(16)->Arg(64)->Arg(256);

// The dense-cluster regime of the scale presets: every node sees ~70+
// neighbors, so the knowledge graph is near-complete and the BFS frontier
// is maximal. This is the control-plane profiling target ROADMAP promotes
// after the medium fast paths (see micro_psim for the engine side);
// BENCH_5.json recorded the std::map baseline, BENCH_6.json the flat-slab
// CSR rebuild. A fresh table per iteration pins the full-rebuild path.
static void BM_RoutingRecomputeDense(benchmark::State& state) {
  const auto g = random_graph(static_cast<std::size_t>(state.range(0)),
                              static_cast<std::size_t>(state.range(1)), 7);
  for (auto _ : state) {
    olsr::RoutingTable rt;
    benchmark::DoNotOptimize(rt.recompute(NodeId{0}, g));
  }
}
BENCHMARK(BM_RoutingRecomputeDense)->Args({256, 70})->Args({1024, 78});

// Steady-state control plane, identical graph: the most common recompute
// in a converged network is a refresh that changes nothing; the table
// answers it with the snapshot compare alone.
static void BM_RoutingRecomputeSame(benchmark::State& state) {
  const auto g = random_graph(static_cast<std::size_t>(state.range(0)),
                              static_cast<std::size_t>(state.range(1)), 7);
  olsr::RoutingTable rt;
  rt.recompute(NodeId{0}, g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.recompute(NodeId{0}, g));
  }
}
BENCHMARK(BM_RoutingRecomputeSame)->Args({256, 70})->Args({1024, 78});

// Edge-addition churn: alternating between a graph and a one-edge superset
// exercises the incremental relaxation (base -> grown) and the full-rebuild
// fallback (grown -> base, a removal) in equal measure.
static void BM_RoutingRecomputeIncremental(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto base = random_graph(nodes, static_cast<std::size_t>(state.range(1)), 7);
  auto grown = base;
  // One extra edge touching fresh nodes: the superset fast path relaxes
  // outward from just this arc pair.
  grown.add_edge(NodeId{static_cast<std::uint32_t>(nodes)},
                 NodeId{static_cast<std::uint32_t>(nodes / 2)});
  olsr::RoutingTable rt;
  rt.recompute(NodeId{0}, base);
  bool flip = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt.recompute(NodeId{0}, flip ? grown : base));
    flip = !flip;
  }
}
BENCHMARK(BM_RoutingRecomputeIncremental)->Args({256, 70})->Args({1024, 78});

// The arc list Agent::knowledge_graph() gathers (link set, 2-hop set,
// topology set, both directions of each edge, in table order) from node 0
// of an n-node 50 m grid after the 15 s OLSR warm-up: a full mesh at 16
// nodes, multi-hop at 64. Converged once per size and cached.
// The agent does not expose its raw list, so this mirrors the gather in
// Agent::knowledge_graph() (olsr/agent.cpp). The copy is checked against
// the agent's own graph; on a mismatch the list is left empty and the
// benchmark reports an error instead of timing a different input.
const std::vector<std::pair<NodeId, NodeId>>& converged_arcs(std::size_t n) {
  static std::map<std::size_t, std::vector<std::pair<NodeId, NodeId>>> cache;
  if (const auto it = cache.find(n); it != cache.end()) return it->second;
  auto& arcs = cache[n];
  scenario::Network::Config nc;
  nc.seed = 11;
  nc.radio.range_m = 250.0;
  nc.positions = net::grid_layout(n, 50.0);
  scenario::Network net{nc};
  net.start_all();
  net.run_for(sim::Duration::from_seconds(15.0));
  const auto& agent = net.agent(0);
  const auto self = agent.id();
  const auto edge = [&arcs](NodeId a, NodeId b) {
    arcs.emplace_back(a, b);
    arcs.emplace_back(b, a);
  };
  for (const auto nb : agent.links().symmetric_neighbors(net.now()))
    edge(self, nb);
  for (const auto& t : agent.neighbors().two_hop_tuples())
    if (t.two_hop != self) edge(t.via, t.two_hop);
  for (const auto& t : agent.topology().tuples())
    if (t.dest != self && t.last_hop != self) edge(t.last_hop, t.dest);
  olsr::KnowledgeGraph copy;
  for (const auto& [from, to] : arcs) copy.add_arc(from, to);
  const auto& own = agent.knowledge_graph();
  if (!std::ranges::equal(copy.nodes(), own.nodes()) ||
      !std::ranges::equal(copy.offsets(), own.offsets()) ||
      !std::ranges::equal(copy.targets(), own.targets()))
    arcs.clear();
  return arcs;
}

// The graph read behind every recompute_routes, send_data and detector
// path check: clear, refill from the tables, query. Arg 1 = 0 refills the
// same list every time (the memo hit: an O(E) compare keeps the CSR);
// = 1 alternates the list with a copy whose first two arcs are swapped,
// so every read is a rebuild (packed-key radix sort + CSR fill) of the
// same set.
// BM_RoutingRecompute* build their graphs outside the timed loop and never
// see this cost.
static void BM_KnowledgeGraphBuild(benchmark::State& state) {
  const auto& arcs = converged_arcs(static_cast<std::size_t>(state.range(0)));
  if (arcs.empty()) {
    state.SkipWithError("gathered arcs differ from Agent::knowledge_graph()");
    return;
  }
  auto swapped = arcs;
  std::swap(swapped[0], swapped[1]);
  const bool force_miss = state.range(1) != 0;
  olsr::KnowledgeGraph g;
  bool flip = false;
  for (auto _ : state) {
    const auto& list = force_miss && flip ? swapped : arcs;
    flip = !flip;
    g.clear();
    for (const auto& [from, to] : list) g.add_arc(from, to);
    benchmark::DoNotOptimize(g.node_count());
  }
  state.counters["arcs"] = static_cast<double>(arcs.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(arcs.size()));
}
BENCHMARK(BM_KnowledgeGraphBuild)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1});

// Link-set scans run on every HELLO build (symmetric + asymmetric
// enumeration) and on every HELLO receipt (is_symmetric); at >= 70
// neighbors per node they are the hottest OLSR table walk.
static void BM_LinkSetScan(benchmark::State& state) {
  const auto degree = static_cast<std::uint32_t>(state.range(0));
  olsr::LinkSet links;
  const auto hold = sim::Duration::from_seconds(6.0);
  for (std::uint32_t i = 0; i < degree; ++i)
    links.on_hello(sim::Time{}, NodeId{i + 1}, /*lists_us=*/true,
                   /*lost_us=*/false, hold);
  const auto now = sim::Duration::from_ms(1);
  std::vector<NodeId> sym, asym;
  for (auto _ : state) {
    links.symmetric_neighbors(now, sym);
    benchmark::DoNotOptimize(sym);
    links.asymmetric_neighbors(now, asym);
    benchmark::DoNotOptimize(asym);
    benchmark::DoNotOptimize(links.is_symmetric(now, NodeId{degree / 2}));
  }
  state.SetItemsProcessed(state.iterations() * degree);
}
BENCHMARK(BM_LinkSetScan)->Arg(16)->Arg(70)->Arg(150);

static void BM_ShortestPathAvoiding(benchmark::State& state) {
  const auto g = random_graph(static_cast<std::size_t>(state.range(0)), 4, 7);
  const std::vector<NodeId> avoid{NodeId{1}, NodeId{2}};  // sorted
  for (auto _ : state) {
    benchmark::DoNotOptimize(olsr::RoutingTable::shortest_path(
        g, NodeId{0}, NodeId{static_cast<std::uint32_t>(state.range(0) - 1)},
        avoid));
  }
}
BENCHMARK(BM_ShortestPathAvoiding)->Arg(64)->Arg(256);

static void BM_HelloSerializeParse(benchmark::State& state) {
  olsr::HelloMessage h;
  for (std::uint32_t i = 0; i < 16; ++i)
    h.add(olsr::LinkType::kSym, olsr::NeighborType::kSymNeigh, NodeId{i});
  olsr::Message m;
  m.header.type = olsr::MessageType::kHello;
  m.header.originator = NodeId{0};
  m.body = h;
  olsr::OlsrPacket p;
  p.messages.push_back(m);
  for (auto _ : state) {
    const auto bytes = olsr::serialize_packet(p);
    benchmark::DoNotOptimize(olsr::parse_packet(bytes));
  }
}
BENCHMARK(BM_HelloSerializeParse);

// One HELLO payload through N receivers' full receive path (decode, link
// sensing, 2-hop and MPR-selector updates, audit records): a fresh payload
// per iteration, decoded once and shared by all N receivers. The agents
// run no timers, so the only traffic is the benchmark's own frame.
static void BM_HelloFanout(benchmark::State& state) {
  const auto receivers = static_cast<std::size_t>(state.range(0));
  scenario::Network::Config c;
  c.radio.range_m = 1e6;  // full mesh
  c.positions = net::grid_layout(receivers + 1, 10.0);
  scenario::Network net{c};
  for (std::size_t i = 1; i <= receivers; ++i) net.agent(i).resume_running();

  olsr::HelloMessage h;
  for (std::size_t i = 1; i <= receivers; ++i)
    h.add(olsr::LinkType::kSym, olsr::NeighborType::kSymNeigh,
          scenario::Network::id_of(i));
  olsr::Message m;
  m.header.type = olsr::MessageType::kHello;
  m.header.originator = scenario::Network::id_of(0);
  m.header.ttl = 1;
  m.body = h;
  olsr::OlsrPacket p;
  p.messages.push_back(m);
  const auto bytes = olsr::serialize_packet(p);
  for (auto _ : state) {
    net.medium().broadcast(scenario::Network::id_of(0), bytes);
    net.run_for(sim::Duration::from_ms(2));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(receivers));
}
BENCHMARK(BM_HelloFanout)->Arg(16)->Arg(64);

static void BM_LogParse(benchmark::State& state) {
  std::string text;
  for (int i = 0; i < 1000; ++i) {
    logging::LogRecord r;
    r.time = sim::Time::from_us(i * 1000);
    r.node = net::NodeId{3};
    r.event = "hello_recv";
    r.with("from", net::NodeId{5}).with("sym", "n1|n2|n4|n7");
    text += logging::format_record(r);
    text += '\n';
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(logging::parse_log(text));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LogParse);

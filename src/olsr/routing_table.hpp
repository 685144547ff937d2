#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/node_id.hpp"

namespace manet::olsr {

using net::NodeId;

/// Directed adjacency a node *believes* in: its link set, 2-hop set and
/// the TC-derived topology set merged (§10).
///
/// Arcs accumulate in a raw edge list; the first query compacts them into a
/// CSR (sorted unique node list + offset/target arrays with dense indices),
/// so building the graph per recompute is append-only and the BFS consumers
/// run over contiguous index arrays instead of a map of sets. Adjacency
/// lists come out ascending by node id — the same iteration order the old
/// std::map<NodeId, std::set<NodeId>> gave, which the trace-pinned BFS
/// tie-breaks rely on.
///
/// The build is memoized: the graph keeps the raw arc list its CSR was
/// compacted from, and a later build whose gathered list is equal to it
/// (an O(E) compare) keeps the CSR as is. clear() discards only the raw
/// list being gathered, never the CSR, so an owner that clears and refills
/// the same graph on every read pays the sort only when the arcs moved.
/// A rebuild LSD-radix-sorts the packed (from << 32 | to) keys into
/// (from, to) order — one stable counting pass per byte that differs
/// between the keys, so ids below 256 take two O(E) passes — and takes the
/// node list from the sorted sources in one pass; only a graph with a
/// target that is never a source (a direct add_arc; add_edge graphs are
/// symmetric) falls back to the union of both endpoint sets, radix-sorted
/// the same way. The sort's ping-pong buffer belongs to the graph.
/// Not thread-safe: the lazy build mutates cached state (one graph belongs
/// to one replication).
class KnowledgeGraph {
 public:
  static constexpr std::uint32_t kNpos = 0xFFFFFFFFu;

  /// Adds the directed arc from -> to (duplicates are compacted away).
  void add_arc(NodeId from, NodeId to) {
    arcs_.push_back(std::uint64_t{from.value()} << 32 | to.value());
    built_ = false;
  }
  /// Adds both directions of an undirected edge.
  void add_edge(NodeId a, NodeId b) {
    add_arc(a, b);
    add_arc(b, a);
  }
  void reserve(std::size_t arcs) { arcs_.reserve(arcs); }
  /// Starts a new arc list; the built CSR stays until the next build
  /// finds the new list differs from the one it was built from.
  void clear() {
    arcs_.clear();
    built_ = false;
  }

  /// All endpoints mentioned by any arc, sorted ascending.
  const std::vector<NodeId>& nodes() const {
    build();
    return nodes_;
  }
  std::size_t node_count() const {
    build();
    return nodes_.size();
  }
  std::size_t arc_count() const {
    build();
    return targets_.size();
  }
  NodeId id_at(std::uint32_t index) const {
    build();
    return nodes_[index];
  }
  /// Dense index of `id` in nodes(), or kNpos when absent.
  std::uint32_t index_of(NodeId id) const;
  /// Out-arc target indices of one node, ascending by target id.
  std::span<const std::uint32_t> arcs_from(std::uint32_t node_index) const;
  std::span<const std::uint32_t> offsets() const {
    build();
    return offsets_;
  }
  std::span<const std::uint32_t> targets() const {
    build();
    return targets_;
  }

 private:
  // Inline so every accessor on a built graph costs one branch.
  void build() const {
    if (!built_) rebuild();
  }
  /// Memo check against built_from_, then (on a miss) the CSR rebuild.
  void rebuild() const;
  /// Fills offsets_/targets_ from the sorted unique arcs_ over nodes_;
  /// false when some target is missing from nodes_.
  bool fill_csr() const;

  // Packed (from << 32 | to) keys in gather order; build() radix-sorts
  // and dedups them.
  mutable std::vector<std::uint64_t> arcs_;
  mutable std::vector<std::uint64_t> built_from_;  // raw list of the CSR
  // Radix-sort ping-pong buffer; per graph, so graphs built on different
  // threads share nothing.
  mutable std::vector<std::uint64_t> sort_scratch_;
  mutable std::vector<NodeId> nodes_;           // sorted unique endpoints
  mutable std::vector<std::uint32_t> offsets_;  // node_count() + 1
  mutable std::vector<std::uint32_t> targets_;  // indices into nodes_
  mutable bool built_ = true;  // an empty graph is trivially built
};

/// Routing table (§10): hop-count shortest paths over the knowledge graph.
///
/// Routes are dense arrays (distance + parent id) over the last graph's
/// sorted node list. `recompute` keeps a snapshot of that graph: an
/// identical graph is a no-op, a pure edge-addition superset reuses the
/// previous shortest-path tree and only relaxes outward from the new arcs,
/// and anything else falls back to a full BFS rebuild. All three paths
/// yield identical distances and reachable sets, so the (added, removed)
/// diff the agent logs is independent of which path ran.
class RoutingTable {
 public:
  struct Entry {
    NodeId dest;
    NodeId next_hop;
    int distance = 0;
    friend bool operator==(const Entry&, const Entry&) = default;
  };

  /// Rebuilds all routes via BFS from `self`. Returns (added, removed)
  /// destination sets relative to the previous table — the agent logs these.
  std::pair<std::vector<NodeId>, std::vector<NodeId>> recompute(
      NodeId self, const KnowledgeGraph& graph);

  std::optional<Entry> route_to(NodeId dest) const;
  std::vector<Entry> entries() const;
  std::size_t size() const { return dests_.size(); }

  /// Full relay sequence to `dest` (next hop first, dest last); nullopt if
  /// unreachable. Recomputed from the stored parent chain.
  std::optional<std::vector<NodeId>> path_to(NodeId dest) const;

  /// Shortest path over an arbitrary graph with nodes to avoid as relays
  /// (the destination itself may not be avoided). Used by the cooperative
  /// investigation to route around the suspicious MPR and colluders.
  /// `avoid` must be sorted ascending; the span view replaces the old
  /// std::set default argument that allocated a temporary per call.
  static std::optional<std::vector<NodeId>> shortest_path(
      const KnowledgeGraph& graph, NodeId from, NodeId to,
      std::span<const NodeId> avoid = {});
  static std::optional<std::vector<NodeId>> shortest_path(
      const KnowledgeGraph& graph, NodeId from, NodeId to,
      std::initializer_list<NodeId> avoid) {
    return shortest_path(graph, from, to,
                         std::span<const NodeId>{avoid.begin(), avoid.size()});
  }

  /// Checkpoint image of the table: the CSR snapshot the incremental
  /// recompute diffs against plus the dense route arrays. Restoring the
  /// snapshot verbatim means the no-op / incremental / full-rebuild choice
  /// on the next recompute is the same one the uninterrupted run makes —
  /// and the (added, removed) diff the agent logs depends on `dests`.
  struct Persisted {
    NodeId self{};
    std::vector<NodeId> node_ids;
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> targets;
    std::vector<std::int32_t> dist;
    std::vector<NodeId> parent;
    std::vector<NodeId> dests;
  };
  Persisted persist() const {
    return Persisted{self_,  node_ids_, offsets_, targets_,
                     dist_,  parent_,   dests_};
  }
  void restore(Persisted p) {
    self_ = p.self;
    node_ids_ = std::move(p.node_ids);
    offsets_ = std::move(p.offsets);
    targets_ = std::move(p.targets);
    dist_ = std::move(p.dist);
    parent_ = std::move(p.parent);
    dests_ = std::move(p.dests);
  }

 private:
  static constexpr std::int32_t kUnreachable = -1;

  void full_rebuild(const KnowledgeGraph& graph);
  /// Relaxes from arcs present in `graph` but not in the snapshot. Only
  /// valid when the snapshot's arc set is a subset of `graph`'s.
  void relax_additions(
      const KnowledgeGraph& graph,
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& seeds);
  std::uint32_t index_of(NodeId id) const;
  void rebuild_dests(std::vector<NodeId>& out) const;

  NodeId self_;
  std::vector<NodeId> node_ids_;  // snapshot of the last graph's node list
  std::vector<std::uint32_t> offsets_;  // snapshot of the last graph's CSR
  std::vector<std::uint32_t> targets_;
  std::vector<std::int32_t> dist_;  // per node index; kUnreachable if none
  std::vector<NodeId> parent_;      // per node index; invalid at roots
  std::vector<NodeId> dests_;       // sorted reachable destinations (≠ self)
  std::vector<std::uint32_t> queue_;  // BFS scratch
};

}  // namespace manet::olsr

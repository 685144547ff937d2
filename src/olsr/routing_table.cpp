#include "olsr/routing_table.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "obs/obs.hpp"

namespace manet::olsr {

// ------------------------------------------------------------ KnowledgeGraph

namespace {

/// LSD radix sort of `keys` ascending: one stable counting pass per byte in
/// which the keys differ (a byte equal in every key cannot reorder them),
/// so packed keys of ids below 256 take two passes. `scratch` is the other
/// half of the ping-pong; the sorted keys end in `keys` either way.
void radix_sort(std::vector<std::uint64_t>& keys,
                std::vector<std::uint64_t>& scratch) {
  if (keys.size() < 2) return;
  std::uint64_t varying = 0;
  for (const auto key : keys) varying |= key ^ keys.front();
  scratch.resize(keys.size());
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if ((varying >> shift & 0xFF) == 0) continue;
    std::array<std::uint32_t, 256> start{};
    for (const auto key : keys) ++start[key >> shift & 0xFF];
    std::uint32_t sum = 0;
    for (auto& s : start) sum += std::exchange(s, sum);
    for (const auto key : keys) scratch[start[key >> shift & 0xFF]++] = key;
    keys.swap(scratch);
  }
}

}  // namespace

void KnowledgeGraph::rebuild() const {
  built_ = true;
  if (arcs_ == built_from_) {
    obs::hit(obs::Hot::kGraphReuses);
    return;
  }
  obs::hit(obs::Hot::kGraphBuilds);
  obs::hit(obs::Hot::kGraphArcsSorted, arcs_.size());
  built_from_.assign(arcs_.begin(), arcs_.end());
  // A packed key (from << 32 | to) sorts in (from, to) order.
  radix_sort(arcs_, sort_scratch_);
  arcs_.erase(std::unique(arcs_.begin(), arcs_.end()), arcs_.end());

  nodes_.clear();
  targets_.clear();
  offsets_.clear();
  if (arcs_.empty()) return;  // no CSR arrays, as for a fresh graph
  for (const auto key : arcs_) {
    const NodeId from{static_cast<std::uint32_t>(key >> 32)};
    if (nodes_.empty() || nodes_.back() != from) nodes_.push_back(from);
  }
  if (fill_csr()) return;
  // Some target is never a source: the node list is the union of both.
  std::vector<std::uint64_t> ids;
  ids.reserve(nodes_.size() + arcs_.size());
  for (const auto id : nodes_) ids.push_back(id.value());
  for (const auto key : arcs_) ids.push_back(static_cast<std::uint32_t>(key));
  radix_sort(ids, sort_scratch_);
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  nodes_.clear();
  for (const auto id : ids) nodes_.emplace_back(static_cast<std::uint32_t>(id));
  fill_csr();
}

bool KnowledgeGraph::fill_csr() const {
  offsets_.assign(nodes_.size() + 1, 0);
  targets_.clear();
  targets_.reserve(arcs_.size());
  // arcs_ is (from, to)-sorted and nodes_ ascending, so one forward sweep
  // fills the CSR with adjacency ascending by target id.
  std::size_t node = 0;
  for (const auto key : arcs_) {
    const NodeId from{static_cast<std::uint32_t>(key >> 32)};
    const NodeId to{static_cast<std::uint32_t>(key)};
    while (nodes_[node] != from) offsets_[++node] = targets_.size();
    const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), to);
    if (it == nodes_.end() || *it != to) return false;
    targets_.push_back(static_cast<std::uint32_t>(it - nodes_.begin()));
  }
  while (node < nodes_.size()) offsets_[++node] = targets_.size();
  return true;
}

std::uint32_t KnowledgeGraph::index_of(NodeId id) const {
  build();
  auto it = std::lower_bound(nodes_.begin(), nodes_.end(), id);
  if (it == nodes_.end() || *it != id) return kNpos;
  return static_cast<std::uint32_t>(it - nodes_.begin());
}

std::span<const std::uint32_t> KnowledgeGraph::arcs_from(
    std::uint32_t node_index) const {
  build();
  return {targets_.data() + offsets_[node_index],
          targets_.data() + offsets_[node_index + 1]};
}

// -------------------------------------------------------------- RoutingTable

std::uint32_t RoutingTable::index_of(NodeId id) const {
  auto it = std::lower_bound(node_ids_.begin(), node_ids_.end(), id);
  if (it == node_ids_.end() || *it != id) return KnowledgeGraph::kNpos;
  return static_cast<std::uint32_t>(it - node_ids_.begin());
}

void RoutingTable::rebuild_dests(std::vector<NodeId>& out) const {
  out.clear();
  for (std::size_t i = 0; i < node_ids_.size(); ++i)
    if (dist_[i] >= 0 && node_ids_[i] != self_) out.push_back(node_ids_[i]);
}

void RoutingTable::full_rebuild(const KnowledgeGraph& graph) {
  const std::size_t n = graph.node_count();
  dist_.assign(n, kUnreachable);
  parent_.assign(n, NodeId{});
  queue_.clear();

  const auto self_idx = graph.index_of(self_);
  if (self_idx != KnowledgeGraph::kNpos) {
    dist_[self_idx] = 0;
    queue_.push_back(self_idx);
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const auto u = queue_[head];
      for (const auto v : graph.arcs_from(u)) {
        if (dist_[v] >= 0) continue;  // self has dist 0: never re-entered
        dist_[v] = dist_[u] + 1;
        parent_[v] = graph.id_at(u);
        queue_.push_back(v);
      }
    }
  }
}

void RoutingTable::relax_additions(
    const KnowledgeGraph& graph,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& seeds) {
  const auto self_idx = graph.index_of(self_);
  if (self_idx == KnowledgeGraph::kNpos) return;
  queue_.clear();
  // A previously absent/unreachable self roots the wave itself: every old
  // distance is then stale-unreachable and the sweep degenerates into a
  // label-correcting BFS from scratch.
  if (dist_[self_idx] < 0) {
    dist_[self_idx] = 0;
    parent_[self_idx] = NodeId{};
    queue_.push_back(self_idx);
  }
  auto relax = [&](std::uint32_t u, std::uint32_t v) {
    if (v == self_idx) return;
    if (dist_[u] < 0) return;
    if (dist_[v] >= 0 && dist_[v] <= dist_[u] + 1) return;
    dist_[v] = dist_[u] + 1;
    parent_[v] = graph.id_at(u);
    queue_.push_back(v);
  };
  for (const auto& [u, v] : seeds) relax(u, v);
  // Label-correcting sweep: added arcs can only shorten paths, so the wave
  // settles at the true BFS distances without touching unaffected nodes.
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const auto u = queue_[head];
    for (const auto v : graph.arcs_from(u)) relax(u, v);
  }
}

std::pair<std::vector<NodeId>, std::vector<NodeId>> RoutingTable::recompute(
    NodeId self, const KnowledgeGraph& graph) {
  const auto& nodes = graph.nodes();
  const auto offsets = graph.offsets();
  const auto targets = graph.targets();

  const bool same_self = self == self_;
  const bool same_graph =
      same_self && nodes == node_ids_ &&
      std::equal(offsets.begin(), offsets.end(), offsets_.begin(),
                 offsets_.end()) &&
      std::equal(targets.begin(), targets.end(), targets_.begin(),
                 targets_.end());
  if (same_graph) return {{}, {}};

  bool incremental = same_self && !node_ids_.empty();
  // Additions-only check: stream both arc lists in (from, to) id order and
  // collect arcs present only in the new graph. Any old arc missing from
  // the new graph voids the fast path.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> seeds;
  if (incremental) {
    std::size_t o_node = 0, o_arc = 0;
    auto skip_empty_old = [&] {
      while (o_node < node_ids_.size() && o_arc >= offsets_[o_node + 1])
        ++o_node;
    };
    auto old_arc = [&] {
      return std::pair{node_ids_[o_node], node_ids_[targets_[o_arc]]};
    };
    skip_empty_old();
    for (std::uint32_t ni = 0; ni < nodes.size() && incremental; ++ni) {
      for (const auto nv : graph.arcs_from(ni)) {
        const std::pair arc{nodes[ni], nodes[nv]};
        if (o_arc < targets_.size() && old_arc() == arc) {
          ++o_arc;
          skip_empty_old();
        } else if (o_arc < targets_.size() && old_arc() < arc) {
          incremental = false;  // an old arc disappeared
          break;
        } else {
          seeds.emplace_back(ni, nv);  // new arc
        }
      }
    }
    if (o_arc < targets_.size()) incremental = false;  // old arcs left over
  }

  std::vector<NodeId> old_dests = std::move(dests_);

  if (incremental) {
    // Remap distances/parents from the old node list onto the new one
    // (a superset): both are sorted, one merge pass.
    std::vector<std::int32_t> dist(nodes.size(), kUnreachable);
    std::vector<NodeId> parent(nodes.size(), NodeId{});
    std::size_t o = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (o < node_ids_.size() && node_ids_[o] == nodes[i]) {
        dist[i] = dist_[o];
        parent[i] = parent_[o];
        ++o;
      }
    }
    dist_ = std::move(dist);
    parent_ = std::move(parent);
    node_ids_ = nodes;
    relax_additions(graph, seeds);
  } else {
    self_ = self;
    node_ids_ = nodes;
    full_rebuild(graph);
  }
  offsets_.assign(offsets.begin(), offsets.end());
  targets_.assign(targets.begin(), targets.end());

  rebuild_dests(dests_);
  std::vector<NodeId> added, removed;
  std::set_difference(dests_.begin(), dests_.end(), old_dests.begin(),
                      old_dests.end(), std::back_inserter(added));
  std::set_difference(old_dests.begin(), old_dests.end(), dests_.begin(),
                      dests_.end(), std::back_inserter(removed));
  return {std::move(added), std::move(removed)};
}

std::optional<RoutingTable::Entry> RoutingTable::route_to(NodeId dest) const {
  const auto idx = index_of(dest);
  if (idx == KnowledgeGraph::kNpos || dist_[idx] < 0 || dest == self_)
    return std::nullopt;
  // The next hop is the first relay on the path from self.
  NodeId hop = dest;
  while (parent_[index_of(hop)].valid() &&
         parent_[index_of(hop)] != self_)
    hop = parent_[index_of(hop)];
  return Entry{dest, hop, dist_[idx]};
}

std::vector<RoutingTable::Entry> RoutingTable::entries() const {
  std::vector<Entry> out;
  out.reserve(dests_.size());
  for (const auto dest : dests_)
    if (auto e = route_to(dest)) out.push_back(*e);
  return out;
}

std::optional<std::vector<NodeId>> RoutingTable::path_to(NodeId dest) const {
  const auto idx = index_of(dest);
  if (idx == KnowledgeGraph::kNpos || dist_[idx] < 0 || dest == self_)
    return std::nullopt;
  std::vector<NodeId> reversed{dest};
  NodeId cur = dest;
  while (parent_[index_of(cur)].valid() && parent_[index_of(cur)] != self_) {
    cur = parent_[index_of(cur)];
    reversed.push_back(cur);
  }
  std::reverse(reversed.begin(), reversed.end());
  return reversed;
}

std::optional<std::vector<NodeId>> RoutingTable::shortest_path(
    const KnowledgeGraph& graph, NodeId from, NodeId to,
    std::span<const NodeId> avoid) {
  if (from == to) return std::vector<NodeId>{};
  const auto from_idx = graph.index_of(from);
  const auto to_idx = graph.index_of(to);
  if (from_idx == KnowledgeGraph::kNpos || to_idx == KnowledgeGraph::kNpos)
    return std::nullopt;

  const std::size_t n = graph.node_count();
  std::vector<std::uint32_t> parent(n, KnowledgeGraph::kNpos);
  std::vector<char> seen(n, 0);
  std::vector<std::uint32_t> queue{from_idx};
  seen[from_idx] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto u = queue[head];
    for (const auto v : graph.arcs_from(u)) {
      if (seen[v]) continue;
      // Avoided nodes cannot relay; they may only terminate the path.
      if (v != to_idx &&
          std::binary_search(avoid.begin(), avoid.end(), graph.id_at(v)))
        continue;
      parent[v] = u;
      if (v == to_idx) {
        std::vector<NodeId> reversed{to};
        std::uint32_t cur = to_idx;
        while (parent[cur] != from_idx) {
          cur = parent[cur];
          reversed.push_back(graph.id_at(cur));
        }
        std::reverse(reversed.begin(), reversed.end());
        return reversed;
      }
      seen[v] = 1;
      queue.push_back(v);
    }
  }
  return std::nullopt;
}

}  // namespace manet::olsr

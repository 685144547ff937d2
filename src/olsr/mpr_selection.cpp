#include "olsr/mpr_selection.hpp"

#include <algorithm>

namespace manet::olsr {
namespace {

Willingness will_of(const MprInputs& in, NodeId n) {
  auto it = std::lower_bound(
      in.neighbors.begin(), in.neighbors.end(), n,
      [](const auto& p, NodeId id) { return p.first < id; });
  return (it != in.neighbors.end() && it->first == n) ? it->second
                                                      : Willingness::kDefault;
}

const std::vector<NodeId>* reach_of(const MprInputs& in, NodeId via) {
  auto it = std::lower_bound(
      in.reach.begin(), in.reach.end(), via,
      [](const auto& p, NodeId id) { return p.first < id; });
  return (it != in.reach.end() && it->first == via) ? &it->second : nullptr;
}

bool sorted_contains(const std::vector<NodeId>& v, NodeId n) {
  return std::binary_search(v.begin(), v.end(), n);
}

void sorted_insert(std::vector<NodeId>& v, NodeId n) {
  auto it = std::lower_bound(v.begin(), v.end(), n);
  if (it == v.end() || *it != n) v.insert(it, n);
}

void all_two_hops(const MprInputs& in, std::vector<NodeId>& out) {
  out.clear();
  for (const auto& [via, reach] : in.reach)
    out.insert(out.end(), reach.begin(), reach.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

// Number of elements of `reach` still present in `uncovered` (both sorted).
std::size_t gain_of(const std::vector<NodeId>& reach,
                    const std::vector<NodeId>& uncovered) {
  std::size_t gain = 0;
  auto u = uncovered.begin();
  for (auto th : reach) {
    u = std::lower_bound(u, uncovered.end(), th);
    if (u == uncovered.end()) break;
    if (*u == th) ++gain;
  }
  return gain;
}

}  // namespace

void select_mprs(const MprInputs& in, MprScratch& scratch,
                 std::vector<NodeId>& out) {
  out.clear();
  auto& uncovered = scratch.uncovered;
  auto& tmp = scratch.tmp;
  all_two_hops(in, uncovered);

  auto cover_with = [&](NodeId n) {
    sorted_insert(out, n);
    const auto* reach = reach_of(in, n);
    if (reach == nullptr) return;
    tmp.clear();
    std::set_difference(uncovered.begin(), uncovered.end(), reach->begin(),
                        reach->end(), std::back_inserter(tmp));
    uncovered.swap(tmp);
  };

  // Step 1: WILL_ALWAYS neighbors.
  for (const auto& [n, will] : in.neighbors)
    if (will == Willingness::kAlways) cover_with(n);

  // Step 2: sole providers. A 2-hop node with exactly one reaching neighbor
  // forces that neighbor into the MPR set.
  {
    auto& providers = scratch.providers;
    providers.clear();
    for (const auto& [via, reach] : in.reach)
      for (auto th : reach) providers.emplace_back(th, via);
    std::sort(providers.begin(), providers.end());
    providers.erase(std::unique(providers.begin(), providers.end()),
                    providers.end());
    for (std::size_t i = 0; i < providers.size();) {
      std::size_t j = i;
      while (j < providers.size() &&
             providers[j].first == providers[i].first)
        ++j;
      if (j - i == 1 && sorted_contains(uncovered, providers[i].first))
        cover_with(providers[i].second);
      i = j;
    }
  }

  // Step 3: greedy by reachability.
  while (!uncovered.empty()) {
    NodeId best;
    std::size_t best_gain = 0;
    Willingness best_will = Willingness::kNever;
    std::size_t best_degree = 0;

    for (const auto& [via, reach] : in.reach) {
      if (sorted_contains(out, via)) continue;
      const std::size_t gain = gain_of(reach, uncovered);
      if (gain == 0) continue;
      const auto will = will_of(in, via);
      const std::size_t degree = reach.size();
      const bool better =
          gain > best_gain ||
          (gain == best_gain &&
           (static_cast<int>(will) > static_cast<int>(best_will) ||
            (will == best_will &&
             (degree > best_degree ||
              (degree == best_degree && (!best.valid() || via < best))))));
      if (better) {
        best = via;
        best_gain = gain;
        best_will = will;
        best_degree = degree;
      }
    }

    if (!best.valid()) break;  // remaining 2-hop nodes are unreachable
    cover_with(best);
  }
}

std::vector<NodeId> select_mprs(const MprInputs& in) {
  MprScratch scratch;
  std::vector<NodeId> out;
  select_mprs(in, scratch, out);
  return out;
}

bool covers_all_two_hops(const MprInputs& in,
                         const std::vector<NodeId>& mprs) {
  std::vector<NodeId> covered;
  for (auto m : mprs) {
    const auto* reach = reach_of(in, m);
    if (reach == nullptr) continue;
    covered.insert(covered.end(), reach->begin(), reach->end());
  }
  std::sort(covered.begin(), covered.end());
  covered.erase(std::unique(covered.begin(), covered.end()), covered.end());
  std::vector<NodeId> all;
  all_two_hops(in, all);
  return std::includes(covered.begin(), covered.end(), all.begin(), all.end());
}

}  // namespace manet::olsr

#pragma once

#include <utility>
#include <vector>

#include "net/node_id.hpp"
#include "olsr/constants.hpp"

namespace manet::olsr {

using net::NodeId;

/// Inputs to MPR selection (RFC 3626 §8.3.1), decoupled from the tables so
/// the heuristic is a pure, property-testable function. Both lists are flat
/// sorted slabs (ascending by id / by via, inner lists ascending) so the
/// selection runs on contiguous memory and the Agent can reuse the buffers
/// across recomputes.
struct MprInputs {
  /// Symmetric 1-hop neighbors and their willingness (N in the RFC),
  /// ascending by id.
  std::vector<std::pair<NodeId, Willingness>> neighbors;
  /// For each 1-hop neighbor, the strict 2-hop nodes reachable through it
  /// (derived from N2), ascending by via with sorted inner lists. Neighbors
  /// with willingness NEVER must be excluded by the caller
  /// (NeighborTable::reachability already does).
  std::vector<std::pair<NodeId, std::vector<NodeId>>> reach;
};

/// Reusable working memory for select_mprs: the greedy cover repeatedly
/// builds uncovered-sets and provider lists, and a per-agent scratch keeps
/// those allocations out of the per-HELLO path.
struct MprScratch {
  std::vector<NodeId> uncovered;                    // sorted
  std::vector<NodeId> tmp;                          // set-difference staging
  std::vector<std::pair<NodeId, NodeId>> providers; // (two_hop, via)
};

/// RFC 3626 §8.3.1 heuristic:
///  1. WILL_ALWAYS neighbors are always MPRs.
///  2. A neighbor that is the only one covering some 2-hop node is an MPR.
///  3. Remaining uncovered 2-hop nodes are covered greedily by descending
///     reachability (number of still-uncovered 2-hop nodes), ties broken by
///     higher willingness, then larger total reach (degree), then lower id
///     (for determinism).
/// The result is sorted ascending.
std::vector<NodeId> select_mprs(const MprInputs& inputs);

/// Scratch-buffer variant: `out` is replaced with the selected set.
void select_mprs(const MprInputs& inputs, MprScratch& scratch,
                 std::vector<NodeId>& out);

/// True if `mprs` (sorted ascending) covers every strict 2-hop node of
/// `inputs` — the safety property the paper's attack breaks from the
/// victim's point of view.
bool covers_all_two_hops(const MprInputs& inputs,
                         const std::vector<NodeId>& mprs);

}  // namespace manet::olsr

#include "netsim/routing.h"

#include <algorithm>

namespace lexfor::netsim {
namespace {

// Node ids are dense vector indices, so they fit 32 bits in any
// simulation this side of 4 billion nodes; the pair key packs both.
[[nodiscard]] std::uint64_t pair_key(NodeId src, NodeId dst) noexcept {
  return (src.value() << 32) | (dst.value() & 0xFFFFFFFFull);
}

}  // namespace

RouteCache::PathRef RouteCache::acquire(NodeId src, NodeId dst,
                                        const AdjacencyList& adj) {
  const std::uint64_t key = pair_key(src, dst);
  const auto it = lookup_.find(key);
  if (it != lookup_.end()) {
    if (it->second != kNull) add_ref(it->second);
    return it->second;
  }

  const Tree& tree = tree_for(src, adj);
  if (dst.value() >= tree.nodes || tree.seen[dst.value()] == 0) {
    lookup_.emplace(key, kNull);
    return kNull;
  }

  const PathRef p = paths_.acquire();
  PathRec& rec = paths_[p];
  rec.hops.clear();  // slot recycled: capacity retained, contents stale
  rec.hops.push_back(dst);
  NodeId cur = dst;
  while (cur != src) {
    cur = tree.parent[cur.value()];
    rec.hops.push_back(cur);
  }
  std::reverse(rec.hops.begin(), rec.hops.end());
  rec.refs = 2;  // one for the lookup table, one for the caller
  lookup_.emplace(key, p);
  return p;
}

void RouteCache::add_ref(PathRef p) noexcept { ++paths_[p].refs; }

void RouteCache::release(PathRef p) noexcept {
  if (p == kNull) return;
  if (--paths_[p].refs == 0) paths_.release(p);
}

void RouteCache::invalidate() {
  for (const auto& [key, p] : lookup_) {
    if (p != kNull) release(p);
  }
  lookup_.clear();
  trees_.clear();
  arena_.reset();
}

const RouteCache::Tree& RouteCache::tree_for(NodeId src,
                                             const AdjacencyList& adj) {
  const auto it = trees_.find(src.value());
  if (it != trees_.end()) return it->second;
  if (trees_.size() >= kMaxTrees) invalidate();

  const std::size_t n = adj.size();
  Tree tree;
  tree.nodes = n;
  // `n` is the node count of a live adjacency list, so neither array's
  // byte size can overflow and alloc_array never returns null here.
  tree.parent = arena_.alloc_array<NodeId>(n);
  tree.seen = arena_.alloc_array<std::uint8_t>(n);
  std::fill(tree.seen, tree.seen + n, std::uint8_t{0});

  // Full BFS from src.  Identical discovery order to
  // Network::shortest_path: FIFO frontier, adjacency order, parent =
  // first discoverer — so a path read off this tree matches the path
  // the per-packet BFS used to build, node for node.
  frontier_.clear();
  frontier_.push_back(src);
  tree.seen[src.value()] = 1;
  for (std::size_t i = 0; i < frontier_.size(); ++i) {
    const NodeId u = frontier_[i];
    for (const Adjacency& a : adj[u.value()]) {
      if (tree.seen[a.neighbor.value()] != 0) continue;
      tree.seen[a.neighbor.value()] = 1;
      tree.parent[a.neighbor.value()] = u;
      frontier_.push_back(a.neighbor);
    }
  }
  ++bfs_runs_;
  return trees_.emplace(src.value(), tree).first->second;
}

}  // namespace lexfor::netsim

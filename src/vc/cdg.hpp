#pragma once
// Channel dependency graph (Dally & Seitz): nodes are the network's directed
// links; an edge (e1 -> e2) exists when some route occupies e1 and then e2
// consecutively. A routing subfunction is deadlock-free on a VC if the CDG
// restricted to that VC's routes is acyclic (paper SII-F).

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "routing/paths.hpp"
#include "topo/graph.hpp"

namespace netsmith::vc {

// Maps directed links to dense ids.
class LinkIds {
 public:
  explicit LinkIds(const topo::DiGraph& g);

  int id(int u, int v) const { return id_[static_cast<std::size_t>(u) * n_ + v]; }
  // The path's links in order (-1 where the graph lacks a hop).
  std::vector<int> path_links(const routing::Path& p) const;
  int count() const { return static_cast<int>(links_.size()); }
  std::pair<int, int> link(int e) const { return links_[e]; }

 private:
  int n_ = 0;
  std::vector<int> id_;  // -1 when no such link
  std::vector<std::pair<int, int>> links_;
};

// Besides the plain edge set (add_dep/add_path + has_cycle, the oracle the
// tests and verify_acyclic use), the graph keeps a Pearce–Kelly dynamic
// topological order: a permutation ord_ of the links with ord_[a] < ord_[b]
// for every dependency a -> b. add_path_acyclic maintains it, so deciding
// whether a path closes a cycle costs O(1) per dependency that already
// agrees with the order, and a search bounded to the affected order window
// otherwise (Pearce & Kelly, "A Dynamic Topological Sort Algorithm for
// Directed Acyclic Graphs", JEA 2006).
class Cdg {
 public:
  explicit Cdg(int num_links);

  // Adds a dependency edge; duplicates ignored. Returns true if new.
  bool add_dep(int from, int to);
  void remove_dep(int from, int to);

  // Adds every consecutive-link dependency of the path. Returns the list of
  // (from, to) pairs actually inserted, so the caller can roll back.
  std::vector<std::pair<int, int>> add_path(const routing::Path& p,
                                            const LinkIds& ids);
  void remove_deps(const std::vector<std::pair<int, int>>& deps);

  // Adds the dependencies between consecutive links of a path (its
  // LinkIds::path_links) unless one of them would close a cycle, in which
  // case the graph is left exactly as it was and false is returned.
  // Requires an acyclic graph whose edges all came from add_path_acyclic
  // (removals are fine: an order valid for a graph is valid for any
  // subgraph); throws std::logic_error after an order-breaking add_dep.
  bool add_path_acyclic(std::span<const int> links);

  bool has_cycle() const;
  int num_deps() const { return deps_; }
  int num_links() const { return static_cast<int>(adj_.size()); }

  // add_path_acyclic work counters: inserts that needed a bounded search,
  // and searches that ended in a reorder (no cycle found).
  std::int64_t cycle_searches() const { return searches_; }
  std::int64_t reorders() const { return reorders_; }

 private:
  void link(int from, int to);
  // Inserts from -> to keeping ord_ valid; false (nothing inserted) when
  // the edge would close a cycle.
  bool insert_ordered(int from, int to);
  // Searches the order window [lb, ub] between `to` and `from`; true when
  // `to` reaches `from`, else fwd_/bwd_ hold the links to reorder.
  bool window_search(int from, int to, int lb, int ub);
  void reorder();

  std::vector<std::vector<int>> adj_;
  std::vector<std::vector<int>> radj_;
  int deps_ = 0;

  std::vector<int> ord_;  // link -> position in the topological order
  bool ordered_ = true;   // false once add_dep broke the order
  // Scratch reused across inserts: search marks, the forward and backward
  // visited sets, their (position, link) sort keys and pooled positions,
  // this path's new deps.
  std::vector<char> mark_;
  std::vector<int> fwd_, bwd_;
  std::vector<std::uint64_t> fkeys_, bkeys_, slots_;
  std::vector<std::pair<int, int>> added_;
  std::int64_t searches_ = 0;
  std::int64_t reorders_ = 0;
};

}  // namespace netsmith::vc

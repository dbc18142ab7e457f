#include "vc/cdg.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <span>
#include <stdexcept>

namespace netsmith::vc {

LinkIds::LinkIds(const topo::DiGraph& g) : n_(g.num_nodes()) {
  id_.assign(static_cast<std::size_t>(n_) * n_, -1);
  for (const auto& [u, v] : g.edges()) {
    id_[static_cast<std::size_t>(u) * n_ + v] = static_cast<int>(links_.size());
    links_.emplace_back(u, v);
  }
}

std::vector<int> LinkIds::path_links(const routing::Path& p) const {
  std::vector<int> links;
  for (std::size_t i = 0; i + 1 < p.size(); ++i)
    links.push_back(id(p[i], p[i + 1]));
  return links;
}

Cdg::Cdg(int num_links)
    : adj_(num_links), radj_(num_links), ord_(num_links), mark_(num_links, 0) {
  std::iota(ord_.begin(), ord_.end(), 0);
}

bool Cdg::add_dep(int from, int to) {
  auto& a = adj_[from];
  if (std::find(a.begin(), a.end(), to) != a.end()) return false;
  if (ord_[from] >= ord_[to]) ordered_ = false;
  link(from, to);
  return true;
}

void Cdg::link(int from, int to) {
  adj_[from].push_back(to);
  radj_[to].push_back(from);
  ++deps_;
}

void Cdg::remove_dep(int from, int to) {
  auto& a = adj_[from];
  auto it = std::find(a.begin(), a.end(), to);
  if (it != a.end()) {
    a.erase(it);
    auto& r = radj_[to];
    r.erase(std::find(r.begin(), r.end(), from));
    --deps_;
  }
}

std::vector<std::pair<int, int>> Cdg::add_path(const routing::Path& p,
                                               const LinkIds& ids) {
  std::vector<std::pair<int, int>> inserted;
  for (std::size_t i = 0; i + 2 < p.size(); ++i) {
    const int e1 = ids.id(p[i], p[i + 1]);
    const int e2 = ids.id(p[i + 1], p[i + 2]);
    if (e1 < 0 || e2 < 0) continue;
    if (add_dep(e1, e2)) inserted.emplace_back(e1, e2);
  }
  return inserted;
}

void Cdg::remove_deps(const std::vector<std::pair<int, int>>& deps) {
  for (const auto& [from, to] : deps) remove_dep(from, to);
}

bool Cdg::add_path_acyclic(std::span<const int> links) {
  if (!ordered_)
    throw std::logic_error("Cdg::add_path_acyclic: order broken by add_dep");
  // Before the path the graph is acyclic, so "some new dep closes a cycle"
  // is exactly "the graph with the whole path added has a cycle": the
  // oracle's add_path + has_cycle decision.
  added_.clear();
  for (std::size_t i = 0; i + 1 < links.size(); ++i) {
    const int e1 = links[i], e2 = links[i + 1];
    if (e1 < 0 || e2 < 0) continue;
    const auto& a = adj_[e1];
    if (std::find(a.begin(), a.end(), e2) != a.end()) continue;
    if (!insert_ordered(e1, e2)) {
      // Roll back this path's deps. The order needs no repair: it was valid
      // for the larger graph, and removing edges only drops constraints.
      remove_deps(added_);
      return false;
    }
    added_.emplace_back(e1, e2);
  }
  return true;
}

bool Cdg::insert_ordered(int from, int to) {
  const int lb = ord_[to], ub = ord_[from];
  if (lb > ub) {  // already consistent with the order: O(1)
    link(from, to);
    return true;
  }
  ++searches_;
  const bool cycle = from == to || window_search(from, to, lb, ub);
  for (int x : fwd_) mark_[x] = 0;
  for (int x : bwd_) mark_[x] = 0;
  if (cycle) return false;
  reorder();
  link(from, to);
  return true;
}

bool Cdg::window_search(int from, int to, int lb, int ub) {
  // Any new cycle runs through links with order in [lb, ub]. Two bounded
  // searches grow alternately, one node each: forward (mark 1) from `to`
  // below ub, backward (mark 2) from `from` above lb. They meet iff `to`
  // reaches `from`. Without a meeting both run to completion, and their
  // visited sets are exactly what the reorder moves. The sets double as
  // the search queues.
  fwd_.assign(1, to);
  bwd_.assign(1, from);
  mark_[to] = 1;
  mark_[from] = 2;
  std::size_t fi = 0, bi = 0;
  while (fi < fwd_.size() || bi < bwd_.size()) {
    if (fi < fwd_.size()) {
      for (int x : adj_[fwd_[fi++]]) {
        if (mark_[x] == 2) return true;
        if (mark_[x] == 0 && ord_[x] < ub) {
          mark_[x] = 1;
          fwd_.push_back(x);
        }
      }
    }
    if (bi < bwd_.size()) {
      for (int x : radj_[bwd_[bi++]]) {
        if (mark_[x] == 1) return true;
        if (mark_[x] == 0 && ord_[x] > lb) {
          mark_[x] = 2;
          bwd_.push_back(x);
        }
      }
    }
  }
  return false;
}

void Cdg::reorder() {
  // Pool the visited links' positions and hand them out in order: first the
  // backward set (`from` and the links reaching it), then the forward set
  // (`to` and the links it reaches), each keeping its relative order. Keys
  // are (position << 32 | link), so plain integer sorts order each set.
  const auto keyed = [this](const std::vector<int>& set,
                            std::vector<std::uint64_t>& keys) {
    keys.clear();
    for (int x : set)
      keys.push_back(static_cast<std::uint64_t>(ord_[x]) << 32 |
                     static_cast<std::uint32_t>(x));
    std::sort(keys.begin(), keys.end());
  };
  keyed(bwd_, bkeys_);
  keyed(fwd_, fkeys_);
  slots_.clear();
  std::merge(bkeys_.begin(), bkeys_.end(), fkeys_.begin(), fkeys_.end(),
             std::back_inserter(slots_));
  std::size_t i = 0;
  for (const auto* keys : {&bkeys_, &fkeys_})
    for (const std::uint64_t k : *keys)
      ord_[static_cast<std::uint32_t>(k)] = static_cast<int>(slots_[i++] >> 32);
  ++reorders_;
}

bool Cdg::has_cycle() const {
  const int n = num_links();
  // Iterative DFS with colors: 0 white, 1 on stack, 2 done.
  std::vector<std::int8_t> color(n, 0);
  std::vector<std::pair<int, std::size_t>> stack;
  for (int s = 0; s < n; ++s) {
    if (color[s] != 0) continue;
    stack.emplace_back(s, 0);
    color[s] = 1;
    while (!stack.empty()) {
      auto& [u, idx] = stack.back();
      if (idx < adj_[u].size()) {
        const int v = adj_[u][idx++];
        if (color[v] == 1) return true;
        if (color[v] == 0) {
          color[v] = 1;
          stack.emplace_back(v, 0);
        }
      } else {
        color[u] = 2;
        stack.pop_back();
      }
    }
  }
  return false;
}

}  // namespace netsmith::vc

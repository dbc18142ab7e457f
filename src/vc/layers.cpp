#include "vc/layers.hpp"

#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace netsmith::vc {

namespace {

struct FlowRef {
  int s, d;
};

// Every routed flow, with its path's link ids computed once per call for
// all restarts and layers: flow f's are links[first[f], first[f + 1]).
struct Flows {
  std::vector<FlowRef> refs;
  std::vector<int> first{0};
  std::vector<int> links;

  std::span<const int> path_links(int f) const {
    return std::span(links).subspan(first[f], first[f + 1] - first[f]);
  }
};

struct SearchWork {
  std::int64_t cycle_searches = 0;
  std::int64_t reorders = 0;
};

// One greedy pass: fill layer 0 with every flow (indices into `flows`, in
// `order`) whose path closes no cycle in that layer's CDG, defer the rest to
// layer 1, and so on. `full_check` selects the oracle test (add the path,
// run a whole-graph has_cycle, roll back on a cycle); otherwise the CDG's
// Pearce-Kelly order answers the same question incrementally. Both defer
// exactly the same flows, so the assignments are identical.
VcAssignment try_assign(const routing::RoutingTable& rt, const LinkIds& ids,
                        const Flows& flows, std::vector<int> order,
                        int max_layers, bool full_check, SearchWork& work) {
  const int n = rt.num_nodes();
  VcAssignment a;
  a.layer.assign(static_cast<std::size_t>(n) * n, -1);

  std::vector<int> pending = std::move(order);
  int layer = 0;
  while (!pending.empty()) {
    if (layer >= max_layers) {
      a.num_layers = -1;  // signal failure
      return a;
    }
    Cdg cdg(ids.count());
    std::vector<int> deferred;
    for (const int i : pending) {
      const FlowRef f = flows.refs[static_cast<std::size_t>(i)];
      bool fits;
      if (full_check) {
        const auto inserted = cdg.add_path(rt.path(f.s, f.d), ids);
        fits = !cdg.has_cycle();
        if (!fits) cdg.remove_deps(inserted);
      } else {
        fits = cdg.add_path_acyclic(flows.path_links(i));
      }
      if (fits) {
        a.layer[static_cast<std::size_t>(f.s) * n + f.d] = layer;
      } else {
        // This path closes a cycle in the current layer: defer it. This is
        // the DFSSSP move of peeling the cycle-forming route into a new VC.
        deferred.push_back(i);
      }
    }
    work.cycle_searches += cdg.cycle_searches();
    work.reorders += cdg.reorders();
    pending = std::move(deferred);
    ++layer;
  }
  a.num_layers = layer;
  return a;
}

struct Layering {
  VcAssignment best;
  int restarts_run = 0;
  SearchWork work;
};

// Restart loop shared by both entry points: the first restart takes flows in
// (s, d) order, later ones in a fresh shuffle; the first strictly fewest
// layers win. Stops once `lower_bound` layers are reached, since no later
// restart can then strictly improve.
Layering layer_restarts(const routing::RoutingTable& rt, const topo::DiGraph& g,
                        util::Rng& rng, int restarts, int max_layers,
                        bool full_check) {
  const int n = rt.num_nodes();
  const LinkIds ids(g);
  Flows flows;
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d) {
      if (s == d || rt.path(s, d).size() < 2) continue;
      const auto links = ids.path_links(rt.path(s, d));
      flows.refs.push_back({s, d});
      flows.links.insert(flows.links.end(), links.begin(), links.end());
      flows.first.push_back(static_cast<int>(flows.links.size()));
    }

  // One layer is possible iff the union CDG of every flow is acyclic, so a
  // cyclic union proves at least two. The oracle keeps its historical stop
  // at one layer.
  int lower_bound = 1;
  if (!full_check) {
    Cdg all(ids.count());
    for (const auto& f : flows.refs) all.add_path(rt.path(f.s, f.d), ids);
    if (all.has_cycle()) lower_bound = 2;
  }

  Layering out;
  out.best.num_layers = -1;
  for (int r = 0; r < restarts; ++r) {
    std::vector<int> order(flows.refs.size());
    std::iota(order.begin(), order.end(), 0);
    if (r > 0) rng.shuffle(order);
    ++out.restarts_run;
    const auto a = try_assign(rt, ids, flows, std::move(order), max_layers,
                              full_check, out.work);
    if (a.num_layers < 0) continue;
    if (out.best.num_layers < 0 || a.num_layers < out.best.num_layers)
      out.best = a;
    if (out.best.num_layers == lower_bound) break;
  }
  if (out.best.num_layers < 0)
    throw std::runtime_error("assign_layers: exceeded max_layers");
  return out;
}

}  // namespace

VcAssignment assign_layers(const routing::RoutingTable& rt,
                           const topo::DiGraph& g, util::Rng& rng,
                           int restarts, int max_layers) {
  // Plan-level entry point (one call per planned network), so a span and a
  // counter flush per call are cheap.
  obs::Span span("vc/assign_layers");
  Layering l = layer_restarts(rt, g, rng, restarts, max_layers,
                              /*full_check=*/false);
  span.arg("restarts_run", l.restarts_run);
  span.arg("layers", l.best.num_layers);
  if (obs::metrics_enabled()) {
    static obs::Counter& searches = obs::counter("vc.cycle_searches");
    static obs::Counter& reorders = obs::counter("vc.reorders");
    searches.add(static_cast<std::uint64_t>(l.work.cycle_searches));
    reorders.add(static_cast<std::uint64_t>(l.work.reorders));
  }
  return std::move(l.best);
}

VcAssignment assign_layers_reference(const routing::RoutingTable& rt,
                                     const topo::DiGraph& g, util::Rng& rng,
                                     int restarts, int max_layers) {
  return layer_restarts(rt, g, rng, restarts, max_layers, /*full_check=*/true)
      .best;
}

bool verify_acyclic(const VcAssignment& a, const routing::RoutingTable& rt,
                    const topo::DiGraph& g) {
  const int n = rt.num_nodes();
  const LinkIds ids(g);
  for (int layer = 0; layer < a.num_layers; ++layer) {
    Cdg cdg(ids.count());
    for (int s = 0; s < n; ++s)
      for (int d = 0; d < n; ++d) {
        if (s == d) continue;
        if (a.layer[static_cast<std::size_t>(s) * n + d] != layer) continue;
        cdg.add_path(rt.path(s, d), ids);
      }
    if (cdg.has_cycle()) return false;
  }
  return true;
}

}  // namespace netsmith::vc

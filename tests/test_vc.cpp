#include "vc/balance.hpp"
#include "vc/cdg.hpp"
#include "vc/layers.hpp"

#include <gtest/gtest.h>

#include "core/anneal.hpp"
#include "routing/mclb.hpp"
#include "topo/builders.hpp"
#include "topologies/registry.hpp"

namespace netsmith::vc {
namespace {

routing::RoutingTable mclb_table(const topo::DiGraph& g, int paths_per_flow) {
  const auto ps = routing::enumerate_shortest_paths(g, paths_per_flow);
  return routing::mclb_local_search(ps).table(ps);
}

// Oracle check: assign_layers must make every accept/defer decision the
// full-check reference makes, so layer count and per-flow layers are equal.
// The rng must also end where the reference leaves it, except when the
// lower-bound stop (two layers on a cyclic union CDG) skipped restarts.
void expect_reference_layers(const topo::DiGraph& g,
                             const routing::RoutingTable& rt,
                             std::uint64_t seed, int restarts = 8) {
  util::Rng fast_rng(seed), ref_rng(seed);
  const auto fast = assign_layers(rt, g, fast_rng, restarts);
  const auto ref = assign_layers_reference(rt, g, ref_rng, restarts);
  ASSERT_EQ(fast.num_layers, ref.num_layers) << "seed " << seed;
  EXPECT_EQ(fast.layer, ref.layer) << "seed " << seed;

  const LinkIds ids(g);
  Cdg all(ids.count());
  const int n = g.num_nodes();
  for (int s = 0; s < n; ++s)
    for (int d = 0; d < n; ++d)
      if (s != d) all.add_path(rt.path(s, d), ids);
  if (!(all.has_cycle() && ref.num_layers == 2))
    EXPECT_EQ(fast_rng.next(), ref_rng.next()) << "seed " << seed;
}

void expect_reference_layers_over_seeds(const topo::DiGraph& g, int seeds = 8,
                                        int restarts = 8) {
  const auto rt = mclb_table(g, 4);
  for (int seed = 1; seed <= seeds; ++seed)
    expect_reference_layers(g, rt, static_cast<std::uint64_t>(seed), restarts);
}

TEST(LinkIds, DenseAndInvertible) {
  topo::DiGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  const LinkIds ids(g);
  EXPECT_EQ(ids.count(), 3);
  for (const auto& [u, v] : g.edges()) {
    const int e = ids.id(u, v);
    ASSERT_GE(e, 0);
    EXPECT_EQ(ids.link(e), std::make_pair(u, v));
  }
  EXPECT_EQ(ids.id(0, 2), -1);
}

TEST(Cdg, DetectsSimpleCycle) {
  Cdg cdg(3);
  EXPECT_TRUE(cdg.add_dep(0, 1));
  EXPECT_TRUE(cdg.add_dep(1, 2));
  EXPECT_FALSE(cdg.has_cycle());
  EXPECT_TRUE(cdg.add_dep(2, 0));
  EXPECT_TRUE(cdg.has_cycle());
}

TEST(Cdg, DuplicateDepsIgnored) {
  Cdg cdg(2);
  EXPECT_TRUE(cdg.add_dep(0, 1));
  EXPECT_FALSE(cdg.add_dep(0, 1));
  EXPECT_EQ(cdg.num_deps(), 1);
}

TEST(Cdg, RemoveDepsRollsBack) {
  Cdg cdg(3);
  cdg.add_dep(0, 1);
  const std::vector<std::pair<int, int>> added{{1, 2}, {2, 0}};
  for (const auto& [a, b] : added) cdg.add_dep(a, b);
  EXPECT_TRUE(cdg.has_cycle());
  cdg.remove_deps(added);
  EXPECT_FALSE(cdg.has_cycle());
  EXPECT_EQ(cdg.num_deps(), 1);
}

TEST(Cdg, AddPathCreatesConsecutiveDeps) {
  topo::DiGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const LinkIds ids(g);
  Cdg cdg(ids.count());
  const auto ins = cdg.add_path({0, 1, 2, 3}, ids);
  EXPECT_EQ(ins.size(), 2u);  // (0-1)->(1-2), (1-2)->(2-3)
  EXPECT_FALSE(cdg.has_cycle());
}

TEST(Cdg, AcyclicInsertRejectsCycleAndRollsBack) {
  // Ring 0 -> 1 -> 2 -> 3 -> 0; links get ids in insertion order.
  topo::DiGraph g(4);
  for (int u = 0; u < 4; ++u) g.add_edge(u, (u + 1) % 4);
  const LinkIds ids(g);
  Cdg cdg(ids.count());
  ASSERT_TRUE(cdg.add_path_acyclic(ids.path_links({0, 1, 2, 3})));
  EXPECT_EQ(cdg.num_deps(), 2);
  // (2-3)->(3-0)->(0-1) closes the ring: nothing of the path may remain.
  EXPECT_FALSE(cdg.add_path_acyclic(ids.path_links({2, 3, 0, 1})));
  EXPECT_EQ(cdg.num_deps(), 2);
  EXPECT_FALSE(cdg.has_cycle());
  // (3-0)->(0-1) runs against the initial order: a search plus a reorder,
  // after which further acyclic inserts still succeed.
  EXPECT_TRUE(cdg.add_path_acyclic(ids.path_links({3, 0, 1})));
  EXPECT_EQ(cdg.num_deps(), 3);
  EXPECT_GE(cdg.reorders(), 1);
  // Only an existing dep: nothing to insert.
  EXPECT_TRUE(cdg.add_path_acyclic(ids.path_links({1, 2, 3})));
  EXPECT_EQ(cdg.num_deps(), 3);
  EXPECT_FALSE(cdg.has_cycle());
  EXPECT_FALSE(cdg.add_path_acyclic(ids.path_links({1, 2, 3, 0})));
  EXPECT_EQ(cdg.num_deps(), 3);
}

TEST(Cdg, AcyclicInsertMatchesFullCycleCheck) {
  // Random walks on a complete digraph: every decision of the ordered
  // insert must equal add_path + has_cycle (+ rollback) on a mirror graph.
  const int k = 6;
  topo::DiGraph g(k);
  for (int u = 0; u < k; ++u)
    for (int v = 0; v < k; ++v)
      if (u != v) g.add_edge(u, v);
  const LinkIds ids(g);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    Cdg fast(ids.count()), mirror(ids.count());
    int rejected = 0;
    for (int step = 0; step < 300; ++step) {
      routing::Path p{static_cast<int>(rng.uniform_int(0, k - 1))};
      const int len = static_cast<int>(rng.uniform_int(3, 6));
      while (static_cast<int>(p.size()) < len) {
        const int v = static_cast<int>(rng.uniform_int(0, k - 1));
        if (v != p.back()) p.push_back(v);
      }
      const auto inserted = mirror.add_path(p, ids);
      const bool cyclic = mirror.has_cycle();
      if (cyclic) mirror.remove_deps(inserted);
      ASSERT_EQ(fast.add_path_acyclic(ids.path_links(p)), !cyclic)
          << "seed " << seed << " step " << step;
      ASSERT_EQ(fast.num_deps(), mirror.num_deps());
      rejected += cyclic;
    }
    EXPECT_GT(rejected, 0);
    EXPECT_GT(fast.reorders(), 0);
  }
}

TEST(Cdg, AcyclicInsertRefusesBrokenOrder) {
  Cdg cdg(2);
  cdg.add_dep(1, 0);  // against the initial order
  topo::DiGraph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(cdg.add_path_acyclic(LinkIds(g).path_links({0, 1})),
               std::logic_error);
}

TEST(Layers, SingleLayerForMeshXy) {
  // Mesh with deterministic first-path (row-then-column or similar DFS
  // order) routing typically fits few layers; whatever the count, the
  // result must be verified acyclic.
  const auto g = topo::build_mesh(topo::Layout::noi_4x5());
  const auto rt =
      routing::RoutingTable::select_first(routing::enumerate_shortest_paths(g));
  util::Rng rng(3);
  const auto a = assign_layers(rt, g, rng);
  EXPECT_GE(a.num_layers, 1);
  EXPECT_TRUE(verify_acyclic(a, rt, g));
}

TEST(Layers, TorusNeedsMultipleLayers) {
  // Rings force cyclic dependencies: one layer cannot be enough when flows
  // wrap around. (With shortest paths on C4/C5 rings cycles arise.)
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto rt =
      routing::RoutingTable::select_first(routing::enumerate_shortest_paths(g));
  util::Rng rng(4);
  const auto a = assign_layers(rt, g, rng);
  EXPECT_TRUE(verify_acyclic(a, rt, g));
  EXPECT_GE(a.num_layers, 2);
}

TEST(Layers, AllFlowsAssigned) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto rt =
      routing::RoutingTable::select_first(routing::enumerate_shortest_paths(g));
  util::Rng rng(5);
  const auto a = assign_layers(rt, g, rng);
  for (int s = 0; s < 20; ++s)
    for (int d = 0; d < 20; ++d) {
      if (s == d) continue;
      const int l = a.layer[s * 20 + d];
      EXPECT_GE(l, 0);
      EXPECT_LT(l, a.num_layers);
    }
}

// Property: any random connected topology with MCLB routing gets a verified
// deadlock-free assignment within the paper's VC budget.
class LayerProperty : public ::testing::TestWithParam<int> {};

TEST_P(LayerProperty, AlwaysAcyclicWithinBudget) {
  util::Rng rng(700 + GetParam());
  const auto lay = topo::Layout::noi_4x5();
  const auto g = topo::build_random(lay, topo::LinkClass::kMedium, 4, rng);
  const auto ps = routing::enumerate_shortest_paths(g);
  if (!ps.all_flows_covered()) GTEST_SKIP() << "disconnected sample";
  const auto rt = routing::mclb_local_search(ps).table(ps);
  util::Rng lr(GetParam());
  const auto a = assign_layers(rt, g, lr);
  EXPECT_TRUE(verify_acyclic(a, rt, g));
  // Paper SIV-A: 4 VCs suffice for all 20-router configurations.
  EXPECT_LE(a.num_layers, 4);
}

// Oracle: the same layers as the full-check reference on random graphs of
// both link kinds at 4x5 and 8x6, MCLB tables with 4 paths per flow.
TEST_P(LayerProperty, MatchesReference) {
  for (const auto lay : {topo::Layout::noi_4x5(), topo::Layout{6, 8, 2.0}})
    for (const bool symmetric : {false, true}) {
      util::Rng rng(900 + GetParam());
      const auto cls = topo::LinkClass::kMedium;
      const auto g = symmetric ? topo::build_random_symmetric(lay, cls, 4, rng)
                               : topo::build_random(lay, cls, 4, rng);
      if (!routing::enumerate_shortest_paths(g, 1).all_flows_covered())
        continue;
      expect_reference_layers(g, mclb_table(g, 4), GetParam() + 1);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, LayerProperty,
                         ::testing::Range(0, 12));

TEST(LayerOracle, CatalogTopologies) {
  auto cat = topologies::catalog(20);
  for (auto& t : topologies::catalog(30)) cat.push_back(std::move(t));
  for (auto& t : topologies::catalog_48()) cat.push_back(std::move(t));
  for (const auto& t : cat) {
    SCOPED_TRACE(t.name);
    expect_reference_layers_over_seeds(t.graph);
  }
}

TEST(LayerOracle, ParametricBaselines) {
  for (const int routers : {20, 30, 48})
    for (const auto& t : topologies::baseline_catalog(routers)) {
      SCOPED_TRACE(t.name);
      expect_reference_layers_over_seeds(t.graph);
    }
}

TEST(LayerOracle, SynthesizedTopology) {
  core::SynthesisConfig cfg;
  cfg.layout = topo::Layout{8, 8, 2.0};
  cfg.restarts = 1;
  cfg.seed = 3;
  core::AnnealOptions ao;
  ao.max_moves = 1500;
  expect_reference_layers_over_seeds(core::anneal_synthesize(cfg, ao).graph);
}

// n = 256, where the reference costs about a second per restart. To keep the
// suite short, each graph gets 4 seeds (8 over both link kinds) and two
// restarts, which still puts one shuffled order per seed through both.
TEST(LayerOracle, Random16x16) {
  const topo::Layout lay{16, 16, 2.0};
  for (const bool symmetric : {false, true}) {
    util::Rng rng(symmetric ? 12 : 11);
    const auto cls = topo::LinkClass::kMedium;
    const auto g = symmetric ? topo::build_random_symmetric(lay, cls, 4, rng)
                             : topo::build_random(lay, cls, 4, rng);
    ASSERT_TRUE(routing::enumerate_shortest_paths(g, 1).all_flows_covered());
    expect_reference_layers_over_seeds(g, /*seeds=*/4, /*restarts=*/2);
  }
}

TEST(Balance, RespectsLayerMembership) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto rt =
      routing::RoutingTable::select_first(routing::enumerate_shortest_paths(g));
  util::Rng rng(6);
  const auto a = assign_layers(rt, g, rng);
  const auto map = balance_vcs(a, rt, 6);
  EXPECT_EQ(map.num_vcs, 6);
  for (int s = 0; s < 20; ++s)
    for (int d = 0; d < 20; ++d) {
      if (s == d) continue;
      const int vc = map.vc[s * 20 + d];
      ASSERT_GE(vc, 0);
      ASSERT_LT(vc, 6);
      EXPECT_EQ(map.layer_of_vc[vc], a.layer[s * 20 + d]);
    }
}

TEST(Balance, ThrowsWhenTooFewVcs) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto rt =
      routing::RoutingTable::select_first(routing::enumerate_shortest_paths(g));
  util::Rng rng(7);
  const auto a = assign_layers(rt, g, rng);
  if (a.num_layers < 2) GTEST_SKIP();
  EXPECT_THROW(balance_vcs(a, rt, a.num_layers - 1), std::invalid_argument);
}

TEST(Balance, WeightsSpreadWithinLayers) {
  const auto g = topo::build_folded_torus(topo::Layout::noi_4x5());
  const auto rt =
      routing::RoutingTable::select_first(routing::enumerate_shortest_paths(g));
  util::Rng rng(8);
  const auto a = assign_layers(rt, g, rng);
  const auto map = balance_vcs(a, rt, 6);
  // Any layer that received >= 2 VCs should not put all weight on one VC.
  for (int layer = 0; layer < a.num_layers; ++layer) {
    std::vector<double> w;
    for (int vc = 0; vc < map.num_vcs; ++vc)
      if (map.layer_of_vc[vc] == layer) w.push_back(map.weight_of_vc[vc]);
    if (w.size() < 2) continue;
    double total = 0, mx = 0;
    for (double x : w) {
      total += x;
      mx = std::max(mx, x);
    }
    if (total > 0) EXPECT_LT(mx, total * 0.95);
  }
}

}  // namespace
}  // namespace netsmith::vc

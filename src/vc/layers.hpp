#pragma once
// DFSSSP-style path-to-VC-layer partitioning (paper SIV-A, following Domke
// et al.): partition the chosen shortest paths into layers such that each
// layer's channel dependency graph is acyclic; each layer maps to (a group
// of) virtual channels. The paper found random back-edge selection gives
// sufficiently few layers; we take randomized path orders over several
// restarts and keep the best, which is the same mechanism.

#include <vector>

#include "routing/table.hpp"
#include "util/rng.hpp"
#include "vc/cdg.hpp"

namespace netsmith::vc {

struct VcAssignment {
  int num_layers = 0;
  // Per flow f = s*n + d: layer id, or -1 for absent flows (s == d).
  std::vector<int> layer;
};

// Greedy layered assignment with rollback on cycle creation. Each layer's
// CDG keeps a dynamic topological order (Cdg::add_path_acyclic), so a path
// insert costs a search bounded to the affected order window instead of a
// whole-graph cycle check. Restarts stop early once the layer count meets a
// proven lower bound (two when the union CDG of all flows is cyclic).
VcAssignment assign_layers(const routing::RoutingTable& rt,
                           const topo::DiGraph& g, util::Rng& rng,
                           int restarts = 8, int max_layers = 16);

// Oracle for assign_layers: the same greedy with a full Cdg::has_cycle()
// after every path insert, stopping early only at one layer. Returns the
// same layers; it is for tests and perf_report, never for planning.
VcAssignment assign_layers_reference(const routing::RoutingTable& rt,
                                     const topo::DiGraph& g, util::Rng& rng,
                                     int restarts = 8, int max_layers = 16);

// Verifies that every layer's CDG is acyclic (the deadlock-freedom
// condition); used by tests and asserted before simulation.
bool verify_acyclic(const VcAssignment& a, const routing::RoutingTable& rt,
                    const topo::DiGraph& g);

}  // namespace netsmith::vc

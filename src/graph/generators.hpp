// SPDX-License-Identifier: MIT
//
// Graph generators. The paper's experiments need a spectrum of instances:
//
//  * expanders with 1 - lambda = Omega(1): random r-regular graphs
//    (a.a.s. near-Ramanujan), the deterministic Margulis-Gabber-Galil
//    construction, complete graphs (r = n-1 end of Theorem 1's range);
//  * families with tunable / vanishing spectral gap for the
//    (1-lambda)-dependence sweeps: cycles, circulants with widening chord
//    sets, tori, hypercubes;
//  * non-expanders and pathological shapes for contrast and tests: paths,
//    stars, trees, lollipops, barbells, complete bipartite (bipartite =
//    lambda = 1, the excluded case);
//  * irregular graphs for the beyond-the-theorem experiments: G(n,p),
//    Watts-Strogatz small worlds.
//
// All generators return simple undirected graphs built through
// GraphBuilder, with descriptive name() strings used in experiment tables.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "rand/rng.hpp"

namespace cobra::gen {

// ---- deterministic basic families (generators_basic.cpp) ----

/// Complete graph K_n ((n-1)-regular; lambda = 1/(n-1)).
Graph complete(std::size_t n);

/// Complete bipartite K_{a,b}. Bipartite, so lambda = 1: the case excluded
/// by Theorem 1's hypotheses.
Graph complete_bipartite(std::size_t a, std::size_t b);

/// Cycle C_n (2-regular; lambda = cos(2*pi/n), gap Theta(1/n^2)).
Graph cycle(std::size_t n);

/// Path P_n (irregular: endpoint degree 1).
Graph path(std::size_t n);

/// Star S_n: vertex 0 joined to 1..n-1. Bipartite and irregular.
Graph star(std::size_t n);

/// Complete binary tree with `levels` levels (n = 2^levels - 1).
Graph binary_tree(std::size_t levels);

/// Circulant graph: vertex i adjacent to i +- s (mod n) for each s in
/// `offsets`. Requirements: 0 < s < n, offsets distinct, and s != n - s'
/// for s, s' in offsets (no coincident chords); n/2 allowed once (adds a
/// perfect matching). Regular of degree 2*|offsets| (minus matching case).
Graph circulant(std::size_t n, const std::vector<std::uint32_t>& offsets);

/// Lollipop: clique on m vertices with a path of p vertices attached.
/// The classic bad-mixing instance.
Graph lollipop(std::size_t clique_size, std::size_t path_size);

/// Barbell: two m-cliques joined by a path of `bridge` vertices (bridge may
/// be 0 = single connecting edge).
Graph barbell(std::size_t clique_size, std::size_t bridge);

// ---- lattices (generators_lattice.cpp) ----

/// d-dimensional grid with side lengths `dims`. periodic=true gives the
/// torus (2d-regular when every side >= 3); periodic=false the open grid.
Graph grid(const std::vector<std::size_t>& dims, bool periodic);

/// Torus shorthand: grid(dims, periodic=true).
Graph torus(const std::vector<std::size_t>& dims);

/// Hypercube Q_d on 2^d vertices (d-regular; 1 - lambda = 2/d).
Graph hypercube(std::size_t d);

// ---- random families (generators_random.cpp) ----

/// Random r-regular graph from the configuration model. Requires
/// 0 <= r < n, n*r even and n*r < 2^32 (std::invalid_argument otherwise).
/// A uniform pairing of the n*r stubs fills a fixed-degree CSR whose
/// sorted per-vertex blocks expose loops and multi-edges directly.
/// Uniformity:
///  * r <= 3: a pairing with defects is redrawn, up to 256 times (about
///    7.4 expected attempts at r = 3), so the sample is exactly uniform
///    over simple r-regular graphs unless all 256 attempts fail, in which
///    case it falls through to the repair below.
///  * r >= 4: the defects of one pairing are removed in place by
///    degree-preserving switches against uniformly chosen simple edges.
///    This is approximately uniform, not exactly. The bias is largest at
///    small n: on 4-regular graphs with 12 vertices the triangle-count law
///    is within total variation 0.06 of the exact sampler's (measured
///    0.04-0.05, mean 5.34-5.36 triangles against 5.54-5.56), 0.025 at
///    n = 40 and 0.009 at n = 400 (tests/substrate_test.cpp).
/// The sample is a pure function of (rng state, n, r). For r >= 4 its cost
/// does not depend on luck: one O(n*r) pairing and sort, plus O(r) per
/// repaired defect (about r^2/4 of them whatever n is). For r <= 3 the
/// attempt count is geometric, each attempt stopping at its first defect.
/// a.a.s. connected with lambda ~ 2*sqrt(r-1)/r for r >= 3.
Graph random_regular(std::size_t n, std::size_t r, Rng& rng);

/// random_regular, retried until the sample is connected (throws
/// std::runtime_error after max_attempts). For r >= 3 the first draw is
/// a.a.s. connected, so retries are rare.
Graph connected_random_regular(std::size_t n, std::size_t r, Rng& rng,
                               int max_attempts = 100);

/// Erdos-Renyi G(n,p) via geometric skipping, O(n + m).
Graph erdos_renyi(std::size_t n, double p, Rng& rng);

/// Watts-Strogatz small world: ring lattice of even degree k with each
/// half-edge rewired with probability beta (self-loops/duplicates
/// re-drawn). beta=0 is circulant, beta=1 near-random.
Graph watts_strogatz(std::size_t n, std::size_t k, double beta, Rng& rng);

/// Random geometric graph on the unit TORUS: n points uniform in [0,1)^2,
/// edge iff toroidal distance <= radius. Realistic spatial contact
/// structure (herd/sensor models); a poor expander by construction.
/// Grid-bucketed, O(n + m) expected.
Graph random_geometric(std::size_t n, double radius, Rng& rng);

/// Barabasi-Albert preferential attachment: starts from a clique on
/// `attach + 1` vertices, then each arriving vertex attaches to `attach`
/// distinct existing vertices chosen proportionally to degree. Heavy-tail
/// degree sequence; connected by construction.
Graph barabasi_albert(std::size_t n, std::size_t attach, Rng& rng);

// ---- named constructions (generators_named.cpp) ----

/// The Petersen graph (n=10, 3-regular, lambda = 2/3).
Graph petersen();

/// Generalized Petersen graph GP(n, k): outer n-cycle, inner n-cycle with
/// step k, spokes. 3-regular. Requires n >= 3, 1 <= k < n/2.
Graph generalized_petersen(std::size_t n, std::size_t k);

/// Margulis-Gabber-Galil expander on Z_m x Z_m: (x,y) adjacent to
/// (x+-y, y), (x+-y+-1... — the standard 8-neighbour template. Self-loops
/// and coincident edges produced by the template are dropped, so the graph
/// is *near*-8-regular but keeps the constant spectral gap. Deterministic.
Graph margulis(std::size_t m);

/// Paley graph on Z_q for a prime q = 1 (mod 4): u ~ v iff u - v is a
/// nonzero quadratic residue. (q-1)/2-regular, self-complementary, and a
/// deterministic near-optimal expander: adjacency eigenvalues are
/// (q-1)/2 and (-1 +- sqrt(q))/2, giving lambda = (sqrt(q)+1)/(q-1)
/// (see spectral::lambda_paley). Throws if q is not a prime = 1 mod 4.
Graph paley(std::size_t q);

/// Kneser graph K(n_set, k_subset): vertices are the k-subsets of
/// {0..n_set-1}, adjacent iff disjoint. C(n_set - k, k)-regular;
/// K(5, 2) is the Petersen graph. Requires n_set >= 2k (and a vertex
/// count that fits comfortably: C(n_set, k) <= 1e6).
Graph kneser(std::size_t n_set, std::size_t k_subset);

}  // namespace cobra::gen

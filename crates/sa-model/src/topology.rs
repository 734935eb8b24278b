//! Bounded-diameter topology generators.
//!
//! The paper targets the class of `D`-bounded-diameter graphs, motivated as a natural
//! extension of complete graphs ("environmental obstacles may disconnect some links in
//! an otherwise fully connected network"). The generators here cover the standard
//! families used in the experiments: complete graphs, stars, paths, cycles, grids,
//! tori, hypercubes, balanced trees, Erdős–Rényi graphs conditioned on connectivity,
//! and "damaged cliques" (complete graphs with a fraction of edges removed while
//! keeping the diameter below a bound).

use crate::graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// A declarative description of a graph topology.
///
/// Deterministic topologies can be built with [`Topology::build_deterministic`];
/// randomized ones need a seed via [`Topology::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum Topology {
    /// Path graph `P_n`.
    Path {
        /// Number of nodes.
        n: usize,
    },
    /// Cycle graph `C_n` (requires `n ≥ 3`).
    Cycle {
        /// Number of nodes.
        n: usize,
    },
    /// Complete graph `K_n`.
    Complete {
        /// Number of nodes.
        n: usize,
    },
    /// Star: node 0 is the hub, all others are leaves (requires `n ≥ 2`).
    Star {
        /// Number of nodes.
        n: usize,
    },
    /// 2-dimensional grid.
    Grid {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// 2-dimensional torus (grid with wrap-around edges; requires `rows, cols ≥ 3`).
    Torus {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// Hypercube of dimension `dim` (`2^dim` nodes).
    Hypercube {
        /// Dimension.
        dim: usize,
    },
    /// Complete `arity`-ary tree of the given `depth` (depth 0 is a single node).
    BalancedTree {
        /// Branching factor (≥ 1).
        arity: usize,
        /// Depth of the tree.
        depth: usize,
    },
    /// Erdős–Rényi `G(n, p)`, re-sampled until connected.
    ErdosRenyi {
        /// Number of nodes.
        n: usize,
        /// Edge probability.
        p: f64,
    },
    /// A complete graph from which each edge is removed independently with
    /// probability `drop`, re-sampled until the diameter is at most `max_diameter`.
    ///
    /// This models the paper's motivating scenario: a broadcast network in which
    /// environmental obstacles sever some links.
    DamagedClique {
        /// Number of nodes.
        n: usize,
        /// Probability that an edge is removed.
        drop: f64,
        /// Upper bound on the resulting diameter.
        max_diameter: usize,
    },
    /// `clusters` cliques of size `clique`, arranged in a ring with one bridge edge
    /// between consecutive cliques ("relaxed caveman" — small diameter clusters with
    /// a sparse backbone).
    Caveman {
        /// Number of cliques.
        clusters: usize,
        /// Size of each clique (≥ 1).
        clique: usize,
    },
    /// A uniformly random simple `deg`-regular graph on `n` nodes
    /// (configuration model with rejection), re-sampled until simple and
    /// connected.
    ///
    /// Random regular graphs of degree ≥ 3 are expanders with high
    /// probability (diameter `O(log n)` at constant degree), which makes
    /// them the scale-out topology of the engine benchmarks: thousands of
    /// nodes, small diameter, no grid structure for the cache to exploit.
    ///
    /// Rejection sampling accepts with probability ≈ `e^{-(deg²−1)/4}`
    /// *independent of `n`*; the attempt budget scales with that expected
    /// rejection count, keeping the family practical up to `deg ≈ 6`
    /// (beyond that the budget grows into the millions — use edge-swap
    /// repair if you ever need denser regular graphs).
    RandomRegular {
        /// Number of nodes (`n · deg` must be even, `n > deg`).
        n: usize,
        /// Degree of every node (≥ 2 for connectivity to be reachable).
        deg: usize,
    },
}

impl Topology {
    /// Builds the graph, using `seed` for randomized families.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are degenerate (see the per-variant requirements) or
    /// if a randomized family fails to produce a connected graph within 1000 retries.
    pub fn build(&self, seed: u64) -> Graph {
        match self {
            Topology::Path { n } => {
                assert!(*n >= 1);
                let edges: Vec<(usize, usize)> = (1..*n).map(|v| (v - 1, v)).collect();
                Graph::from_edges(*n, &edges)
            }
            Topology::Cycle { n } => {
                assert!(*n >= 3, "a cycle needs at least 3 nodes");
                let edges: Vec<(usize, usize)> = (0..*n).map(|v| (v, (v + 1) % n)).collect();
                Graph::from_edges(*n, &edges)
            }
            Topology::Complete { n } => {
                assert!(*n >= 1);
                let mut edges = Vec::with_capacity(n * (n - 1) / 2);
                for u in 0..*n {
                    for v in (u + 1)..*n {
                        edges.push((u, v));
                    }
                }
                Graph::from_edges(*n, &edges)
            }
            Topology::Star { n } => {
                assert!(*n >= 2, "a star needs at least 2 nodes");
                let edges: Vec<(usize, usize)> = (1..*n).map(|v| (0, v)).collect();
                Graph::from_edges(*n, &edges)
            }
            Topology::Grid { rows, cols } => {
                assert!(*rows >= 1 && *cols >= 1);
                let idx = |r: usize, c: usize| r * cols + c;
                let mut edges = Vec::with_capacity(2 * rows * cols);
                for r in 0..*rows {
                    for c in 0..*cols {
                        if c + 1 < *cols {
                            edges.push((idx(r, c), idx(r, c + 1)));
                        }
                        if r + 1 < *rows {
                            edges.push((idx(r, c), idx(r + 1, c)));
                        }
                    }
                }
                Graph::from_edges(rows * cols, &edges)
            }
            Topology::Torus { rows, cols } => {
                assert!(*rows >= 3 && *cols >= 3, "torus needs rows, cols ≥ 3");
                let idx = |r: usize, c: usize| r * cols + c;
                let mut edges = Vec::with_capacity(2 * rows * cols);
                for r in 0..*rows {
                    for c in 0..*cols {
                        edges.push((idx(r, c), idx(r, (c + 1) % cols)));
                        edges.push((idx(r, c), idx((r + 1) % rows, c)));
                    }
                }
                Graph::from_edges(rows * cols, &edges)
            }
            Topology::Hypercube { dim } => {
                let n = 1usize << dim;
                let mut edges = Vec::with_capacity(n * dim / 2);
                for v in 0..n {
                    for b in 0..*dim {
                        let u = v ^ (1 << b);
                        if u > v {
                            edges.push((v, u));
                        }
                    }
                }
                Graph::from_edges(n, &edges)
            }
            Topology::BalancedTree { arity, .. } => {
                assert!(*arity >= 1);
                let count = self.node_count();
                let mut edges = Vec::with_capacity(count.saturating_sub(1));
                // children of node i are a*i + 1 .. a*i + a (heap layout)
                for v in 0..count {
                    for c in 1..=*arity {
                        let child = arity * v + c;
                        if child < count {
                            edges.push((v, child));
                        }
                    }
                }
                Graph::from_edges(count, &edges)
            }
            Topology::ErdosRenyi { n, p } => {
                assert!(*n >= 1);
                assert!((0.0..=1.0).contains(p));
                let mut rng = StdRng::seed_from_u64(seed);
                let mut edges = Vec::new();
                for _attempt in 0..1000 {
                    edges.clear();
                    for u in 0..*n {
                        for v in (u + 1)..*n {
                            if rng.gen_bool(*p) {
                                edges.push((u, v));
                            }
                        }
                    }
                    let g = Graph::from_edges(*n, &edges);
                    if g.is_connected() {
                        return g;
                    }
                }
                panic!("G({n}, {p}) failed to produce a connected graph in 1000 attempts");
            }
            Topology::DamagedClique {
                n,
                drop,
                max_diameter,
            } => {
                assert!(*n >= 2);
                assert!((0.0..1.0).contains(drop));
                let mut rng = StdRng::seed_from_u64(seed);
                let mut edges = Vec::new();
                for _attempt in 0..1000 {
                    edges.clear();
                    for u in 0..*n {
                        for v in (u + 1)..*n {
                            if !rng.gen_bool(*drop) {
                                edges.push((u, v));
                            }
                        }
                    }
                    let g = Graph::from_edges(*n, &edges);
                    if g.is_connected() && g.diameter() <= *max_diameter {
                        return g;
                    }
                }
                panic!(
                    "damaged clique (n={n}, drop={drop}) failed to satisfy diameter ≤ {max_diameter}"
                );
            }
            Topology::Caveman { clusters, clique } => {
                assert!(*clusters >= 1 && *clique >= 1);
                let n = clusters * clique;
                let mut edges = Vec::with_capacity(clusters * clique * clique / 2 + clusters);
                for k in 0..*clusters {
                    let base = k * clique;
                    for u in 0..*clique {
                        for v in (u + 1)..*clique {
                            edges.push((base + u, base + v));
                        }
                    }
                }
                if *clusters > 1 {
                    for k in 0..*clusters {
                        let next = (k + 1) % clusters;
                        if *clusters == 2 && k == 1 {
                            break; // avoid a duplicate bridge between the same pair
                        }
                        edges.push((k * clique, next * clique + (clique - 1) % clique));
                    }
                }
                Graph::from_edges(n, &edges)
            }
            Topology::RandomRegular { n, deg } => {
                assert!(*deg >= 2, "degree must be at least 2");
                assert!(*n > *deg, "need more nodes than the degree");
                assert!(
                    (n * deg).is_multiple_of(2),
                    "n · deg must be even for a {deg}-regular graph on {n} nodes"
                );
                let mut rng = StdRng::seed_from_u64(seed);
                // Configuration model: pair up `deg` stubs per node after a
                // uniform shuffle; reject pairings with self-loops or
                // parallel edges (acceptance probability is independent of
                // n), then reject disconnected outcomes. The attempt budget
                // scales with the expected 1/acceptance ≈ e^{(deg²−1)/4}
                // (×50 head-room), so higher degrees get the tries they
                // need instead of a flat cap that would panic spuriously.
                // Duplicates are detected at the pairing level (a normalized
                // pair set) so the edge list feeds the bulk CSR constructor
                // in one O(n + E) pass per attempt.
                let accept = (-((deg * deg - 1) as f64) / 4.0).exp();
                let attempts = ((50.0 / accept).ceil() as u64).max(2000);
                let mut stubs: Vec<usize> = (0..n * deg).map(|s| s / deg).collect();
                let mut edges: Vec<(usize, usize)> = Vec::with_capacity(n * deg / 2);
                let mut seen: HashSet<(usize, usize)> = HashSet::with_capacity(n * deg / 2);
                'attempt: for _ in 0..attempts {
                    for i in (1..stubs.len()).rev() {
                        let j = rng.gen_range(0..=i);
                        stubs.swap(i, j);
                    }
                    edges.clear();
                    seen.clear();
                    for pair in stubs.chunks_exact(2) {
                        let (u, v) = (pair[0], pair[1]);
                        if u == v || !seen.insert(if u < v { (u, v) } else { (v, u) }) {
                            continue 'attempt;
                        }
                        edges.push((u, v));
                    }
                    let g = Graph::from_edges(*n, &edges);
                    if g.is_connected() {
                        return g;
                    }
                }
                panic!(
                    "random {deg}-regular graph on {n} nodes: no simple connected pairing in {attempts} attempts"
                );
            }
        }
    }

    /// Builds a deterministic topology (no randomness involved).
    ///
    /// # Panics
    ///
    /// Panics when called on a randomized family ([`Topology::ErdosRenyi`],
    /// [`Topology::DamagedClique`] or [`Topology::RandomRegular`]); use
    /// [`Topology::build`] with a seed for those.
    pub fn build_deterministic(&self) -> Graph {
        match self {
            Topology::ErdosRenyi { .. }
            | Topology::DamagedClique { .. }
            | Topology::RandomRegular { .. } => {
                panic!("randomized topology requires a seed; use Topology::build")
            }
            _ => self.build(0),
        }
    }

    /// The number of nodes [`Topology::build`] produces, in closed form
    /// (every family fixes its node count; only the edges are random), so
    /// callers that need just `n` skip the build.
    pub fn node_count(&self) -> usize {
        match self {
            Topology::Path { n }
            | Topology::Cycle { n }
            | Topology::Complete { n }
            | Topology::Star { n }
            | Topology::ErdosRenyi { n, .. }
            | Topology::DamagedClique { n, .. }
            | Topology::RandomRegular { n, .. } => *n,
            Topology::Grid { rows, cols } | Topology::Torus { rows, cols } => rows * cols,
            Topology::Hypercube { dim } => 1usize << dim,
            // 1 + a + a^2 + ... + a^depth
            Topology::BalancedTree { arity, depth } => {
                let mut count = 1usize;
                let mut level = 1usize;
                for _ in 0..*depth {
                    level *= arity;
                    count += level;
                }
                count
            }
            Topology::Caveman { clusters, clique } => clusters * clique,
        }
    }

    /// A short human-readable label used in experiment reports.
    pub fn label(&self) -> String {
        match self {
            Topology::Path { n } => format!("path-{n}"),
            Topology::Cycle { n } => format!("cycle-{n}"),
            Topology::Complete { n } => format!("complete-{n}"),
            Topology::Star { n } => format!("star-{n}"),
            Topology::Grid { rows, cols } => format!("grid-{rows}x{cols}"),
            Topology::Torus { rows, cols } => format!("torus-{rows}x{cols}"),
            Topology::Hypercube { dim } => format!("hypercube-{dim}"),
            Topology::BalancedTree { arity, depth } => format!("tree-{arity}ary-d{depth}"),
            Topology::ErdosRenyi { n, p } => format!("gnp-{n}-{p}"),
            Topology::DamagedClique { n, drop, .. } => format!("damaged-clique-{n}-{drop}"),
            Topology::Caveman { clusters, clique } => format!("caveman-{clusters}x{clique}"),
            Topology::RandomRegular { n, deg } => format!("regular{deg}-{n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_and_cycle_shapes() {
        let p = Topology::Path { n: 6 }.build_deterministic();
        assert_eq!(p.edge_count(), 5);
        assert_eq!(p.diameter(), 5);
        let c = Topology::Cycle { n: 6 }.build_deterministic();
        assert_eq!(c.edge_count(), 6);
        assert_eq!(c.diameter(), 3);
    }

    #[test]
    fn torus_is_regular_with_small_diameter() {
        let t = Topology::Torus { rows: 4, cols: 5 }.build_deterministic();
        assert_eq!(t.node_count(), 20);
        assert!(t.nodes().all(|v| t.degree(v) == 4));
        assert_eq!(t.diameter(), 4); // floor(4/2) + floor(5/2)
    }

    #[test]
    fn hypercube_properties() {
        let h = Topology::Hypercube { dim: 4 }.build_deterministic();
        assert_eq!(h.node_count(), 16);
        assert!(h.nodes().all(|v| h.degree(v) == 4));
        assert_eq!(h.diameter(), 4);
    }

    #[test]
    fn balanced_tree_counts_and_diameter() {
        let t = Topology::BalancedTree { arity: 2, depth: 3 }.build_deterministic();
        assert_eq!(t.node_count(), 15);
        assert_eq!(t.edge_count(), 14);
        assert_eq!(t.diameter(), 6);
        let single = Topology::BalancedTree { arity: 3, depth: 0 }.build_deterministic();
        assert_eq!(single.node_count(), 1);
    }

    #[test]
    fn erdos_renyi_is_connected() {
        let g = Topology::ErdosRenyi { n: 30, p: 0.2 }.build(11);
        assert!(g.is_connected());
        assert_eq!(g.node_count(), 30);
    }

    #[test]
    fn erdos_renyi_is_deterministic_given_seed() {
        let a = Topology::ErdosRenyi { n: 20, p: 0.3 }.build(5);
        let b = Topology::ErdosRenyi { n: 20, p: 0.3 }.build(5);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn damaged_clique_respects_diameter_bound() {
        let g = Topology::DamagedClique {
            n: 20,
            drop: 0.5,
            max_diameter: 3,
        }
        .build(3);
        assert!(g.is_connected());
        assert!(g.diameter() <= 3);
        assert!(g.edge_count() < 20 * 19 / 2);
    }

    #[test]
    fn caveman_is_connected() {
        let g = Topology::Caveman {
            clusters: 4,
            clique: 5,
        }
        .build_deterministic();
        assert_eq!(g.node_count(), 20);
        assert!(g.is_connected());
        let single = Topology::Caveman {
            clusters: 1,
            clique: 4,
        }
        .build_deterministic();
        assert_eq!(single.diameter(), 1);
        let two = Topology::Caveman {
            clusters: 2,
            clique: 3,
        }
        .build_deterministic();
        assert!(two.is_connected());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = vec![
            Topology::Path { n: 4 }.label(),
            Topology::Cycle { n: 4 }.label(),
            Topology::Complete { n: 4 }.label(),
            Topology::Star { n: 4 }.label(),
            Topology::Grid { rows: 2, cols: 2 }.label(),
        ];
        let unique: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }

    #[test]
    #[should_panic(expected = "requires a seed")]
    fn deterministic_build_rejects_random_families() {
        Topology::ErdosRenyi { n: 5, p: 0.5 }.build_deterministic();
    }

    #[test]
    fn random_regular_is_regular_connected_and_small_diameter() {
        for (n, deg, seed) in [(16usize, 3usize, 1u64), (64, 4, 2), (128, 3, 3)] {
            let g = Topology::RandomRegular { n, deg }.build(seed);
            assert_eq!(g.node_count(), n);
            assert!(g.nodes().all(|v| g.degree(v) == deg), "not {deg}-regular");
            assert!(g.is_connected());
            // expander-grade diameter: generous O(log n) bound
            assert!(
                g.diameter() <= 4 * n.ilog2() as usize,
                "diameter {} too large for an expander on {n} nodes",
                g.diameter()
            );
        }
    }

    #[test]
    fn random_regular_is_deterministic_given_seed() {
        let a = Topology::RandomRegular { n: 32, deg: 4 }.build(9);
        let b = Topology::RandomRegular { n: 32, deg: 4 }.build(9);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn node_count_matches_the_built_graph() {
        let deterministic = [
            Topology::Path { n: 7 },
            Topology::Cycle { n: 9 },
            Topology::Complete { n: 5 },
            Topology::Star { n: 6 },
            Topology::Grid { rows: 3, cols: 5 },
            Topology::Torus { rows: 4, cols: 3 },
            Topology::Hypercube { dim: 4 },
            Topology::BalancedTree { arity: 3, depth: 3 },
            Topology::BalancedTree { arity: 1, depth: 4 },
            Topology::Caveman {
                clusters: 4,
                clique: 3,
            },
        ];
        for t in &deterministic {
            assert_eq!(t.node_count(), t.build(0).node_count(), "{}", t.label());
        }
        let randomized = [
            Topology::ErdosRenyi { n: 12, p: 0.5 },
            Topology::DamagedClique {
                n: 10,
                drop: 0.2,
                max_diameter: 3,
            },
            Topology::RandomRegular { n: 20, deg: 3 },
        ];
        for t in &randomized {
            for seed in [1, 2] {
                assert_eq!(t.node_count(), t.build(seed).node_count(), "{}", t.label());
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn random_regular_rejects_odd_stub_count() {
        Topology::RandomRegular { n: 5, deg: 3 }.build(0);
    }
}

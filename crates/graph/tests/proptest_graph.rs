//! Property-based tests for the graph substrate.

use dppr_graph::generators::{
    barabasi_albert, erdos_renyi, rmat, undirected_to_directed, RmatParams,
};
use dppr_graph::{DynamicGraph, EdgeOp, EdgeUpdate, GraphStream, SlidingWindow};
use proptest::prelude::*;
use std::collections::HashSet;

fn update_script(n: u32, len: usize) -> impl Strategy<Value = Vec<EdgeUpdate>> {
    prop::collection::vec(
        (0..n, 0..n, prop::bool::ANY).prop_map(|(u, v, ins)| EdgeUpdate {
            src: u,
            dst: v,
            op: if ins { EdgeOp::Insert } else { EdgeOp::Delete },
        }),
        len,
    )
}

/// A reference graph implementation: a plain edge set.
#[derive(Default)]
struct ModelGraph {
    edges: HashSet<(u32, u32)>,
}

impl ModelGraph {
    fn apply(&mut self, upd: EdgeUpdate) -> bool {
        if upd.src == upd.dst {
            return false;
        }
        match upd.op {
            EdgeOp::Insert => self.edges.insert((upd.src, upd.dst)),
            EdgeOp::Delete => self.edges.remove(&(upd.src, upd.dst)),
        }
    }
}

proptest! {
    // Case count pinned (the stub runner is already seed-deterministic)
    // so tier-1 wall time is stable in CI.
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The dynamic graph behaves exactly like a set-of-edges model under
    /// arbitrary scripts.
    #[test]
    fn dynamic_graph_matches_set_model(script in update_script(24, 300)) {
        let mut g = DynamicGraph::new();
        let mut model = ModelGraph::default();
        for upd in script {
            let a = g.apply(upd);
            let b = model.apply(upd);
            prop_assert_eq!(a, b, "disagreement on {:?}", upd);
        }
        prop_assert_eq!(g.num_edges(), model.edges.len());
        let mut actual: Vec<_> = g.edges().collect();
        actual.sort_unstable();
        let mut expect: Vec<_> = model.edges.into_iter().collect();
        expect.sort_unstable();
        prop_assert_eq!(actual, expect);
        g.check_consistency().unwrap();
    }

    /// Degrees always equal adjacency lengths and sum to the edge count.
    #[test]
    fn degree_bookkeeping(script in update_script(16, 200)) {
        let mut g = DynamicGraph::new();
        for upd in script {
            g.apply(upd);
        }
        let out_sum: usize = (0..g.num_vertices() as u32).map(|v| g.out_degree(v)).sum();
        let in_sum: usize = (0..g.num_vertices() as u32).map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_sum, g.num_edges());
        prop_assert_eq!(in_sum, g.num_edges());
        for v in 0..g.num_vertices() as u32 {
            prop_assert_eq!(g.out_neighbors(v).len(), g.out_degree(v));
            prop_assert_eq!(g.in_neighbors(v).len(), g.in_degree(v));
        }
    }

    /// The in/out adjacency of every edge agrees (transpose symmetry).
    #[test]
    fn transpose_symmetry(script in update_script(16, 150)) {
        let mut g = DynamicGraph::new();
        for upd in script {
            g.apply(upd);
        }
        for (u, v) in g.edges() {
            prop_assert!(g.in_neighbors(v).contains(&u));
        }
        for v in 0..g.num_vertices() as u32 {
            for &u in g.in_neighbors(v) {
                prop_assert!(g.has_edge(u, v));
            }
        }
    }

    /// ER generators: requested size, simplicity, determinism, bounds.
    #[test]
    fn er_properties(n in 2u32..64, m in 0usize..400, seed in 0u64..1000) {
        let max = n as usize * (n as usize - 1);
        let edges = erdos_renyi(n, m, seed);
        prop_assert_eq!(edges.len(), m.min(max));
        let set: HashSet<_> = edges.iter().collect();
        prop_assert_eq!(set.len(), edges.len(), "duplicates");
        for &(u, v) in &edges {
            prop_assert!(u < n && v < n && u != v);
        }
        prop_assert_eq!(edges, erdos_renyi(n, m, seed));
    }

    /// BA generators: connectivity-ish (every vertex has degree ≥ m) and
    /// simplicity.
    #[test]
    fn ba_properties(n in 10u32..120, m in 1usize..5, seed in 0u64..100) {
        let edges = barabasi_albert(n, m, seed);
        let set: HashSet<_> = edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        prop_assert_eq!(set.len(), edges.len(), "parallel undirected edge");
        let g = DynamicGraph::from_edges(undirected_to_directed(&edges));
        for v in 0..n {
            prop_assert!(
                g.out_degree(v) >= m.min(n as usize - 1),
                "vertex {} degree {} < {}", v, g.out_degree(v), m
            );
        }
    }

    /// R-MAT: size, simplicity, vertex bounds, determinism.
    #[test]
    fn rmat_properties(scale in 3u32..10, m in 1usize..300, seed in 0u64..100) {
        let p = RmatParams::default();
        let edges = rmat(scale, m, p, seed);
        let n = 1u32 << scale;
        let set: HashSet<_> = edges.iter().collect();
        prop_assert_eq!(set.len(), edges.len());
        for &(u, v) in &edges {
            prop_assert!(u < n && v < n && u != v);
        }
        prop_assert_eq!(edges, rmat(scale, m, p, seed));
    }

    /// Sliding windows conserve edges: graph == window content after any
    /// number of slides, for both directed and undirected streams.
    #[test]
    fn window_conservation(
        n in 4u32..40,
        m in 20usize..200,
        k in 1usize..20,
        undirected in prop::bool::ANY,
        seed in 0u64..50,
    ) {
        let mut logical = erdos_renyi(n, m, seed);
        if undirected {
            // Undirected streams require logical edges to be distinct as
            // *unordered* pairs (see GraphStream docs).
            let mut seen = HashSet::new();
            logical.retain(|&(u, v)| seen.insert((u.min(v), u.max(v))));
        }
        let stream = if undirected {
            GraphStream::undirected(logical)
        } else {
            GraphStream::directed(logical)
        }
        .permuted(seed ^ 7);
        let mut w = SlidingWindow::new(stream, 0.3);
        let mut g = DynamicGraph::new();
        for upd in w.initial_updates() {
            g.apply(upd);
        }
        while let Some(batch) = w.slide(k) {
            for upd in batch {
                g.apply(upd);
            }
        }
        let mut have: Vec<_> = g.edges().collect();
        have.sort_unstable();
        let mut want: Vec<(u32, u32)> = Vec::new();
        for (u, v) in w.window_edges() {
            want.push((u, v));
            if undirected {
                want.push((v, u));
            }
        }
        want.sort_unstable();
        prop_assert_eq!(have, want);
    }
}

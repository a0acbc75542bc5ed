//! Equivalence suite for the adjacency-pool substrate.
//!
//! Drives a random insert/delete/query script, in batches, against a
//! [`DynamicGraph`] and checks it after every batch against a trivial
//! `HashSet<(u, v)>` model:
//! return values, edge set, degrees, neighbor multisets, `num_edges`,
//! `active_vertices`, `inv_dout == 1/dout` for every vertex, membership
//! queries over the full id square, and `check_consistency`.

use dppr_graph::{DynamicGraph, EdgeOp, EdgeUpdate, VertexId};
use proptest::prelude::*;
use std::collections::HashSet;

const N: u32 = 16;

fn update_script(n: u32, len: usize) -> impl Strategy<Value = Vec<EdgeUpdate>> {
    prop::collection::vec(
        (0..n, 0..n, prop::bool::weighted(0.7)).prop_map(|(u, v, ins)| EdgeUpdate {
            src: u,
            dst: v,
            op: if ins { EdgeOp::Insert } else { EdgeOp::Delete },
        }),
        len,
    )
}

/// The reference: a plain set of directed edges.
#[derive(Default)]
struct ModelGraph {
    edges: HashSet<(VertexId, VertexId)>,
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

    fn out_degree(&self, u: VertexId) -> usize {
        self.edges.iter().filter(|&&(a, _)| a == u).count()
    }

    fn in_degree(&self, v: VertexId) -> usize {
        self.edges.iter().filter(|&&(_, b)| b == v).count()
    }

    fn active_vertices(&self) -> usize {
        let mut touched: HashSet<VertexId> = HashSet::new();
        for &(u, v) in &self.edges {
            touched.insert(u);
            touched.insert(v);
        }
        touched.len()
    }
}

/// Full cross-check of one graph against the model.
fn assert_matches_model(g: &DynamicGraph, model: &ModelGraph) -> Result<(), TestCaseError> {
    g.check_consistency().map_err(TestCaseError::fail)?;
    prop_assert_eq!(g.num_edges(), model.edges.len());
    prop_assert_eq!(g.active_vertices(), model.active_vertices());

    let mut actual: Vec<_> = g.edges().collect();
    actual.sort_unstable();
    let mut expect: Vec<_> = model.edges.iter().copied().collect();
    expect.sort_unstable();
    prop_assert_eq!(actual, expect);

    // Query every pair in the id square (ids beyond the allocated vertex
    // set included), plus per-vertex degree and reciprocal bookkeeping.
    for u in 0..N + 2 {
        for v in 0..N + 2 {
            prop_assert_eq!(
                g.has_edge(u, v),
                model.edges.contains(&(u, v)),
                "membership of ({}, {})",
                u,
                v
            );
        }
        let dout = model.out_degree(u);
        prop_assert_eq!(g.out_degree(u), dout);
        prop_assert_eq!(g.in_degree(u), model.in_degree(u));
        let inv = if dout == 0 { 0.0 } else { 1.0 / dout as f64 };
        // Exact bit equality: inv_dout is defined as literally 1.0/dout.
        prop_assert_eq!(g.inv_out_degree(u), inv, "inv_dout at {}", u);

        // Neighbor multisets (the graphs are simple, so sorted vectors).
        let mut outs = g.out_neighbors(u).to_vec();
        outs.sort_unstable();
        let mut want_outs: Vec<VertexId> =
            model.edges.iter().filter(|&&(a, _)| a == u).map(|&(_, b)| b).collect();
        want_outs.sort_unstable();
        prop_assert_eq!(outs, want_outs, "out-neighbors of {}", u);

        let mut ins = g.in_neighbors(u).to_vec();
        ins.sort_unstable();
        let mut want_ins: Vec<VertexId> =
            model.edges.iter().filter(|&&(_, b)| b == u).map(|&(a, _)| a).collect();
        want_ins.sort_unstable();
        prop_assert_eq!(ins, want_ins, "in-neighbors of {}", u);
    }
    Ok(())
}

proptest! {
    // Case count pinned (the stub runner is already seed-deterministic)
    // so tier-1 wall time is stable in CI.
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The store behaves exactly like the set model under arbitrary
    /// batched scripts.
    #[test]
    fn pool_store_matches_set_model(script in update_script(N, 240)) {
        let mut g = DynamicGraph::new();
        let mut model = ModelGraph::default();
        for batch in script.chunks(24) {
            for &upd in batch {
                let want = model.apply(upd);
                prop_assert_eq!(g.apply(upd), want, "return value on {:?}", upd);
            }
            assert_matches_model(&g, &model)?;
        }
    }

    /// `top_out_degree_vertices` (select_nth path) agrees with a naive
    /// full sort for every k, including k = 0, ties, and k > n.
    #[test]
    fn top_out_degree_matches_naive_sort(
        script in update_script(N, 120),
        k in 0usize..20,
    ) {
        let mut g = DynamicGraph::new();
        for upd in script {
            g.apply(upd);
        }
        let mut ids: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        ids.sort_by(|&a, &b| {
            g.out_degree(b).cmp(&g.out_degree(a)).then(a.cmp(&b))
        });
        ids.truncate(k);
        prop_assert_eq!(g.top_out_degree_vertices(k), ids);
    }

    /// Interleaved growth forces span relocation and arena compaction;
    /// aggregates and adjacency must survive both.
    #[test]
    fn relocation_stress_preserves_equivalence(
        seed in 0u64..500,
        rounds in 8usize..40,
    ) {
        let mut g = DynamicGraph::new();
        let mut model = ModelGraph::default();
        let n = 24u32;
        let mut x = seed;
        for _ in 0..rounds {
            for u in 0..n {
                // xorshift-ish deterministic churn
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = (x % n as u64) as u32;
                let del = x % 11 == 0;
                let upd = if del {
                    EdgeUpdate::delete(u, v)
                } else {
                    EdgeUpdate::insert(u, v)
                };
                prop_assert_eq!(g.apply(upd), model.apply(upd));
            }
        }
        g.check_consistency().map_err(TestCaseError::fail)?;
        prop_assert_eq!(g.num_edges(), model.edges.len());
        prop_assert_eq!(g.active_vertices(), model.active_vertices());
        for u in 0..n {
            let dout = model.out_degree(u);
            prop_assert_eq!(g.out_degree(u), dout);
            let inv = if dout == 0 { 0.0 } else { 1.0 / dout as f64 };
            prop_assert_eq!(g.inv_out_degree(u), inv);
        }
    }
}

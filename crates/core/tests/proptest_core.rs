//! Property-based tests for the core algorithmic building blocks.

use dppr_core::invariant::{absorb_batch, max_invariant_violation, Repairs};
use dppr_core::par::{parallel_local_push, parallel_push_lockstep, ParPushBuffers};
use dppr_core::queries::top_k_of;
use dppr_core::seq::{sequential_local_push, sequential_push_lockstep, SeqPushBuffers};
use dppr_core::{exact_ppr, AtomicF64, Counters, Phase, PprConfig, PprState, PushVariant};
use dppr_graph::{DynamicGraph, EdgeOp, EdgeUpdate};
use proptest::prelude::*;

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

proptest! {
    // Case count pinned (the stub runner is already seed-deterministic)
    // so tier-1 wall time is stable in CI.
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// `RestoreInvariant` alone (no pushes) keeps Eq. 2 exactly satisfied
    /// after a batch of updates replayed against the final graph, for any α.
    #[test]
    fn restore_keeps_invariant(
        script in update_script(20, 150),
        alpha in 0.05f64..0.95,
    ) {
        let cfg = PprConfig::new(0, alpha, 0.1);
        let mut st = PprState::new(cfg);
        let mut g = DynamicGraph::new();
        let c = Counters::new();
        absorb_batch(&mut g, &mut st, &script, &c, &mut Repairs::default());
        prop_assert!(max_invariant_violation(&g, &st) < 1e-9);
    }

    /// The sequential push preserves the invariant and drains residuals.
    #[test]
    fn seq_push_invariant_and_convergence(
        script in update_script(20, 120),
        eps_exp in 1u32..5,
    ) {
        let eps = 10f64.powi(-(eps_exp as i32));
        let cfg = PprConfig::new(0, 0.2, eps);
        let mut st = PprState::new(cfg);
        let mut g = DynamicGraph::new();
        let c = Counters::new();
        let mut r = Repairs::default();
        let seeds = absorb_batch(&mut g, &mut st, &script, &c, &mut r);
        let mut bufs = SeqPushBuffers::new();
        sequential_local_push(&g, &st, seeds, &c, &mut bufs);
        prop_assert!(st.converged());
        prop_assert!(max_invariant_violation(&g, &st) < 1e-9);
    }

    /// Any parallel variant started from any restored state converges with
    /// the invariant intact and matches ground truth within ε.
    #[test]
    fn parallel_push_correct(
        script in update_script(18, 100),
        variant_idx in 0usize..4,
    ) {
        let variant = PushVariant::ALL[variant_idx];
        let eps = 1e-3;
        let cfg = PprConfig::new(1, 0.25, eps);
        let mut st = PprState::new(cfg);
        let mut g = DynamicGraph::new();
        let c = Counters::new();
        let mut r = Repairs::default();
        let seeds = absorb_batch(&mut g, &mut st, &script, &c, &mut r);
        let mut bufs = ParPushBuffers::new();
        parallel_local_push(&g, &st, variant, seeds, &c, &mut bufs);
        prop_assert!(st.converged());
        prop_assert!(max_invariant_violation(&g, &st) < 1e-9);
        let truth = exact_ppr(&g, 1, 0.25, 1e-12);
        for (v, &t) in truth.iter().enumerate() {
            prop_assert!((st.p(v as u32) - t).abs() <= eps + 1e-9);
        }
    }

    /// The two lock-step schedules (Lemma 4's comparators) both converge
    /// to ε-equivalent states and the parallel one never does fewer
    /// pushes.
    #[test]
    fn lockstep_pair_properties(script in update_script(16, 80)) {
        let eps = 1e-4;
        let cfg = PprConfig::new(0, 0.3, eps);
        let build = || {
            let mut st = PprState::new(cfg);
            let mut g = DynamicGraph::new();
            let mut r = Repairs::default();
            absorb_batch(&mut g, &mut st, &script, &Counters::new(), &mut r);
            (g, st, r)
        };
        let (g, stp, rp) = build();
        let tp = parallel_push_lockstep(&g, &stp, &rp.seeds);
        let (g2, stq, rq) = build();
        let tq = sequential_push_lockstep(&g2, &stq, &rq.seeds);
        prop_assert!(stp.converged());
        prop_assert!(stq.converged());
        prop_assert!(tp.pushes >= tq.pushes || tp.pushes + 4 >= tq.pushes,
            "parallel {} vs sequential {}", tp.pushes, tq.pushes);
        for v in 0..g.num_vertices() as u32 {
            prop_assert!((stp.p(v) - stq.p(v)).abs() <= 2.0 * eps + 1e-12);
        }
    }

    /// Atomic adds with distinct before-values: the crossing of any fixed
    /// threshold is observed exactly once per monotone sequence.
    #[test]
    fn crossing_observed_exactly_once(
        increments in prop::collection::vec(1e-6f64..1e-2, 1..200),
        eps in 1e-4f64..1e-1,
    ) {
        let r = AtomicF64::new(0.0);
        let mut crossings = 0;
        for &inc in &increments {
            let pre = r.fetch_add(inc);
            if Phase::Pos.crossed(pre, pre + inc, eps) {
                crossings += 1;
            }
        }
        let total: f64 = increments.iter().sum();
        prop_assert_eq!(crossings, usize::from(total > eps));
    }

    /// `top_k_of` agrees with a full sort for every k.
    #[test]
    fn top_k_matches_sort(scores in prop::collection::vec(0.0f64..1.0, 0..64), k in 0usize..70) {
        let got = top_k_of(&scores, k);
        let mut all: Vec<(u32, f64)> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u32, s))
            .collect();
        all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        all.truncate(k);
        prop_assert_eq!(got, all);
    }

    /// Ground truth sanity: the Jacobi solution satisfies its own
    /// fix-point equation to solver tolerance.
    #[test]
    fn ground_truth_is_fixpoint(script in update_script(14, 60), alpha in 0.1f64..0.9) {
        let mut g = DynamicGraph::new();
        for upd in script {
            g.apply(upd);
        }
        let p = exact_ppr(&g, 0, alpha, 1e-12);
        for v in 0..g.num_vertices() {
            let teleport = if v == 0 { alpha } else { 0.0 };
            let expect = if g.out_degree(v as u32) > 0 {
                let sum: f64 = g.out_neighbors(v as u32).iter().map(|&x| p[x as usize]).sum();
                teleport + (1.0 - alpha) * sum / g.out_degree(v as u32) as f64
            } else {
                teleport
            };
            prop_assert!((p[v] - expect).abs() < 1e-9, "vertex {} off by {}", v, (p[v]-expect).abs());
        }
    }

    /// Deleting everything returns the state to the empty-graph solution.
    #[test]
    fn teardown_returns_to_alpha_es(edges in prop::collection::hash_set((0u32..12, 0u32..12), 1..40)) {
        let edges: Vec<(u32, u32)> = edges.into_iter().filter(|&(u, v)| u != v).collect();
        let cfg = PprConfig::new(0, 0.3, 1e-3);
        let mut st = PprState::new(cfg);
        let mut g = DynamicGraph::new();
        let c = Counters::new();
        let inserts: Vec<EdgeUpdate> =
            edges.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect();
        let mut r = Repairs::default();
        let seeds = absorb_batch(&mut g, &mut st, &inserts, &c, &mut r);
        let mut bufs = ParPushBuffers::new();
        parallel_local_push(&g, &st, PushVariant::OPT, seeds, &c, &mut bufs);
        let deletes: Vec<EdgeUpdate> =
            edges.iter().map(|&(u, v)| EdgeUpdate::delete(u, v)).collect();
        let seeds = absorb_batch(&mut g, &mut st, &deletes, &c, &mut r);
        parallel_local_push(&g, &st, PushVariant::OPT, seeds, &c, &mut bufs);
        prop_assert_eq!(g.num_edges(), 0);
        prop_assert!((st.p(0) - 0.3).abs() <= 1e-3 + 1e-9);
        for v in 1..st.len() as u32 {
            prop_assert!(st.p(v).abs() <= 1e-3 + 1e-9);
        }
    }
}

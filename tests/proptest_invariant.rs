//! Property-based tests over random graphs and update scripts.

use dppr::core::{
    exact_ppr, max_invariant_violation, DynamicPprEngine, ParallelEngine, PprConfig, PushVariant,
    SeqEngine, UpdateMode,
};
use dppr::graph::{DynamicGraph, EdgeOp, EdgeUpdate};
use proptest::prelude::*;

/// Strategy: a script of updates over a small vertex universe, chunked
/// into batches.
fn update_script(n: u32, len: usize) -> impl Strategy<Value = Vec<EdgeUpdate>> {
    prop::collection::vec(
        (0..n, 0..n, prop::bool::weighted(0.75)).prop_map(|(u, v, ins)| EdgeUpdate {
            src: u,
            dst: v,
            op: if ins { EdgeOp::Insert } else { EdgeOp::Delete },
        }),
        len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Eq. 2 holds and estimates are ε-accurate after any update script,
    /// for the optimized parallel engine.
    #[test]
    fn parallel_opt_invariant_and_accuracy(
        script in update_script(24, 200),
        batch_size in 1usize..40,
        alpha in 0.05f64..0.9,
    ) {
        let cfg = PprConfig::new(0, alpha, 1e-3);
        let mut engine = ParallelEngine::new(cfg, PushVariant::OPT);
        let mut g = DynamicGraph::new();
        for chunk in script.chunks(batch_size) {
            engine.apply_batch(&mut g, chunk);
        }
        prop_assert!(max_invariant_violation(&g, engine.state()) < 1e-8);
        prop_assert!(engine.state().converged());
        let truth = exact_ppr(&g, 0, alpha, 1e-12);
        for (v, &t) in truth.iter().enumerate() {
            prop_assert!((engine.estimate(v as u32) - t).abs() <= 1e-3 + 1e-9);
        }
    }

    /// All four parallel variants and the sequential engine land within 2ε
    /// of each other on the same script.
    #[test]
    fn variants_agree(script in update_script(20, 120), batch_size in 1usize..30) {
        let cfg = PprConfig::new(1, 0.2, 1e-3);
        let mut reference = SeqEngine::new(cfg, UpdateMode::Batched);
        let mut g0 = DynamicGraph::new();
        for chunk in script.chunks(batch_size) {
            reference.apply_batch(&mut g0, chunk);
        }
        for variant in PushVariant::ALL {
            let mut engine = ParallelEngine::new(cfg, variant);
            let mut g = DynamicGraph::new();
            for chunk in script.chunks(batch_size) {
                engine.apply_batch(&mut g, chunk);
            }
            prop_assert_eq!(g.num_edges(), g0.num_edges());
            for v in 0..g.num_vertices().max(g0.num_vertices()) as u32 {
                prop_assert!(
                    (engine.estimate(v) - reference.estimate(v)).abs() <= 2e-3 + 1e-9,
                    "{} vs sequential at {}", variant, v
                );
            }
        }
    }

    /// Batching granularity never changes the answer beyond 2ε: applying
    /// the script one-update-at-a-time vs one big batch.
    #[test]
    fn batching_is_semantically_transparent(script in update_script(16, 80)) {
        let cfg = PprConfig::new(0, 0.25, 1e-3);
        let mut one = ParallelEngine::new(cfg, PushVariant::OPT);
        let mut g1 = DynamicGraph::new();
        for upd in &script {
            one.apply_batch(&mut g1, std::slice::from_ref(upd));
        }
        let mut all = ParallelEngine::new(cfg, PushVariant::OPT);
        let mut g2 = DynamicGraph::new();
        all.apply_batch(&mut g2, &script);
        prop_assert_eq!(g1.num_edges(), g2.num_edges());
        for v in 0..g1.num_vertices().max(g2.num_vertices()) as u32 {
            prop_assert!((one.estimate(v) - all.estimate(v)).abs() <= 2e-3 + 1e-9);
        }
    }

    /// Estimates are always valid probabilities-ish: within [−ε, 1+ε].
    #[test]
    fn estimates_bounded(script in update_script(16, 100)) {
        let cfg = PprConfig::new(2, 0.15, 1e-3);
        let mut engine = ParallelEngine::new(cfg, PushVariant::OPT);
        let mut g = DynamicGraph::new();
        engine.apply_batch(&mut g, &script);
        for v in 0..g.num_vertices() as u32 {
            let p = engine.estimate(v);
            prop_assert!((-1e-3 - 1e-9..=1.0 + 1e-3 + 1e-9).contains(&p), "p({})={}", v, p);
        }
    }
}

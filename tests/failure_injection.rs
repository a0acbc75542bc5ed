//! Pathological-batch robustness: the engines must stay correct (invariant
//! + ε-accuracy) through degenerate update patterns a stream can produce.

use dppr::core::{
    exact_ppr, max_invariant_violation, DynamicPprEngine, ParallelEngine, PprConfig, PushVariant,
    SeqEngine, UpdateMode,
};
use dppr::graph::{DynamicGraph, EdgeUpdate};

const EPS: f64 = 1e-3;

fn check_accurate(engine: &dyn DynamicPprEngine, g: &DynamicGraph) {
    let cfg = *engine.config();
    let truth = exact_ppr(g, cfg.source, cfg.alpha, 1e-13);
    for v in 0..g.num_vertices().max(truth.len()) as u32 {
        let t = truth.get(v as usize).copied().unwrap_or(0.0);
        assert!(
            (engine.estimate(v) - t).abs() <= cfg.epsilon + 1e-10,
            "{}: vertex {v}",
            engine.name()
        );
    }
}

fn engines() -> Vec<Box<dyn DynamicPprEngine>> {
    let cfg = PprConfig::new(0, 0.2, EPS);
    vec![
        Box::new(SeqEngine::new(cfg, UpdateMode::PerUpdate)),
        Box::new(SeqEngine::new(cfg, UpdateMode::Batched)),
        Box::new(ParallelEngine::new(cfg, PushVariant::OPT)),
        Box::new(ParallelEngine::new(cfg, PushVariant::VANILLA)),
    ]
}

#[test]
fn batch_full_of_noops() {
    for mut e in engines() {
        let mut g = DynamicGraph::new();
        e.apply_batch(&mut g, &[EdgeUpdate::insert(0, 1), EdgeUpdate::insert(1, 0)]);
        let stats = e.apply_batch(
            &mut g,
            &[
                EdgeUpdate::insert(0, 1), // duplicate
                EdgeUpdate::insert(2, 2), // self-loop
                EdgeUpdate::delete(5, 9), // absent
                EdgeUpdate::delete(1, 2), // absent
            ],
        );
        assert_eq!(stats.applied, 0, "{}", e.name());
        assert_eq!(g.num_edges(), 2);
        check_accurate(e.as_ref(), &g);
    }
}

#[test]
fn insert_then_delete_same_edge_in_one_batch() {
    for mut e in engines() {
        let mut g = DynamicGraph::new();
        e.apply_batch(&mut g, &[EdgeUpdate::insert(0, 1), EdgeUpdate::insert(1, 0)]);
        let stats = e.apply_batch(
            &mut g,
            &[EdgeUpdate::insert(0, 2), EdgeUpdate::delete(0, 2), EdgeUpdate::insert(0, 2)],
        );
        assert_eq!(stats.applied, 3, "{}", e.name());
        assert!(g.has_edge(0, 2));
        check_accurate(e.as_ref(), &g);
    }
}

#[test]
fn source_loses_all_out_edges() {
    for mut e in engines() {
        let mut g = DynamicGraph::new();
        e.apply_batch(
            &mut g,
            &[
                EdgeUpdate::insert(0, 1),
                EdgeUpdate::insert(0, 2),
                EdgeUpdate::insert(1, 0),
                EdgeUpdate::insert(2, 1),
            ],
        );
        e.apply_batch(&mut g, &[EdgeUpdate::delete(0, 1), EdgeUpdate::delete(0, 2)]);
        assert_eq!(g.out_degree(0), 0);
        check_accurate(e.as_ref(), &g);
    }
}

#[test]
fn every_vertex_loses_last_out_edge() {
    // Tear the whole graph down to emptiness; estimates must return to the
    // empty-graph solution α·e_s.
    for mut e in engines() {
        let mut g = DynamicGraph::new();
        let edges = [(0u32, 1u32), (1, 2), (2, 0)];
        let ins: Vec<EdgeUpdate> = edges.iter().map(|&(u, v)| EdgeUpdate::insert(u, v)).collect();
        e.apply_batch(&mut g, &ins);
        let del: Vec<EdgeUpdate> = edges.iter().map(|&(u, v)| EdgeUpdate::delete(u, v)).collect();
        e.apply_batch(&mut g, &del);
        assert_eq!(g.num_edges(), 0);
        let cfg = *e.config();
        assert!((e.estimate(0) - cfg.alpha).abs() <= cfg.epsilon + 1e-10);
        assert!(e.estimate(1).abs() <= cfg.epsilon + 1e-10);
        assert!(e.estimate(2).abs() <= cfg.epsilon + 1e-10);
    }
}

#[test]
fn batch_of_deletions_only() {
    for mut e in engines() {
        let mut g = DynamicGraph::new();
        let mut ins = Vec::new();
        for u in 0..10u32 {
            for v in 0..10u32 {
                if u != v {
                    ins.push(EdgeUpdate::insert(u, v));
                }
            }
        }
        e.apply_batch(&mut g, &ins);
        let del: Vec<EdgeUpdate> =
            (1..10u32).flat_map(|u| (0..u).map(move |v| EdgeUpdate::delete(u, v))).collect();
        e.apply_batch(&mut g, &del);
        check_accurate(e.as_ref(), &g);
    }
}

#[test]
fn alternating_insert_delete_churn() {
    for mut e in engines() {
        let mut g = DynamicGraph::new();
        e.apply_batch(&mut g, &[EdgeUpdate::insert(0, 1), EdgeUpdate::insert(1, 0)]);
        for round in 0..20 {
            let upd =
                if round % 2 == 0 { EdgeUpdate::insert(0, 2) } else { EdgeUpdate::delete(0, 2) };
            e.apply_batch(&mut g, &[upd]);
        }
        check_accurate(e.as_ref(), &g);
    }
}

#[test]
fn empty_batch_is_free() {
    for mut e in engines() {
        let mut g = DynamicGraph::new();
        e.apply_batch(&mut g, &[EdgeUpdate::insert(0, 1), EdgeUpdate::insert(1, 0)]);
        let stats = e.apply_batch(&mut g, &[]);
        assert_eq!(stats.applied, 0);
        assert_eq!(stats.counters.pushes, 0);
        check_accurate(e.as_ref(), &g);
    }
}

#[test]
fn parallel_state_survives_invariant_audit_through_churn() {
    let cfg = PprConfig::new(0, 0.2, EPS);
    let mut e = ParallelEngine::new(cfg, PushVariant::OPT);
    let mut g = DynamicGraph::new();
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(123);
    for _ in 0..30 {
        let batch: Vec<EdgeUpdate> = (0..25)
            .map(|_| {
                let u = rng.gen_range(0..30u32);
                let v = rng.gen_range(0..30u32);
                if rng.gen_bool(0.6) {
                    EdgeUpdate::insert(u, v)
                } else {
                    EdgeUpdate::delete(u, v)
                }
            })
            .collect();
        e.apply_batch(&mut g, &batch);
        assert!(max_invariant_violation(&g, e.state()) < 1e-9);
        assert!(e.state().converged());
    }
    check_accurate(&e, &g);
}

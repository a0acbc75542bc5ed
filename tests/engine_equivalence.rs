//! Cross-engine equivalence over full sliding-window runs: every
//! local-update engine (sequential, all four parallel variants, Ligra)
//! must maintain an ε-accurate estimate of the same exact vector, hence
//! pairwise within 2ε.

use dppr::core::{
    exact_ppr, max_invariant_violation, DynamicPprEngine, ParallelEngine, PprConfig, PushVariant,
    SeqEngine, UpdateMode,
};
use dppr::graph::generators::{barabasi_albert, undirected_to_directed};
use dppr::graph::GraphStream;
use dppr::stream::StreamDriver;
use dppr::vc::LigraEngine;

const EPS: f64 = 1e-4;

fn stream() -> GraphStream {
    let edges = undirected_to_directed(&barabasi_albert(400, 4, 31));
    GraphStream::directed(edges).permuted(5)
}

fn run(engine: &mut dyn DynamicPprEngine) -> (Vec<f64>, dppr::graph::DynamicGraph) {
    let mut driver = StreamDriver::new(stream(), 0.1);
    driver.bootstrap(engine);
    let summary = driver.run_slides(engine, 100, 12);
    assert_eq!(summary.slides, 12);
    (engine.estimates(), driver.graph().clone())
}

#[test]
fn all_engines_agree_and_match_ground_truth() {
    let cfg = PprConfig::new(0, 0.15, EPS);
    let mut engines: Vec<Box<dyn DynamicPprEngine>> = vec![
        Box::new(SeqEngine::new(cfg, UpdateMode::Batched)),
        Box::new(ParallelEngine::new(cfg, PushVariant::OPT)),
        Box::new(ParallelEngine::new(cfg, PushVariant::EAGER)),
        Box::new(ParallelEngine::new(cfg, PushVariant::DUP_DETECT)),
        Box::new(ParallelEngine::new(cfg, PushVariant::VANILLA)),
        Box::new(LigraEngine::new(cfg)),
    ];
    let mut results = Vec::new();
    for engine in &mut engines {
        let name = engine.name();
        let (est, graph) = run(engine.as_mut());
        results.push((name, est, graph));
    }

    // Every engine saw the same stream, so the final graphs coincide.
    let (_, ref_est, ref_graph) = &results[0];
    let truth = exact_ppr(ref_graph, 0, 0.15, 1e-13);
    for (name, est, graph) in &results {
        assert_eq!(graph.num_edges(), ref_graph.num_edges(), "{name} diverged in graph state");
        for (v, &t) in truth.iter().enumerate() {
            let e = est.get(v).copied().unwrap_or(0.0);
            assert!((e - t).abs() <= EPS + 1e-10, "{name}: vertex {v} err {} > ε", (e - t).abs());
            assert!(
                (e - ref_est.get(v).copied().unwrap_or(0.0)).abs() <= 2.0 * EPS + 1e-10,
                "{name}: vertex {v} disagrees with reference beyond 2ε"
            );
        }
    }
}

#[test]
fn parallel_engine_state_passes_invariant_check_after_every_slide() {
    let cfg = PprConfig::new(3, 0.15, EPS);
    let mut engine = ParallelEngine::new(cfg, PushVariant::OPT);
    let mut driver = StreamDriver::new(stream(), 0.1);
    driver.bootstrap(&mut engine);
    for _ in 0..10 {
        let summary = driver.run_slides(&mut engine, 50, 1);
        if summary.slides == 0 {
            break;
        }
        assert!(max_invariant_violation(driver.graph(), engine.state()) < 1e-9);
        assert!(engine.state().converged());
    }
}

#[test]
fn dedicated_pools_match_global_pool() {
    let cfg = PprConfig::new(0, 0.15, EPS);
    let mut a = ParallelEngine::new(cfg, PushVariant::OPT);
    let mut b = ParallelEngine::with_threads(cfg, PushVariant::OPT, 3);
    let (ea, _) = run(&mut a);
    let (eb, _) = run(&mut b);
    for v in 0..ea.len().max(eb.len()) {
        let x = ea.get(v).copied().unwrap_or(0.0);
        let y = eb.get(v).copied().unwrap_or(0.0);
        assert!((x - y).abs() <= 2.0 * EPS + 1e-10, "vertex {v}");
    }
}

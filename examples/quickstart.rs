//! Quickstart: maintain a Personalized PageRank vector over a stream of
//! edge updates, and verify the ε-guarantee against an exact solver.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dppr::core::{exact_ppr, DynamicPprEngine, ParallelEngine, PprConfig, PushVariant};
use dppr::graph::generators::{barabasi_albert, undirected_to_directed};
use dppr::graph::{DynamicGraph, EdgeUpdate, GraphStream, SlidingWindow};

fn main() {
    // A small scale-free social graph, streamed under the random edge
    // permutation model with a 10% initial window. DPPR_EXAMPLE_N shrinks
    // the graph (the CI smoke test runs with a tiny one).
    let n: u32 = match std::env::var("DPPR_EXAMPLE_N") {
        Ok(s) => s.parse().expect("DPPR_EXAMPLE_N must be a vertex count"),
        Err(_) => 2_000,
    };
    let edges = undirected_to_directed(&barabasi_albert(n, 4, 7));
    let stream = GraphStream::directed(edges).permuted(42);
    let mut window = SlidingWindow::new(stream, 0.1);

    // Maintain PPR w.r.t. vertex 0 with the fully-optimized parallel push.
    let source = 0;
    let cfg = PprConfig::new(source, 0.15, 1e-5);
    let mut engine = ParallelEngine::new(cfg, PushVariant::OPT);
    let mut graph = DynamicGraph::new();

    // Bootstrap: the initial window is just a big insertion batch.
    let init: Vec<EdgeUpdate> = window.initial_updates();
    let stats = engine.apply_batch(&mut graph, &init);
    println!(
        "bootstrap: {} arcs in {:.2?} ({} pushes)",
        stats.applied, stats.latency, stats.counters.pushes
    );

    // Stream: slide the window 20 times, 100 logical edges per slide.
    for slide in 1..=20 {
        let Some(batch) = window.slide(100) else { break };
        let stats = engine.apply_batch(&mut graph, &batch);
        if slide % 5 == 0 {
            println!(
                "slide {slide:>3}: {} updates in {:.2?} ({} pushes, {} iterations)",
                batch.len(),
                stats.latency,
                stats.counters.pushes,
                stats.counters.iterations
            );
        }
    }

    // The maintained estimates are ε-accurate — prove it.
    let truth = exact_ppr(&graph, source, cfg.alpha, 1e-12);
    let max_err = (0..graph.num_vertices() as u32)
        .map(|v| (engine.estimate(v) - truth[v as usize]).abs())
        .fold(0.0f64, f64::max);
    println!("max |estimate − exact| = {max_err:.2e} (ε = {:.0e})", cfg.epsilon);
    assert!(max_err <= cfg.epsilon);

    // Top-5 vertices by PPR w.r.t. the source.
    let mut top: Vec<(u32, f64)> =
        (0..graph.num_vertices() as u32).map(|v| (v, engine.estimate(v))).collect();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("top-5 by PPR w.r.t. {source}:");
    for (v, p) in top.into_iter().take(5) {
        println!("  vertex {v:>5}  ppr {p:.6}");
    }
}

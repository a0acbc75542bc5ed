//! Incremental maintenance must equal from-scratch computation: after any
//! number of slides, the maintained estimate and a fresh engine fed the
//! final window as one batch are both ε-close to the same exact vector.

use dppr::core::{exact_ppr, DynamicPprEngine, ParallelEngine, PprConfig, PushVariant};
use dppr::graph::presets;
use dppr::graph::{DynamicGraph, EdgeUpdate};
use dppr::stream::{pick_top_degree_source, StreamDriver};

#[test]
fn dynamic_equals_scratch_on_directed_stream() {
    let ds = presets::toy();
    let eps = 1e-4;

    // Incremental run.
    let mut driver = StreamDriver::new(ds.stream(9), 0.2);
    // Source choice requires the warmed window.
    let probe = dppr::graph::SlidingWindow::new(ds.stream(9), 0.2).to_graph();
    let source = pick_top_degree_source(&probe, 5, 3);
    let cfg = PprConfig::new(source, 0.15, eps);
    let mut dynamic = ParallelEngine::new(cfg, PushVariant::OPT);
    driver.bootstrap(&mut dynamic);
    driver.run_slides(&mut dynamic, 20, 15);

    // From-scratch run on the final window content.
    let mut scratch = ParallelEngine::new(cfg, PushVariant::OPT);
    let mut g2 = DynamicGraph::new();
    let batch: Vec<EdgeUpdate> =
        driver.window().window_edges().map(|(u, v)| EdgeUpdate::insert(u, v)).collect();
    scratch.apply_batch(&mut g2, &batch);

    assert_eq!(driver.graph().num_edges(), g2.num_edges());
    let truth = exact_ppr(driver.graph(), source, 0.15, 1e-13);
    let n = driver.graph().num_vertices().max(g2.num_vertices());
    for v in 0..n as u32 {
        let t = truth.get(v as usize).copied().unwrap_or(0.0);
        assert!((dynamic.estimate(v) - t).abs() <= eps + 1e-10, "dynamic err at {v}");
        assert!((scratch.estimate(v) - t).abs() <= eps + 1e-10, "scratch err at {v}");
    }
}

#[test]
fn dynamic_equals_scratch_on_undirected_stream() {
    let ds = presets::small_sim(); // undirected preset
    let eps = 1e-4;
    let probe = dppr::graph::SlidingWindow::new(ds.stream(4), 0.1).to_graph();
    let source = pick_top_degree_source(&probe, 10, 8);
    let cfg = PprConfig::new(source, 0.15, eps);

    let mut driver = StreamDriver::new(ds.stream(4), 0.1);
    let mut dynamic = ParallelEngine::new(cfg, PushVariant::OPT);
    driver.bootstrap(&mut dynamic);
    driver.run_slides(&mut dynamic, 100, 8);

    // Window edges expand to both arcs in the rebuilt batch.
    let mut scratch = ParallelEngine::new(cfg, PushVariant::OPT);
    let mut g2 = DynamicGraph::new();
    let mut batch = Vec::new();
    for (u, v) in driver.window().window_edges() {
        batch.push(EdgeUpdate::insert(u, v));
        batch.push(EdgeUpdate::insert(v, u));
    }
    scratch.apply_batch(&mut g2, &batch);

    assert_eq!(driver.graph().num_edges(), g2.num_edges());
    let truth = exact_ppr(driver.graph(), source, 0.15, 1e-13);
    for (v, &t) in truth.iter().enumerate() {
        assert!((dynamic.estimate(v as u32) - t).abs() <= eps + 1e-10);
        assert!((scratch.estimate(v as u32) - t).abs() <= eps + 1e-10);
    }
}

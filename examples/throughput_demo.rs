//! Engine face-off on one live sliding window — a miniature of the paper's
//! Figure 5 (stream throughput across engines).
//!
//! ```text
//! cargo run --release --example throughput_demo
//! ```

use dppr::core::{
    DynamicPprEngine, ParallelEngine, PprConfig, PushVariant, SeqEngine, UpdateMode,
};
use dppr::graph::presets;
use dppr::mc::MonteCarloEngine;
use dppr::stream::{pick_top_degree_source, StreamDriver};
use dppr::vc::LigraEngine;

fn main() {
    let dataset = presets::small_sim();
    let seed = 11u64;
    let epsilon = dataset.default_epsilon;
    let batch = 200usize;
    let slides = 15usize;

    // Choose a hub source from the initial window, like the paper.
    let mut probe = dppr::graph::DynamicGraph::new();
    {
        let window = dppr::graph::SlidingWindow::new(dataset.stream(seed), 0.1);
        for upd in window.initial_updates() {
            probe.apply(upd);
        }
    }
    let source = pick_top_degree_source(&probe, 10, seed);
    let cfg = PprConfig::new(source, 0.15, epsilon);
    println!(
        "dataset {} | source {} (top-10 hub) | α=0.15 ε={epsilon:.0e} | batch {batch} × {slides} slides\n",
        dataset.name, source
    );
    println!(
        "{:<14} {:>12} {:>14} {:>12} {:>12}",
        "engine", "mean/slide", "updates/sec", "pushes", "traversals"
    );

    let engines: Vec<Box<dyn DynamicPprEngine>> = vec![
        Box::new(SeqEngine::new(cfg, UpdateMode::PerUpdate)),
        Box::new(SeqEngine::new(cfg, UpdateMode::Batched)),
        Box::new(ParallelEngine::new(cfg, PushVariant::VANILLA)),
        Box::new(ParallelEngine::new(cfg, PushVariant::OPT)),
        Box::new(LigraEngine::new(cfg)),
        Box::new(MonteCarloEngine::new(cfg, 6 * probe.num_vertices(), seed)),
    ];

    for mut engine in engines {
        let mut driver = StreamDriver::new(dataset.stream(seed), 0.1);
        driver.bootstrap(engine.as_mut());
        let summary = driver.run_slides(engine.as_mut(), batch, slides);
        let c = summary.total_counters();
        println!(
            "{:<14} {:>12.2?} {:>14.0} {:>12} {:>12}",
            summary.engine,
            summary.mean_latency(),
            summary.throughput(),
            c.pushes,
            c.edge_traversals,
        );
    }

    println!(
        "\n(The local-update engines keep the same ε-guarantee; Monte-Carlo's\n accuracy depends on its walk budget — see crates/mc/src/lib.rs.)"
    );
}

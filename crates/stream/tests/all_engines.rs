//! The streaming harness drives every engine family end-to-end (this is
//! the integration point the Figure 5 binary relies on).

use dppr_core::{DynamicPprEngine, ParallelEngine, PprConfig, PushVariant, SeqEngine, UpdateMode};
use dppr_graph::generators::erdos_renyi;
use dppr_graph::GraphStream;
use dppr_mc::MonteCarloEngine;
use dppr_stream::StreamDriver;
use dppr_vc::LigraEngine;

fn stream() -> GraphStream {
    GraphStream::directed(erdos_renyi(60, 1_500, 12)).permuted(4)
}

#[test]
fn every_engine_family_completes_a_run() {
    let cfg = PprConfig::new(0, 0.2, 1e-3);
    let engines: Vec<Box<dyn DynamicPprEngine>> = vec![
        Box::new(SeqEngine::new(cfg, UpdateMode::PerUpdate)),
        Box::new(SeqEngine::new(cfg, UpdateMode::Batched)),
        Box::new(ParallelEngine::new(cfg, PushVariant::OPT)),
        Box::new(LigraEngine::new(cfg)),
        Box::new(MonteCarloEngine::new(cfg, 5_000, 7)),
    ];
    let mut graphs = Vec::new();
    for mut engine in engines {
        let mut driver = StreamDriver::new(stream(), 0.1);
        driver.bootstrap(engine.as_mut());
        let summary = driver.run_slides(engine.as_mut(), 100, 8);
        assert_eq!(summary.slides, 8, "{}", engine.name());
        assert!(summary.throughput() > 0.0);
        assert_eq!(summary.records.len(), 8);
        graphs.push((engine.name(), driver.graph().clone()));
    }
    // All engines consumed the identical stream: identical final graphs.
    let (ref name0, ref g0) = graphs[0];
    for (name, g) in &graphs[1..] {
        assert_eq!(g.num_edges(), g0.num_edges(), "{name} and {name0} saw different streams");
    }
}

#[test]
fn per_slide_records_are_complete() {
    let cfg = PprConfig::new(0, 0.2, 1e-3);
    let mut engine = ParallelEngine::new(cfg, PushVariant::OPT);
    let mut driver = StreamDriver::new(stream(), 0.1);
    driver.bootstrap(&mut engine);
    let summary = driver.run_slides(&mut engine, 50, 5);
    for (i, rec) in summary.records.iter().enumerate() {
        assert_eq!(rec.slide, i);
        assert_eq!(rec.batch_updates, 100); // 50 inserts + 50 deletes
        assert!(rec.applied <= rec.batch_updates);
        assert_eq!(rec.counters.batches, 1);
    }
    let totals = summary.total_counters();
    assert_eq!(totals.batches, 5);
    assert_eq!(
        totals.restore_ops,
        summary.records.iter().map(|r| r.counters.restore_ops).sum::<u64>()
    );
}

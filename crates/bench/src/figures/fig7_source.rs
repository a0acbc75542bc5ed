//! Figure 7 — effect of the source vertex's degree.
//!
//! Sources are drawn from the top-10 / top-1K / top-100K out-degree
//! buckets of the initial window (the paper's third bucket is top-1M; our
//! graphs are smaller, so the widest bucket is scaled accordingly — it
//! plays the same role: mostly low-degree sources). Paper's shape: higher
//! degree sources cost more for everyone, and the parallel advantage is
//! largest for high-degree sources.
//!
//! Usage: `figures fig7_source [--full]`

use crate::{ms, run_engine, EngineKind, ExperimentScale, Workload};
use dppr_core::PushVariant;
use std::time::Duration;

pub fn run(scale: ExperimentScale) {
    let (batch, budget, buckets): (usize, Duration, &[usize]) = match scale {
        ExperimentScale::Quick => (500, Duration::from_secs(3), &[10, 1_000, 100_000]),
        ExperimentScale::Full => (5_000, Duration::from_secs(15), &[10, 1_000, 100_000]),
    };
    let engines = [EngineKind::CpuSeq, EngineKind::CpuMt(PushVariant::OPT), EngineKind::Ligra];
    println!("# Figure 7: effect of source-vertex degree (batch {batch})");
    println!("dataset\tbucket\tsource\tsource_outdeg\tengine\tslides\tmean_ms\tspeedup_vs_seq");
    for ds in scale.datasets() {
        let eps = ds.default_epsilon;
        for &bucket in buckets {
            let workload = Workload::prepare(ds.clone(), 4, 0.1, bucket);
            // Report the chosen source's degree in the initial window.
            let stream = workload.dataset.stream(workload.seed);
            let probe = dppr_graph::SlidingWindow::new(stream, 0.1).to_graph();
            let deg = probe.out_degree(workload.source);
            let mut seq_ms = None;
            for kind in engines {
                let summary = run_engine(kind, &workload, eps, batch, scale.slides(), budget);
                if summary.slides == 0 {
                    continue;
                }
                let mean = ms(summary.mean_latency());
                if kind == EngineKind::CpuSeq {
                    seq_ms = Some(mean);
                }
                println!(
                    "{}\ttop-{}\t{}\t{}\t{}\t{}\t{:.3}\t{:.2}",
                    workload.name,
                    bucket,
                    workload.source,
                    deg,
                    summary.engine,
                    summary.slides,
                    mean,
                    seq_ms.unwrap_or(mean) / mean.max(1e-9),
                );
            }
        }
    }
}

//! Figure 6 — effect of the error threshold ε.
//!
//! Sweeps ε and reports mean slide latency for the sequential, parallel
//! and Ligra engines. The paper's shape: latency grows steeply as ε
//! shrinks for every engine, and the parallel speedup *widens* (smaller ε
//! ⇒ larger frontiers ⇒ more parallelism).
//!
//! Usage: `figures fig6_epsilon [--full]`

use crate::{ms, run_engine, EngineKind, ExperimentScale, Workload};
use dppr_core::PushVariant;
use dppr_graph::presets;
use std::time::Duration;

pub fn run(scale: ExperimentScale) {
    // Scale note: the ε effect needs room to grow frontiers; even the
    // "quick" setting uses the mid-size preset (the paper's smallest graph
    // is 1.1M vertices).
    let (ds, epsilons, batch, budget): (_, &[f64], usize, Duration) = match scale {
        ExperimentScale::Quick => (
            presets::youtube_sim(),
            &[1e-4, 1e-5, 1e-6, 1e-7],
            2_000,
            Duration::from_secs(4),
        ),
        ExperimentScale::Full => (
            presets::lj_sim(),
            &[1e-4, 1e-5, 1e-6, 1e-7, 1e-8],
            5_000,
            Duration::from_secs(20),
        ),
    };
    let engines = [
        EngineKind::CpuSeq,
        EngineKind::CpuMt(PushVariant::OPT),
        EngineKind::Ligra,
    ];
    println!("# Figure 6: effect of ε (dataset {}, batch {batch})", ds.name);
    println!("epsilon\tengine\tslides\tmean_ms\tpushes\tspeedup_vs_seq");
    let workload = Workload::prepare(ds, 3, 0.1, 10);
    for &eps in epsilons {
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
                "{eps:.0e}\t{}\t{}\t{:.3}\t{}\t{:.2}",
                kind.label(),
                summary.slides,
                mean,
                summary.total_counters().pushes,
                seq_ms.unwrap_or(mean) / mean.max(1e-9),
            );
        }
    }
}

//! Figure 4 — effect of the push optimizations.
//!
//! Runs the four parallel-push variants of Table 3 (`Opt`, `Eager`,
//! `DupDetect`, `Vanilla`) over each dataset's sliding window and reports
//! the average slide latency, mirroring the paper's bar chart. The paper
//! observes ~2.5× between `Opt` and `Vanilla` on the larger graphs, with
//! each optimization contributing.
//!
//! Usage: `figures fig4_optimizations [--full]`

use crate::{ms, run_engine, EngineKind, ExperimentScale, Workload};
use dppr_core::PushVariant;
use std::time::Duration;

pub fn run(scale: ExperimentScale) {
    let (batch, budget) = match scale {
        ExperimentScale::Quick => (1_000usize, Duration::from_secs(3)),
        ExperimentScale::Full => (10_000usize, Duration::from_secs(20)),
    };
    println!("# Figure 4: effect of optimizations (mean slide latency, batch = {batch})");
    println!("dataset\tvariant\tslides\tmean_ms\tpushes\ttraversals\tspeedup_vs_vanilla");
    for ds in scale.datasets() {
        let eps = ds.default_epsilon;
        let workload = Workload::prepare(ds, 1, 0.1, 10);
        let mut vanilla_ms = None;
        // Vanilla first so the speedup column can reference it.
        for variant in [
            PushVariant::VANILLA,
            PushVariant::DUP_DETECT,
            PushVariant::EAGER,
            PushVariant::OPT,
        ] {
            let summary = run_engine(
                EngineKind::CpuMt(variant),
                &workload,
                eps,
                batch,
                scale.slides(),
                budget,
            );
            let mean = ms(summary.mean_latency());
            if variant == PushVariant::VANILLA {
                vanilla_ms = Some(mean);
            }
            let c = summary.total_counters();
            println!(
                "{}\t{}\t{}\t{:.3}\t{}\t{}\t{:.2}",
                workload.name,
                variant,
                summary.slides,
                mean,
                c.pushes,
                c.edge_traversals,
                vanilla_ms.unwrap_or(mean) / mean.max(1e-9),
            );
        }
    }
}

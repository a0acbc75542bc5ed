//! Figure 8 — effect of the batch size, expressed as a fraction of the
//! sliding-window size (the paper sweeps 1%, 0.1%, 0.01%).
//!
//! Paper's shape: smaller batches mean lower latency for everyone (less
//! work per slide), but the parallel engines retain their speedup over
//! CPU-Seq at every batch size.
//!
//! Usage: `figures fig8_batch [--full]`

use crate::{ms, run_engine, EngineKind, ExperimentScale, Workload};
use dppr_core::PushVariant;
use std::time::Duration;

pub fn run(scale: ExperimentScale) {
    let (budget, walks_per_vertex) = match scale {
        ExperimentScale::Quick => (Duration::from_secs(2), 6),
        ExperimentScale::Full => (Duration::from_secs(15), 2),
    };
    let fractions = [0.01f64, 0.001, 0.0001]; // 1%, 0.1%, 0.01% of window
    let engines = [
        EngineKind::CpuSeq,
        EngineKind::CpuMt(PushVariant::OPT),
        EngineKind::MonteCarlo { walks_per_vertex },
        EngineKind::Ligra,
    ];
    println!("# Figure 8: effect of batch size (fraction of window)");
    println!("dataset\tfraction\tbatch\tengine\tslides\tmean_ms\tupdates_per_sec");
    for ds in scale.datasets() {
        let eps = ds.default_epsilon;
        let workload = Workload::prepare(ds, 5, 0.1, 1_000);
        for &frac in &fractions {
            let batch = ((workload.window_len as f64 * frac) as usize).max(1);
            for kind in engines {
                let summary =
                    run_engine(kind, &workload, eps, batch, scale.slides(), budget);
                if summary.slides == 0 {
                    continue;
                }
                println!(
                    "{}\t{:.4}\t{}\t{}\t{}\t{:.3}\t{:.0}",
                    workload.name,
                    frac,
                    batch,
                    kind.label(),
                    summary.slides,
                    ms(summary.mean_latency()),
                    summary.throughput(),
                );
            }
        }
    }
}

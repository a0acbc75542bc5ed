//! Figure 5 — streaming throughput of all engines across batch sizes.
//!
//! Reports updates consumed per second for `CPU-Base`, `CPU-Seq`,
//! `CPU-MT[Opt]`, `Monte-Carlo` and `Ligra` (there is no GPU engine here;
//! CPU-MT is the parallel line). The paper's shape: CPU-MT ≫ CPU-Seq ≫
//! CPU-Base, Monte-Carlo slowest of the maintained baselines, Ligra
//! between CPU-Seq and CPU-MT, and CPU-MT's advantage growing with the
//! batch size.
//!
//! Usage: `figures fig5_throughput [--full]`

use crate::{ms, run_engine, EngineKind, ExperimentScale, Workload};
use dppr_core::PushVariant;
use std::time::Duration;

pub fn run(scale: ExperimentScale) {
    let (batches, budget, walks_per_vertex): (&[usize], Duration, usize) = match scale {
        ExperimentScale::Quick => (&[100, 1_000, 10_000], Duration::from_secs(2), 6),
        ExperimentScale::Full => (&[1_000, 10_000, 100_000], Duration::from_secs(15), 2),
    };
    let engines = [
        EngineKind::CpuBase,
        EngineKind::CpuSeq,
        EngineKind::CpuMt(PushVariant::OPT),
        EngineKind::MonteCarlo { walks_per_vertex },
        EngineKind::Ligra,
    ];
    println!("# Figure 5: streaming throughput (updates/second)");
    println!("dataset\tengine\tbatch\tslides\tupdates_per_sec\tmean_slide_ms");
    for ds in scale.datasets() {
        let eps = ds.default_epsilon;
        let workload = Workload::prepare(ds, 2, 0.1, 10);
        for &batch in batches {
            for kind in engines {
                // CPU-Base at the largest batches would dominate the run
                // (the paper likewise drops it after this figure); keep one
                // slide so the point still appears.
                let cap = if kind == EngineKind::CpuBase && batch > 1_000 {
                    1
                } else {
                    scale.slides()
                };
                let summary = run_engine(kind, &workload, eps, batch, cap, budget);
                if summary.slides == 0 {
                    continue;
                }
                println!(
                    "{}\t{}\t{}\t{}\t{:.0}\t{:.3}",
                    workload.name,
                    kind.label(),
                    batch,
                    summary.slides,
                    summary.throughput(),
                    ms(summary.mean_latency()),
                );
            }
        }
    }
}

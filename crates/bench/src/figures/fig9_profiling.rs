//! Figure 9 / Table 4 — resource consumption with varying batch size.
//!
//! The paper reads hardware counters (GPU warp occupancy & load
//! efficiency; CPU L2/L3 miss rates and stall cycles) to show that larger
//! batches (a) raise parallel utilization and (b) slightly worsen memory
//! locality. Our software counters expose the same causal quantities:
//!
//! * mean/max frontier size and work per iteration → utilization (the
//!   paper's warp occupancy analog);
//! * atomic adds, CAS retries per million adds → contention (stall-cycle
//!   analog);
//! * traversals per push → irregular access volume (the load-efficiency /
//!   cache-miss analog);
//! * duplicate-enqueues avoided → the synchronization the frontier scheme
//!   saves.
//!
//! Usage: `figures fig9_profiling [--full]`

use crate::{run_engine, EngineKind, ExperimentScale, Workload};
use dppr_core::PushVariant;
use std::time::Duration;

pub fn run(scale: ExperimentScale) {
    let (batches, budget): (&[usize], Duration) = match scale {
        ExperimentScale::Quick => (&[100, 1_000, 10_000], Duration::from_secs(3)),
        ExperimentScale::Full => (&[1_000, 10_000, 100_000], Duration::from_secs(20)),
    };
    println!("# Figure 9: resource profile of CPU-MT[Opt] vs batch size");
    println!(
        "dataset\tbatch\tslides\titer_per_slide\tmean_frontier\tmax_frontier\tatomic_adds\tcas_retries_per_M\ttraversals_per_push\tdup_avoided"
    );
    for ds in scale.datasets() {
        let eps = ds.default_epsilon;
        let workload = Workload::prepare(ds, 6, 0.1, 10);
        for &batch in batches {
            let summary = run_engine(
                EngineKind::CpuMt(PushVariant::OPT),
                &workload,
                eps,
                batch,
                scale.slides(),
                budget,
            );
            if summary.slides == 0 {
                continue;
            }
            let c = summary.total_counters();
            println!(
                "{}\t{}\t{}\t{:.1}\t{:.1}\t{}\t{}\t{:.1}\t{:.2}\t{}",
                workload.name,
                batch,
                summary.slides,
                c.iterations as f64 / summary.slides as f64,
                c.mean_frontier(),
                c.max_frontier,
                c.atomic_adds,
                if c.atomic_adds == 0 {
                    0.0
                } else {
                    c.cas_retries as f64 * 1e6 / c.atomic_adds as f64
                },
                if c.pushes == 0 {
                    0.0
                } else {
                    c.edge_traversals as f64 / c.pushes as f64
                },
                c.dup_avoided,
            );
        }
    }
}

//! Theorem 3 — the parallel local update performs asymptotically the same
//! number of operations as the sequential one.
//!
//! For each batch size, runs CPU-Seq, CPU-MT[Vanilla] and CPU-MT[Opt] over
//! the same stream and reports total operations (restores + pushes +
//! traversals, the currency of Theorems 1/3) and the parallel/sequential
//! ratio, plus the closed-form bound Λ_u of Lemma 2/Theorem 3 for the
//! undirected arbitrary-update model:
//!
//! ```text
//! Λ_u ≤ d/(αε) + K·2/α + K·(4/α² + 4/(α²·n·ε))
//! ```
//!
//! Expected outcome: the ratio stays O(1) (slightly above 1 from parallel
//! loss, pulled back toward 1 by eager propagation), and both counts sit
//! far below the worst-case bound.
//!
//! Usage: `figures theory_ops [--full]`

use crate::{run_engine, EngineKind, ExperimentScale, Workload};
use dppr_core::PushVariant;
use std::time::Duration;

pub fn run(scale: ExperimentScale) {
    let batches: &[usize] = match scale {
        ExperimentScale::Quick => &[10, 100, 1_000],
        ExperimentScale::Full => &[100, 1_000, 10_000],
    };
    let budget = Duration::from_secs(10);
    println!("# Theorem 3: operation counts, parallel vs sequential");
    println!(
        "dataset\tbatch\tK_updates\tops_seq\tops_vanilla\tops_opt\tvanilla_ratio\topt_ratio\tbound_lambda_u"
    );
    for ds in scale.datasets() {
        let eps = ds.default_epsilon;
        let alpha = 0.15f64;
        let workload = Workload::prepare(ds, 8, 0.1, 10);
        for &batch in batches {
            let mut ops = Vec::new();
            let mut updates = 0usize;
            for kind in [
                EngineKind::CpuSeq,
                EngineKind::CpuMt(PushVariant::VANILLA),
                EngineKind::CpuMt(PushVariant::OPT),
            ] {
                let summary =
                    run_engine(kind, &workload, eps, batch, scale.slides(), budget);
                updates = summary.total_updates;
                ops.push(summary.total_counters().total_operations());
            }
            if updates == 0 {
                continue;
            }
            let k = updates as f64;
            let n = workload.num_vertices as f64;
            let d = workload.window_len as f64 * 2.0 / n; // arcs per vertex
            let bound = d / (alpha * eps)
                + k * 2.0 / alpha
                + k * (4.0 / (alpha * alpha) + 4.0 / (alpha * alpha * n * eps));
            println!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{:.3}\t{:.3}\t{:.3e}",
                workload.name,
                batch,
                updates,
                ops[0],
                ops[1],
                ops[2],
                ops[1] as f64 / ops[0].max(1) as f64,
                ops[2] as f64 / ops[0].max(1) as f64,
                bound,
            );
        }
    }
}

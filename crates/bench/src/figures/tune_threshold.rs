//! One-off sizing probe: sequential vs parallel push across graph scales,
//! including a DRAM-resident graph (beyond L3). Not part of the paper's
//! figure set; used to choose `PushOpts::seq_threshold`.
//!
//! Usage: `figures tune_threshold [--full]`

use crate::{ms, ExperimentScale, Workload};
use dppr_core::{ParallelEngine, PushOpts, PushVariant, SeqEngine, UpdateMode};
use dppr_graph::presets;

pub fn run(scale: ExperimentScale) {
    let mut cases = vec![
        ("youtube", presets::youtube_sim(), 2_000usize, 1e-6f64, 8usize),
        ("lj", presets::lj_sim(), 10_000, 1e-6, 8),
    ];
    if scale == ExperimentScale::Full {
        cases.push(("big(16M arcs)", presets::big_sim(), 50_000, 1e-5, 4));
    }
    for (name, ds, batch, eps, slides) in cases {
        let w = Workload::prepare(ds, 3, 0.1, 10);
        let cfg = w.config(eps);
        let mut e = SeqEngine::new(cfg, UpdateMode::Batched);
        let mut d = w.driver(0.1);
        d.bootstrap(&mut e);
        let s = d.run_slides(&mut e, batch, slides);
        let seq_ms = ms(s.mean_latency());
        println!("{name} seq: {seq_ms:.2}ms");
        for thresh in [4096usize, 16384, usize::MAX] {
            let mut e = ParallelEngine::new(cfg, PushVariant::OPT);
            e.set_opts(PushOpts { seq_threshold: thresh });
            let mut d = w.driver(0.1);
            d.bootstrap(&mut e);
            let s = d.run_slides(&mut e, batch, slides);
            let par_ms = ms(s.mean_latency());
            println!(
                "{name} par thresh={thresh}: {par_ms:.2}ms (speedup {:.2})",
                seq_ms / par_ms
            );
        }
    }
}

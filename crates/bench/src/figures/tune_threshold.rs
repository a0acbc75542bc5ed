//! One-off sizing probe: sequential vs parallel push across graph scales,
//! including a DRAM-resident graph (beyond L3). Not part of the paper's
//! figure set; used to choose `PushOpts::seq_threshold`.
//!
//! Each setting — `CPU-Seq`, then the parallel push at each threshold —
//! runs [`REPEATS`] times from a fresh bootstrap, the settings taking
//! turns, so a drift of the host lands on all of them alike. A row prints
//! the median of its runs' mean slide latency and their min–max. One
//! setting ranks above another only when their ranges are disjoint;
//! overlapping ranges are a tie, however far apart the medians.
//!
//! Usage: `figures tune_threshold [--full]`

use crate::{ms, ExperimentScale, Workload};
use dppr_core::{DynamicPprEngine, ParallelEngine, PushOpts, PushVariant, SeqEngine, UpdateMode};
use dppr_graph::presets;

/// Runs per setting; the run-to-run spread of one pass is wider than the
/// gaps between thresholds.
const REPEATS: usize = 3;

pub fn run(scale: ExperimentScale) {
    let mut cases = vec![
        ("youtube", presets::youtube_sim(), 2_000usize, 1e-6f64, 8usize),
        ("lj", presets::lj_sim(), 10_000, 1e-6, 8),
    ];
    if scale == ExperimentScale::Full {
        cases.push(("big(16M arcs)", presets::big_sim(), 50_000, 1e-5, 4));
    }
    // `None` is `CPU-Seq`; `Some(t)` the parallel push at threshold `t`.
    let settings = [None, Some(4096usize), Some(16384), Some(usize::MAX)];
    println!("# tune_threshold: mean slide latency over {REPEATS} alternating runs per setting");
    println!("dataset\tsetting\tmedian_ms\tmin_ms\tmax_ms\tspeedup");
    for (name, ds, batch, eps, slides) in cases {
        let w = Workload::prepare(ds, 3, 0.1, 10);
        let cfg = w.config(eps);
        let mut runs = vec![Vec::with_capacity(REPEATS); settings.len()];
        for _ in 0..REPEATS {
            for (setting, runs) in settings.iter().zip(&mut runs) {
                let mut e: Box<dyn DynamicPprEngine> = match *setting {
                    None => Box::new(SeqEngine::new(cfg, UpdateMode::Batched)),
                    Some(seq_threshold) => {
                        let mut e = ParallelEngine::new(cfg, PushVariant::OPT);
                        e.set_opts(PushOpts { seq_threshold });
                        Box::new(e)
                    }
                };
                let mut d = w.driver(0.1);
                d.bootstrap(e.as_mut());
                runs.push(ms(d.run_slides(e.as_mut(), batch, slides).mean_latency()));
            }
        }
        for runs in &mut runs {
            runs.sort_by(f64::total_cmp);
        }
        let median = |runs: &[f64]| runs[runs.len() / 2];
        let seq_ms = median(&runs[0]);
        for (setting, runs) in settings.iter().zip(&runs) {
            let label = match *setting {
                None => "seq".to_string(),
                Some(usize::MAX) => "par thresh=usize::MAX".to_string(),
                Some(t) => format!("par thresh={t}"),
            };
            let (mid, lo, hi) = (median(runs), runs[0], runs[runs.len() - 1]);
            println!("{name}\t{label}\t{mid:.2}\t{lo:.2}\t{hi:.2}\t{:.2}", seq_ms / mid);
        }
    }
}

//! Figure 10 — multi-core scalability.
//!
//! Runs `CPU-MT[Opt]` with a growing thread count
//! (`ParallelEngine::with_threads`), one row per count up to `nproc`, and
//! reports throughput and speedup over one thread. Paper's shape: throughput
//! scales with the core count (sub-linearly — the push is memory-bound).
//!
//! Usage: `figures fig10_scalability [--full]`

use crate::{ExperimentScale, Workload};
use dppr_core::{ParallelEngine, PushVariant};
use dppr_graph::presets;
use std::time::Duration;

pub fn run(scale: ExperimentScale) {
    // Scale note: thread scaling needs per-iteration frontiers well past
    // the granularity threshold, which the small presets cannot produce
    // (their whole vertex set is a few thousand). Quick uses the
    // 100k-vertex preset; Full uses the DRAM-resident 16M-arc preset,
    // the regime the paper's graphs live in.
    let (ds, batch, budget) = match scale {
        ExperimentScale::Quick => (presets::lj_sim(), 10_000, Duration::from_secs(4)),
        ExperimentScale::Full => (presets::big_sim(), 50_000, Duration::from_secs(30)),
    };
    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8);
    let mut threads = vec![1usize, 2, 4, 8, 16];
    threads.retain(|&t| t <= max_threads);
    if !threads.contains(&max_threads) {
        threads.push(max_threads);
    }
    // ε a notch below the default so frontiers are large enough to feed
    // all cores.
    let eps = ds.default_epsilon * 0.1;
    let workload = Workload::prepare(ds, 7, 0.1, 10);
    println!(
        "# Figure 10: scalability of CPU-MT[Opt] ({} | batch {batch} | ε {:.0e})",
        workload.name, eps
    );
    println!("threads\tslides\tupdates_per_sec\tspeedup_vs_1");
    let mut base: Option<f64> = None;
    for &t in &threads {
        let cfg = workload.config(eps);
        let mut engine = ParallelEngine::with_threads(cfg, PushVariant::OPT, t);
        let mut driver = workload.driver(0.1);
        driver.bootstrap(&mut engine);
        let run = driver.run_for(&mut engine, batch, usize::MAX, budget);
        let tput = run.throughput();
        let b = *base.get_or_insert(tput);
        println!("{t}\t{}\t{tput:.0}\t{:.2}", run.slides, tput / b);
    }
}

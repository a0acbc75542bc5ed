//! Motivation experiment (paper §1): "computation of PPR from scratch is
//! prohibitively slow against high rate of graph updates".
//!
//! For each batch size, compares three ways of answering after a window
//! slide:
//!
//! * `incremental` — the paper's approach: restore + parallel push;
//! * `scratch-push` — recompute the PPR vector with a fresh push over the
//!   whole window;
//! * `scratch-jacobi` — recompute with power iteration (the first scheme
//!   of §6, Ω(m) per refresh).
//!
//! Expected shape: incremental wins by orders of magnitude at small batch
//! sizes and the gap narrows as the batch approaches the window size.
//!
//! Usage: `figures motivation_scratch [--full]`

use crate::{ms, ExperimentScale, Workload};
use dppr_core::{exact_ppr, DynamicPprEngine, ParallelEngine, PushVariant};
use dppr_graph::{DynamicGraph, EdgeUpdate};
use std::time::{Duration, Instant};

pub fn run(scale: ExperimentScale) {
    let (ds, batches): (_, &[usize]) = match scale {
        ExperimentScale::Quick => (dppr_graph::presets::small_sim(), &[10, 100, 1_000]),
        ExperimentScale::Full => (dppr_graph::presets::lj_sim(), &[100, 1_000, 10_000]),
    };
    let eps = ds.default_epsilon;
    let workload = Workload::prepare(ds, 11, 0.1, 10);
    let cfg = workload.config(eps);
    println!(
        "# Motivation: incremental vs from-scratch per slide ({}, ε {eps:.0e})",
        workload.name
    );
    println!("batch\tincremental_ms\tscratch_push_ms\tscratch_jacobi_ms\tspeedup_vs_push\tspeedup_vs_jacobi");

    for &batch in batches {
        // Incremental: maintained engine over `slides` slides.
        let mut engine = ParallelEngine::new(cfg, PushVariant::OPT);
        let mut driver = workload.driver(0.1);
        driver.bootstrap(&mut engine);
        let slides = scale.slides().min(driver.window().remaining_slides(batch));
        if slides == 0 {
            continue;
        }
        let inc = driver.run_slides(&mut engine, batch, slides);
        let inc_ms = ms(inc.mean_latency());

        // From scratch per slide: rebuild on the final window (one
        // representative recomputation each, averaged over 3 runs).
        let reps = 3;
        let mut push_total = Duration::ZERO;
        for _ in 0..reps {
            let t = Instant::now();
            let mut fresh = ParallelEngine::new(cfg, PushVariant::OPT);
            let mut g = DynamicGraph::new();
            let batch_updates: Vec<EdgeUpdate> = driver
                .window()
                .window_edges()
                .flat_map(|(u, v)| {
                    let mut arcs = vec![EdgeUpdate::insert(u, v)];
                    if driver.window().stream().is_undirected() {
                        arcs.push(EdgeUpdate::insert(v, u));
                    }
                    arcs
                })
                .collect();
            fresh.apply_batch(&mut g, &batch_updates);
            push_total += t.elapsed();
        }
        let push_ms = ms(push_total / reps);

        let mut jacobi_total = Duration::ZERO;
        for _ in 0..reps {
            let t = Instant::now();
            let p = exact_ppr(driver.graph(), cfg.source, cfg.alpha, eps);
            std::hint::black_box(p);
            jacobi_total += t.elapsed();
        }
        let jacobi_ms = ms(jacobi_total / reps);

        println!(
            "{batch}\t{inc_ms:.3}\t{push_ms:.3}\t{jacobi_ms:.3}\t{:.1}\t{:.1}",
            push_ms / inc_ms.max(1e-9),
            jacobi_ms / inc_ms.max(1e-9),
        );
    }
}

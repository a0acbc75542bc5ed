//! Ablation for §3.1 footnote 2: atomic adds vs the sorting-and-aggregate
//! method for transferring residuals to neighbors.
//!
//! The paper: "this sorting-and-aggregate method incurs significant
//! overheads for large frontiers … most graph processing systems adopt
//! atomic operations". This reproduces that comparison on a real
//! propagation round over a BA graph.
//!
//! Usage: `figures ablation_neighbor [--full]`

use crate::{median_of, ms, ExperimentScale};
use dppr_core::fanout::{concat, default_threads, fan_out};
use dppr_core::AtomicF64;
use dppr_graph::generators::{barabasi_albert, undirected_to_directed};
use dppr_graph::DynamicGraph;
use std::ops::Range;

const ALPHA: f64 = 0.15;
const RUNS: usize = 11;

struct Fixture {
    g: DynamicGraph,
    frontier: Vec<(u32, f64)>,
    residuals: Vec<AtomicF64>,
}

fn atomic_adds(f: &Fixture) {
    let add = |range: Range<usize>| {
        for &(u, w) in &f.frontier[range] {
            let scaled = (1.0 - ALPHA) * w;
            for &v in f.g.in_neighbors(u) {
                f.residuals[v as usize].fetch_add(scaled * f.g.inv_out_degree(v));
            }
        }
    };
    fan_out(f.frontier.len(), default_threads(), add, |(), ()| ());
}

fn sort_aggregate(f: &Fixture) {
    // Phase 1: materialize all (target, delta) pairs.
    let emit = |range: Range<usize>| {
        let mut acc = Vec::new();
        for &(u, w) in &f.frontier[range] {
            let scaled = (1.0 - ALPHA) * w;
            for &v in f.g.in_neighbors(u) {
                acc.push((v, scaled * f.g.inv_out_degree(v)));
            }
        }
        acc
    };
    let mut pairs: Vec<(u32, f64)> = fan_out(f.frontier.len(), default_threads(), emit, concat);
    // Phase 2: sort by target.
    pairs.sort_unstable_by_key(|&(v, _)| v);
    // Phase 3: segmented reduce + contention-free writes.
    let mut i = 0;
    while i < pairs.len() {
        let v = pairs[i].0;
        let mut sum = 0.0;
        while i < pairs.len() && pairs[i].0 == v {
            sum += pairs[i].1;
            i += 1;
        }
        f.residuals[v as usize].store(f.residuals[v as usize].load() + sum);
    }
}

pub fn run(scale: ExperimentScale) {
    let (n, m) = match scale {
        ExperimentScale::Quick => (20_000, 6),
        ExperimentScale::Full => (400_000, 8),
    };
    let g = DynamicGraph::from_edges(undirected_to_directed(&barabasi_albert(n, m, 17)));
    // A large frontier: every 4th vertex pushes one unit.
    let frontier: Vec<(u32, f64)> =
        (0..g.num_vertices() as u32).step_by(4).map(|u| (u, 1.0)).collect();
    let residuals = (0..g.num_vertices()).map(|_| AtomicF64::new(0.0)).collect();
    let f = Fixture { g, frontier, residuals };
    println!(
        "# Ablation §3.1 fn. 2: neighbor update ({n} vertices, frontier {}, {} threads, {RUNS} runs)",
        f.frontier.len(),
        default_threads()
    );
    println!("method\tmedian_ms\tmin_ms\tmax_ms");
    let methods: [(&str, fn(&Fixture)); 2] =
        [("atomic_adds", atomic_adds), ("sort_aggregate", sort_aggregate)];
    for (name, method) in methods {
        let reset = || f.residuals.iter().for_each(|r| r.store(0.0));
        let (median, min, max) = median_of(RUNS, reset, || method(&f));
        println!("{name}\t{:.3}\t{:.3}\t{:.3}", ms(median), ms(min), ms(max));
    }
}

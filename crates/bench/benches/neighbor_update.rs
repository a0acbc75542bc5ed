//! Ablation for §3.1 footnote 2: atomic adds vs the sorting-and-aggregate
//! method for transferring residuals to neighbors.
//!
//! The paper: "this sorting-and-aggregate method incurs significant
//! overheads for large frontiers … most graph processing systems adopt
//! atomic operations". This bench reproduces that comparison on a real
//! propagation round over a BA graph.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dppr_core::fanout::{concat, default_threads, fan_out};
use dppr_core::AtomicF64;
use dppr_graph::generators::{barabasi_albert, undirected_to_directed};
use dppr_graph::DynamicGraph;
use std::ops::Range;

fn fixture() -> (DynamicGraph, Vec<(u32, f64)>, Vec<AtomicF64>) {
    let g = DynamicGraph::from_edges(undirected_to_directed(&barabasi_albert(
        20_000, 6, 17,
    )));
    // A large frontier: every 4th vertex pushes one unit.
    let frontier: Vec<(u32, f64)> = (0..g.num_vertices() as u32)
        .step_by(4)
        .map(|u| (u, 1.0))
        .collect();
    let residuals: Vec<AtomicF64> = (0..g.num_vertices()).map(|_| AtomicF64::new(0.0)).collect();
    (g, frontier, residuals)
}

fn bench_neighbor_update(c: &mut Criterion) {
    let (g, frontier, residuals) = fixture();
    let alpha = 0.15;
    let mut group = c.benchmark_group("neighbor_update");
    group.sample_size(10);

    group.bench_function("atomic_adds", |b| {
        b.iter_batched(
            || residuals.iter().for_each(|r| r.store(0.0)),
            |_| {
                let add = |range: Range<usize>| {
                    for &(u, w) in &frontier[range] {
                        let scaled = (1.0 - alpha) * w;
                        for &v in g.in_neighbors(u) {
                            residuals[v as usize]
                                .fetch_add(scaled * g.inv_out_degree(v));
                        }
                    }
                };
                fan_out(frontier.len(), default_threads(), add, |(), ()| ());
            },
            BatchSize::PerIteration,
        )
    });

    group.bench_function("sort_aggregate", |b| {
        b.iter_batched(
            || residuals.iter().for_each(|r| r.store(0.0)),
            |_| {
                // Phase 1: materialize all (target, delta) pairs.
                let emit = |range: Range<usize>| {
                    let mut acc = Vec::new();
                    for &(u, w) in &frontier[range] {
                        let scaled = (1.0 - alpha) * w;
                        for &v in g.in_neighbors(u) {
                            acc.push((v, scaled * g.inv_out_degree(v)));
                        }
                    }
                    acc
                };
                let mut pairs: Vec<(u32, f64)> =
                    fan_out(frontier.len(), default_threads(), emit, concat);
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
                    residuals[v as usize].store(residuals[v as usize].load() + sum);
                }
            },
            BatchSize::PerIteration,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_neighbor_update);
criterion_main!(benches);

//! Substrate micro-benchmarks: the atomic f64 primitive, graph mutation,
//! CSR snapshotting, `RestoreInvariant`, and Monte-Carlo walk maintenance.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dppr_core::fanout::{fan_out, threads_for};
use dppr_core::{AtomicF64, Counters, PprConfig, PprState};
use dppr_graph::generators::{barabasi_albert, erdos_renyi, undirected_to_directed};
use dppr_graph::{CsrGraph, DynamicGraph, EdgeUpdate};
use dppr_mc::MonteCarloPpr;

fn bench_atomic_f64(c: &mut Criterion) {
    let mut group = c.benchmark_group("atomic_f64");
    let slots: Vec<AtomicF64> = (0..1024).map(|_| AtomicF64::new(0.0)).collect();

    group.bench_function("fetch_add_uncontended", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) & 1023;
            slots[i].fetch_add(1.0)
        })
    });

    group.bench_function("fetch_add_contended_24t", |b| {
        let hot = AtomicF64::new(0.0);
        b.iter_custom(|iters| {
            let start = std::time::Instant::now();
            let n = iters as usize;
            let add = |range: std::ops::Range<usize>| {
                for _ in range {
                    hot.fetch_add(1.0);
                }
            };
            fan_out(n, threads_for(n), add, |(), ()| ());
            start.elapsed()
        })
    });

    group.bench_function("swap", |b| {
        b.iter(|| slots[0].swap(2.0))
    });
    group.finish();
}

fn bench_graph_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph_ops");
    let edges = undirected_to_directed(&barabasi_albert(10_000, 5, 3));
    group.throughput(Throughput::Elements(edges.len() as u64));

    group.bench_function("insert_unchecked", |b| {
        b.iter_batched(
            DynamicGraph::new,
            |mut g| {
                for &(u, v) in &edges {
                    g.insert_edge_unchecked(u, v);
                }
                g
            },
            BatchSize::LargeInput,
        )
    });

    group.bench_function("insert_checked", |b| {
        b.iter_batched(
            DynamicGraph::new,
            |mut g| {
                for &(u, v) in &edges {
                    g.insert_edge(u, v);
                }
                g
            },
            BatchSize::LargeInput,
        )
    });

    let built = DynamicGraph::from_edges(edges.iter().copied());
    group.bench_function("delete_all", |b| {
        b.iter_batched(
            || built.clone(),
            |mut g| {
                for &(u, v) in &edges {
                    g.delete_edge(u, v);
                }
                g
            },
            BatchSize::LargeInput,
        )
    });

    group.bench_function("csr_snapshot", |b| {
        b.iter(|| CsrGraph::from_dynamic(&built))
    });
    group.finish();
}

fn bench_restore_invariant(c: &mut Criterion) {
    let mut group = c.benchmark_group("restore_invariant");
    let base = erdos_renyi(5_000, 60_000, 5);
    let extra = erdos_renyi(5_000, 70_000, 6);
    let news: Vec<EdgeUpdate> = extra
        .into_iter()
        .filter(|e| !base.contains(e))
        .take(10_000)
        .map(|(u, v)| EdgeUpdate::insert(u, v))
        .collect();
    group.throughput(Throughput::Elements(news.len() as u64));
    group.sample_size(20);
    group.bench_function("insert_10k", |b| {
        b.iter_batched(
            || {
                let g = DynamicGraph::from_edges(base.iter().copied());
                let mut st = PprState::new(PprConfig::new(0, 0.15, 1e-5));
                st.ensure_len(g.num_vertices());
                (g, st)
            },
            |(mut g, mut st)| {
                let counters = Counters::new();
                for &upd in &news {
                    dppr_core::apply_update(&mut g, &mut st, upd, &counters);
                }
                (g, st)
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_mc_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("mc_maintenance");
    group.sample_size(10);
    let edges = undirected_to_directed(&barabasi_albert(5_000, 5, 21));
    let g = DynamicGraph::from_edges(edges.iter().copied());
    group.bench_function("single_update_50k_walks", |b| {
        b.iter_batched(
            || {
                let mut mc = MonteCarloPpr::new(0, 0.15, 50_000, 9);
                mc.rebuild(&g);
                let mut g2 = g.clone();
                // The update under test: a new out-edge at the hub.
                let hub = g2.top_out_degree_vertices(1)[0];
                let mut v = 0u32;
                while g2.has_edge(hub, v) || hub == v {
                    v += 1;
                }
                g2.insert_edge(hub, v);
                (mc, g2, hub)
            },
            |(mut mc, g2, hub)| {
                mc.on_update(&g2, hub);
                mc
            },
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_atomic_f64,
    bench_graph_ops,
    bench_restore_invariant,
    bench_mc_update
);
criterion_main!(benches);

//! Ablation for §4.2: frontier-generation strategies.
//!
//! Isolates the three designs the paper discusses on one synthetic
//! neighbor-propagation round (same atomic adds, different discovery):
//!
//! * `local_dup_detect` — enqueue on threshold crossing (before/after pair);
//! * `atomic_flags`     — enqueue via a shared CAS-claim bitmap (the
//!   synchronizing `UniqueEnqueue`);
//! * `topology_scan`    — no tracking during the adds; rescan all vertices
//!   afterwards (the "not work-efficient" rejected design).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dppr_core::fanout::{concat, default_threads, fan_out};
use dppr_core::{AtomicF64, Phase};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

const N: usize = 100_000;
const UPDATES: usize = 400_000;
const EPS: f64 = 1e-4;

struct Fixture {
    residuals: Vec<AtomicF64>,
    base: Vec<f64>,
    updates: Vec<(u32, f64)>,
    flags: Vec<AtomicBool>,
}

fn fixture() -> Fixture {
    let mut rng = SmallRng::seed_from_u64(99);
    let base: Vec<f64> = (0..N).map(|_| rng.gen::<f64>() * EPS * 0.5).collect();
    let updates: Vec<(u32, f64)> = (0..UPDATES)
        .map(|_| {
            // Skewed targets: low ids act like hubs receiving many adds.
            let v = (rng.gen::<f64>().powi(3) * N as f64) as u32 % N as u32;
            (v, rng.gen::<f64>() * EPS * 0.4)
        })
        .collect();
    Fixture {
        residuals: base.iter().map(|&x| AtomicF64::new(x)).collect(),
        base,
        updates,
        flags: (0..N).map(|_| AtomicBool::new(false)).collect(),
    }
}

fn reset(f: &Fixture) {
    for (slot, &v) in f.residuals.iter().zip(&f.base) {
        slot.store(v);
    }
    for flag in &f.flags {
        flag.store(false, Ordering::Relaxed);
    }
}

fn apply_adds<E>(f: &Fixture, enqueue: E) -> Vec<u32>
where
    E: Fn(u32, f64, f64, &mut Vec<u32>) + Sync,
{
    let add = |range: Range<usize>| {
        let mut acc = Vec::new();
        for &(v, inc) in &f.updates[range] {
            let pre = f.residuals[v as usize].fetch_add(inc);
            enqueue(v, pre, pre + inc, &mut acc);
        }
        acc
    };
    fan_out(f.updates.len(), default_threads(), add, concat)
}

fn bench_frontier_gen(c: &mut Criterion) {
    let f = fixture();
    let mut group = c.benchmark_group("frontier_gen");
    group.sample_size(10);

    group.bench_function("local_dup_detect", |b| {
        b.iter_batched(
            || reset(&f),
            |_| apply_adds(&f, |v, pre, cur, acc| {
                if Phase::Pos.crossed(pre, cur, EPS) {
                    acc.push(v);
                }
            }),
            BatchSize::PerIteration,
        )
    });

    group.bench_function("atomic_flags", |b| {
        b.iter_batched(
            || reset(&f),
            |_| {
                apply_adds(&f, |v, _pre, cur, acc| {
                    if Phase::Pos.active(cur, EPS)
                        && !f.flags[v as usize].swap(true, Ordering::Relaxed)
                    {
                        acc.push(v);
                    }
                })
            },
            BatchSize::PerIteration,
        )
    });

    group.bench_function("topology_scan", |b| {
        b.iter_batched(
            || reset(&f),
            |_| {
                apply_adds(&f, |_v, _pre, _cur, _acc| {});
                let scan = |range: Range<usize>| {
                    range
                        .filter(|&v| Phase::Pos.active(f.residuals[v].load(), EPS))
                        .map(|v| v as u32)
                        .collect::<Vec<u32>>()
                };
                fan_out(N, default_threads(), scan, concat)
            },
            BatchSize::PerIteration,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_frontier_gen);
criterion_main!(benches);

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
//!
//! Usage: `figures ablation_frontier [--full]`

use crate::{median_of, ms, ExperimentScale};
use dppr_core::fanout::{concat, default_threads, fan_out};
use dppr_core::{AtomicF64, Phase};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

const EPS: f64 = 1e-4;
const RUNS: usize = 11;

struct Fixture {
    residuals: Vec<AtomicF64>,
    base: Vec<f64>,
    updates: Vec<(u32, f64)>,
    flags: Vec<AtomicBool>,
}

fn fixture(n: usize, updates: usize) -> Fixture {
    let mut rng = SmallRng::seed_from_u64(99);
    let base: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * EPS * 0.5).collect();
    let updates: Vec<(u32, f64)> = (0..updates)
        .map(|_| {
            // Skewed targets: low ids act like hubs receiving many adds.
            let v = (rng.gen::<f64>().powi(3) * n as f64) as u32 % n as u32;
            (v, rng.gen::<f64>() * EPS * 0.4)
        })
        .collect();
    Fixture {
        residuals: base.iter().map(|&x| AtomicF64::new(x)).collect(),
        base,
        updates,
        flags: (0..n).map(|_| AtomicBool::new(false)).collect(),
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

fn local_dup_detect(f: &Fixture) -> Vec<u32> {
    apply_adds(f, |v, pre, cur, acc| {
        if Phase::Pos.crossed(pre, cur, EPS) {
            acc.push(v);
        }
    })
}

fn atomic_flags(f: &Fixture) -> Vec<u32> {
    apply_adds(f, |v, _pre, cur, acc| {
        if Phase::Pos.active(cur, EPS) && !f.flags[v as usize].swap(true, Ordering::Relaxed) {
            acc.push(v);
        }
    })
}

fn topology_scan(f: &Fixture) -> Vec<u32> {
    apply_adds(f, |_v, _pre, _cur, _acc| {});
    let scan = |range: Range<usize>| {
        range
            .filter(|&v| Phase::Pos.active(f.residuals[v].load(), EPS))
            .map(|v| v as u32)
            .collect::<Vec<u32>>()
    };
    fan_out(f.residuals.len(), default_threads(), scan, concat)
}

pub fn run(scale: ExperimentScale) {
    let (n, updates) = match scale {
        ExperimentScale::Quick => (100_000, 400_000),
        ExperimentScale::Full => (1_000_000, 4_000_000),
    };
    let f = fixture(n, updates);
    println!(
        "# Ablation §4.2: frontier generation ({n} vertices, {updates} adds, {} threads, {RUNS} runs)",
        default_threads()
    );
    println!("strategy\tmedian_ms\tmin_ms\tmax_ms");
    let strategies: [(&str, fn(&Fixture) -> Vec<u32>); 3] = [
        ("local_dup_detect", local_dup_detect),
        ("atomic_flags", atomic_flags),
        ("topology_scan", topology_scan),
    ];
    for (name, strategy) in strategies {
        let (median, min, max) = median_of(RUNS, || reset(&f), || strategy(&f));
        println!("{name}\t{:.3}\t{:.3}\t{:.3}", ms(median), ms(min), ms(max));
    }
}

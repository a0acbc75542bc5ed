//! Ablation: the hybrid granularity threshold of the parallel push
//! (`PushOpts::seq_threshold`).
//!
//! `always_parallel` (threshold 0) pays two `thread::scope` fork/joins on
//! every iteration — the overhead CilkPlus's lazy stealing hides;
//! `always_inline` (threshold ∞) is the one-worker schedule; `hybrid` is
//! the default (`fanout::FAN_OUT_MIN`).

use criterion::{criterion_group, criterion_main, Criterion};
use dppr_bench::{time_slides, Workload};
use dppr_core::{ParallelEngine, PushOpts, PushVariant};
use dppr_graph::presets;

fn bench_granularity(c: &mut Criterion) {
    let workload = Workload::prepare(presets::small_sim(), 3, 0.1, 1_000);
    let eps = 1e-5;
    let batch = 1_000usize;
    let mut group = c.benchmark_group("granularity");
    group.sample_size(10);
    for (name, threshold) in [
        ("always_parallel", 0usize),
        ("hybrid_4096", 4096),
        ("always_inline", usize::MAX),
    ] {
        let cfg = workload.config(eps);
        group.bench_function(name, |b| {
            b.iter_custom(|iters| {
                time_slides(
                    || {
                        let mut e = ParallelEngine::new(cfg, PushVariant::OPT);
                        e.set_opts(PushOpts { seq_threshold: threshold });
                        Box::new(e)
                    },
                    &workload,
                    batch,
                    iters,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_granularity);
criterion_main!(benches);

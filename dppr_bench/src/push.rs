//! `push_seq` and `push_par`: the paper's experiment, library only.
//!
//! One hub source, a sliding window over an R-MAT stream, and the
//! engine's `apply_batch` timed slide by slide. `push_seq` runs
//! `SeqEngine` batched, `push_par` runs `ParallelEngine(OPT, nproc)`
//! over the identical stream and slides, so the ratio of their
//! `updates_per_s` is the paper's headline. After the slides the caller
//! does what a library user does with a maintained vector: asks for its
//! top-k, and persists and restores it.

use crate::common::{
    percentile_of, same_or_fanned_out, summarize, HostWatch, Paired, Rep, RunOpts,
};
use crate::host;
use crate::inputs::{derive_seed, generate, hub_source, PushSpec, ALPHA, INIT_FRACTION};
use crate::loadgen::QUERY_LIMIT_MS;
use crate::refclock::{slowdown, SliceClock, Tick};
use crate::replica::{Kernel, WritePipeline};
use crate::report::{RepValues, Report};
use crate::span::Tracer;
use crate::stats::median;
use dppr_core::persist::{load_state, save_state, state_fingerprint};
use dppr_core::{
    exact_ppr_seq, max_invariant_violation, queries, CounterSnapshot, DynamicPprEngine,
    ParallelEngine, PprConfig, PprState, PushVariant, SeqEngine, UpdateMode,
};
use dppr_graph::DynamicGraph;
use dppr_stream::StreamDriver;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Fixed work per second of `--seconds`, over all repetitions: the
/// counts repeat exactly from run to run and from commit to commit, and
/// on the calibration sandbox the run then measures for about that long.
const SLIDES_PER_SECOND: f64 = 10.0;
const QUERIES_PER_SECOND: f64 = 300.0;
/// Queries between two reference ticks.
const QUERY_CHUNK: usize = 100;
/// Set-ups, and reloads of the persisted vector, timed per repetition.
const SETUPS_PER_REP: usize = 3;
const RELOADS_PER_REP: usize = 5;
/// Slack on top of ε when comparing against the exact solve, which is
/// itself only converged to `EXACT_TOL`.
const EXACT_TOL: f64 = 1e-9;

enum Engine {
    Seq(SeqEngine),
    Par(ParallelEngine),
}

impl Engine {
    fn new(kernel: Kernel, cfg: PprConfig) -> Self {
        match kernel {
            Kernel::Seq => Engine::Seq(SeqEngine::new(cfg, UpdateMode::Batched)),
            Kernel::Par => Engine::Par(ParallelEngine::with_threads(
                cfg,
                PushVariant::OPT,
                host::nproc(),
            )),
        }
    }

    fn dynamic(&mut self) -> &mut dyn DynamicPprEngine {
        match self {
            Engine::Seq(e) => e,
            Engine::Par(e) => e,
        }
    }

    fn state(&self) -> &PprState {
        match self {
            Engine::Seq(e) => e.state(),
            Engine::Par(e) => e.state(),
        }
    }
}

/// Correctness of a converged state on its graph: within ε of the exact
/// solve everywhere, and the Eq. 2 invariant intact.
fn check_state(report: &mut Report, g: &DynamicGraph, state: &PprState, who: &str) {
    let cfg = *state.config();
    let truth = exact_ppr_seq(g, cfg.source, cfg.alpha, EXACT_TOL);
    let linf = truth
        .iter()
        .zip(state.estimates())
        .map(|(t, e)| (t - e).abs())
        .fold(0.0, f64::max);
    report.check(
        "linf_vs_exact",
        linf <= cfg.epsilon + EXACT_TOL,
        format!("{who}: {linf:e} against epsilon {:e}", cfg.epsilon),
    );
    let violation = max_invariant_violation(g, state);
    report.check(
        "max_invariant_violation",
        violation <= 1e-9,
        format!("{who}: {violation:e}"),
    );
}

/// Counter ratios over the fixed slide prefix; they depend on the inputs
/// alone, so on `push_seq` they repeat bit for bit.
fn push_counts(reps: &mut RepValues, c: CounterSnapshot, updates: usize, slides: usize) {
    let per_update = |x: u64| x as f64 / updates.max(1) as f64;
    reps.push("core.pushes_per_update", per_update(c.pushes), updates);
    reps.push(
        "core.edge_traversals_per_update",
        per_update(c.edge_traversals),
        updates,
    );
    reps.push(
        "core.restore_ops_per_update",
        per_update(c.restore_ops),
        updates,
    );
    reps.push(
        "core.iterations_per_slide",
        c.iterations as f64 / slides.max(1) as f64,
        slides,
    );
    reps.push(
        "core.mean_frontier",
        c.mean_frontier(),
        c.iterations as usize,
    );
    reps.push(
        "core.cas_retry_ratio",
        c.cas_retries as f64 / c.atomic_adds.max(1) as f64,
        updates,
    );
    reps.push(
        "core.dup_avoided_ratio",
        c.dup_avoided as f64 / (c.enqueued + c.dup_avoided).max(1) as f64,
        updates,
    );
}

/// The state after exactly `prefix_slides` slides, kept by traced runs
/// to compare the engine with the rebuilt pipeline.
struct PrefixState {
    fingerprint: u64,
    estimates: Vec<f64>,
    /// Largest frontier of any push round so far, bootstrap included.
    max_frontier: u64,
}

impl PrefixState {
    fn of(state: &PprState, counters: CounterSnapshot) -> Self {
        PrefixState {
            fingerprint: state_fingerprint(state),
            estimates: state.estimates(),
            max_frontier: counters.max_frontier,
        }
    }
}

/// One repetition's share of the run's fixed work.
#[derive(Debug, Clone, Copy)]
struct Work {
    slides: usize,
    queries: usize,
}

/// The run's timed samples, every repetition's together. Each is
/// bracketed by two reference ticks as wide as the work it timed and
/// rescaled by them.
#[derive(Default)]
struct Timed {
    setup_s: Paired,
    slide_ms: Paired,
    /// Updates handed to the engine in those slides.
    offered: usize,
    /// Per chunk of [`QUERY_CHUNK`] queries: mean milliseconds per query.
    query_ms: Paired,
    /// Per chunk: share of its queries within [`QUERY_LIMIT_MS`].
    slo_chunks: Vec<f64>,
    reload_s: Paired,
}

struct RealRep {
    slide_p50_ms: f64,
    prefix: Option<PrefixState>,
}

#[allow(clippy::too_many_arguments)]
fn real_rep(
    kernel: Kernel,
    spec: &PushSpec,
    stream: &dppr_graph::GraphStream,
    cfg: PprConfig,
    work: Work,
    opts: &RunOpts,
    rep: usize,
    report: &mut Report,
    reps: &mut RepValues,
    timed: &mut Timed,
    watch: &mut HostWatch,
) -> RealRep {
    // The reference runs as wide as the engine: the parallel one keeps
    // every processor busy, the queries and reloads after it only one.
    let engine_tick: fn(&mut HostWatch) -> Tick = match kernel {
        Kernel::Seq => HostWatch::tick,
        Kernel::Par => HostWatch::tick_wide,
    };
    // --- setup: inputs in memory → ready. A set-up here is a fifth of a
    // second, so it is cheap to do it several times per repetition and
    // report the median of all of them; the last one is kept and used.
    let mut setups = 0;
    let (mut engine, mut driver) = loop {
        let boot_stream = stream.clone();
        let before = engine_tick(watch);
        let t = Instant::now();
        let mut engine = Engine::new(kernel, cfg);
        let mut driver = StreamDriver::new(boot_stream, INIT_FRACTION);
        driver.bootstrap(engine.dynamic());
        let raw = t.elapsed().as_secs_f64();
        let after = engine_tick(watch);
        timed
            .setup_s
            .push(raw, slowdown(before, after, SliceClock::Wall));
        setups += 1;
        if setups == SETUPS_PER_REP {
            break (engine, driver);
        }
    };

    // --- timed phase 1: slides, a reference tick after each --------------
    let mut slide_ms = Vec::with_capacity(work.slides);
    let mut batch_us = Vec::with_capacity(work.slides);
    let (mut offered, mut applied) = (0usize, 0usize);
    let (mut busy_s, mut cpu_s) = (0.0, 0.0);
    let mut prefix = None;
    let counters0 = engine.dynamic().counters();
    let mut last = engine_tick(watch);
    while slide_ms.len() < work.slides {
        let cpu0 = host::process_cpu_s();
        let t = Instant::now();
        let Some(batch) = driver.slide_batch(spec.batch) else {
            break;
        };
        let sliced = t.elapsed();
        let stats = engine.dynamic().apply_batch(driver.graph_mut(), &batch);
        let whole = t.elapsed();
        cpu_s += host::process_cpu_s() - cpu0;
        busy_s += whole.as_secs_f64();
        batch_us.push(sliced.as_secs_f64() * 1e6);
        let ms = (whole - sliced).as_secs_f64() * 1e3;
        slide_ms.push(ms);
        offered += batch.len();
        applied += stats.applied;
        if slide_ms.len() == spec.prefix_slides {
            let counts = engine.dynamic().counters() - counters0;
            prefix = Some((
                counts,
                offered,
                opts.traced.then(|| PrefixState::of(engine.state(), counts)),
            ));
        }
        let next = engine_tick(watch);
        timed
            .slide_ms
            .push(ms, slowdown(last, next, SliceClock::Wall));
        last = next;
    }
    timed.offered += offered;
    watch.sample_threads();
    let slides = slide_ms.len();
    report.count_ops(slides as u64, 0);
    let (counts, prefix_updates, prefix) =
        prefix.expect("the stream holds more than the slide prefix");
    push_counts(reps, counts, prefix_updates, spec.prefix_slides);
    reps.push(
        "gen.offered_updates_per_s",
        offered as f64 / busy_s,
        offered,
    );
    reps.push(
        "core.cpu_s_per_mupdate",
        cpu_s / (offered as f64 / 1e6),
        offered,
    );
    reps.push(
        "graph.applied_ratio",
        applied as f64 / offered.max(1) as f64,
        offered,
    );
    reps.push("stream.slide_batch_us", median(&batch_us), batch_us.len());
    let s = summarize(slide_ms).expect("at least the slide prefix ran");
    reps.push("tail.slide_p99_ms", s.p99, s.n);
    reps.push("tail.slide_max_ms", s.max, s.n);
    let substrate = driver.graph().substrate_stats();
    reps.push("graph.arena_utilization", substrate.utilization(), 1);
    let slot_bytes = std::mem::size_of::<dppr_graph::VertexId>();
    reps.push(
        "graph.bytes_per_edge",
        (substrate.arena_slots * slot_bytes) as f64 / driver.graph().num_edges().max(1) as f64,
        1,
    );

    // --- timed phase 2: the caller's queries, closed loop, a reference
    // tick between chunks -------------------------------------------------
    let mut rng = SmallRng::seed_from_u64(derive_seed(opts.seed, 3 + rep as u64));
    let mut query_ms = Vec::with_capacity(work.queries);
    let mut last = watch.tick();
    while query_ms.len() < work.queries {
        let from = query_ms.len();
        for _ in 0..QUERY_CHUNK.min(work.queries - from) {
            let k = rng.gen_range(5..25usize);
            let t = Instant::now();
            black_box(queries::top_k(black_box(engine.state()), k));
            query_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let next = watch.tick();
        let chunk = &query_ms[from..];
        let within = chunk.iter().filter(|&&ms| ms <= QUERY_LIMIT_MS).count();
        timed.slo_chunks.push(within as f64 / chunk.len() as f64);
        timed.query_ms.push(
            chunk.iter().sum::<f64>() / chunk.len() as f64,
            slowdown(last, next, SliceClock::Wall),
        );
        last = next;
    }
    let wall_s = query_ms.iter().sum::<f64>() / 1e3;
    report.count_ops(query_ms.len() as u64, 0);
    reps.push(
        "gen.achieved_qps",
        query_ms.len() as f64 / wall_s,
        query_ms.len(),
    );
    let q = summarize(query_ms).expect("the query phase ran");
    reps.push("tail.query_p50_ms", q.p50, q.n);
    reps.push("tail.query_p90_ms", q.p90, q.n);
    reps.push("tail.query_p99_ms", q.p99, q.n);
    reps.push("tail.query_p999_ms", q.p999, q.n);
    reps.push("core.topk_us", q.p50 * 1e3, q.n);
    if rep == 0 {
        reps.push("rss_peak_mb", host::rss_peak_mb(), 1);
    }
    let estimates_us: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            black_box(engine.state().estimates());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    reps.push(
        "core.estimates_us",
        median(&estimates_us),
        estimates_us.len(),
    );

    // --- correctness, on the state the phases left ----------------------
    check_state(report, driver.graph(), engine.state(), "engine");

    // --- recovery: persist the vector, read it back ready to maintain ---
    let path = opts
        .work_dir
        .join(format!("{}-state-{rep}.tsv", opts.workload));
    let live = state_fingerprint(engine.state());
    let saved = save_state(engine.state(), &path);
    let mut restored = saved.map(|()| live);
    let mut last = watch.tick();
    for _ in 0..RELOADS_PER_REP {
        let t = Instant::now();
        restored = restored
            .and_then(|_| load_state(&path))
            .map(|st| state_fingerprint(&st));
        let raw = t.elapsed().as_secs_f64();
        let next = watch.tick();
        timed
            .reload_s
            .push(raw, slowdown(last, next, SliceClock::Wall));
        last = next;
    }
    let _ = std::fs::remove_file(&path);
    report.check(
        "recovery_fingerprint_identical",
        matches!(restored, Ok(f) if f == live),
        format!("persisted state restored as {restored:?}, live {live}"),
    );
    RealRep {
        slide_p50_ms: s.p50,
        prefix,
    }
}

struct TracedRep {
    slide_p50_ms: f64,
    prefix: Option<PrefixState>,
    tracer: Tracer,
}

fn traced_rep(
    kernel: Kernel,
    spec: &PushSpec,
    stream: &dppr_graph::GraphStream,
    cfg: PprConfig,
    work: Work,
    report: &mut Report,
    reps: &mut RepValues,
) -> TracedRep {
    let (mut pipe, boot) =
        WritePipeline::library(stream.clone(), cfg.source, cfg.epsilon, spec.batch, kernel);
    reps.push(
        "graph.ingest_edges_per_s",
        boot.window_edges as f64 / boot.ingest_s,
        boot.window_edges,
    );
    reps.push("core.bootstrap_s", boot.bootstrap_s, 1);
    let mut tr = Tracer::with_capacity(1 << 16);
    let mut offered = Vec::with_capacity(1024);
    let mut prefix = None;
    let counters0 = pipe.counters();
    while offered.len() < work.slides {
        let Some(out) = pipe.slide(&mut tr).expect("a library pipeline does no I/O") else {
            break;
        };
        offered.push(out.offered as f64);
        if offered.len() == spec.prefix_slides {
            prefix = Some(PrefixState::of(pipe.state(0), pipe.counters()));
        }
    }
    report.count_ops(offered.len() as u64, 0);
    let iterations = (pipe.counters() - counters0).iterations;
    slide_layer_metrics(&tr, &offered, iterations, 1, reps);
    check_state(report, pipe.graph(), pipe.state(0), "rebuilt pipeline");
    let s = summarize(tr.durations("slide")).expect("slides ran");
    TracedRep {
        slide_p50_ms: s.p50 / 1e6,
        prefix,
        tracer: tr,
    }
}

/// Per-layer metrics from one traced repetition's slide spans. `offered`
/// holds each slide's update count; `sessions` divides the restore cost
/// down to one session's.
pub fn slide_layer_metrics(
    tr: &Tracer,
    offered: &[f64],
    iterations: u64,
    sessions: usize,
    reps: &mut RepValues,
) {
    let n = offered.len();
    let per_update = |name: &str| -> Vec<f64> {
        tr.self_totals_by_trace(name)
            .iter()
            .zip(offered)
            .map(|(ns, u)| ns / 1e3 / u.max(1.0))
            .collect()
    };
    let apply = per_update("graph.apply");
    if !apply.is_empty() {
        reps.push("graph.apply_us_per_update", median(&apply), n);
    }
    let restore: Vec<f64> = per_update("core.restore")
        .iter()
        .map(|us| us / sessions as f64)
        .collect();
    if !restore.is_empty() {
        reps.push("core.restore_us_per_update", median(&restore), n);
    }
    let push_ns = tr.self_totals_by_trace("core.push");
    if !push_ns.is_empty() {
        reps.push("core.push_ms", median(&push_ns) / 1e6, n);
        let total_us: f64 = push_ns.iter().sum::<f64>() / 1e3;
        reps.push(
            "core.us_per_iteration",
            total_us / iterations.max(1) as f64,
            iterations as usize,
        );
    }
    let roots = tr.durations("slide");
    let root_self = tr.self_totals_by_trace("slide");
    let (total, unattributed): (f64, f64) = (roots.iter().sum(), root_self.iter().sum());
    reps.push(
        "trace.slide_attributed_ratio",
        1.0 - unattributed / total.max(1.0),
        n,
    );
    reps.push("trace.slide_unattributed_us", median(&root_self) / 1e3, n);
    reps.push("trace.spans", tr.spans().len() as f64, tr.spans().len());
}

/// The end-to-end times and rates: order statistics of the run's pooled
/// samples, in reference units and (as `raw.*`) as measured.
fn report_timed(report: &mut Report, timed: &Timed) {
    timed.setup_s.report(report, "setup_s", median);
    timed.slide_ms.report(report, "slide_p50_ms", median);
    let offered = timed.offered as f64;
    timed.slide_ms.report(report, "updates_per_s", |ms| {
        offered / (ms.iter().sum::<f64>() / 1e3)
    });
    if timed.slide_ms.len() > 0 {
        report.set(
            "tail.slide_p90_ms",
            percentile_of(&timed.slide_ms.scaled, 0.90),
            timed.slide_ms.len(),
        );
    }
    timed
        .query_ms
        .report(report, "query_sat_qps", |ms| 1e3 / median(ms));
    if !timed.slo_chunks.is_empty() {
        report.set(
            "query_slo_ratio",
            median(&timed.slo_chunks),
            timed.slo_chunks.len() * QUERY_CHUNK,
        );
    }
    timed.reload_s.report(report, "recovery_s", median);
}

/// Runs `push_seq` (`Kernel::Seq`) or `push_par` (`Kernel::Par`).
pub fn run(kernel: Kernel, opts: &RunOpts) -> Report {
    let spec = if opts.smoke {
        PushSpec::smoke()
    } else {
        PushSpec::standard()
    };
    let mut report = Report::new(&opts.workload, opts.seed);
    let busy = match kernel {
        Kernel::Seq => 1,
        Kernel::Par => host::nproc(),
    };
    let mut watch = HostWatch::open(busy, opts.smoke);
    let inputs = generate(spec.scale, spec.edges, opts.seed);
    report.set("graph.gen_s", inputs.gen_s, 1);
    let cfg = PprConfig::new(hub_source(&inputs.stream), ALPHA, spec.epsilon);

    let plan = opts.plan();
    let per_rep =
        |per_second: f64| (opts.seconds * per_second / plan.len() as f64).round() as usize;
    let work = Work {
        slides: per_rep(SLIDES_PER_SECOND).max(spec.prefix_slides),
        queries: per_rep(QUERIES_PER_SECOND).max(QUERY_CHUNK),
    };
    let mut reps = RepValues::default();
    let mut timed = Timed::default();
    let (mut real_p50, mut traced_p50) = (Vec::new(), Vec::new());
    let mut prefixes: Vec<(&str, PrefixState)> = Vec::new();
    let mut spans: Option<Tracer> = None;
    for (i, rep) in plan.iter().enumerate() {
        let began = Instant::now();
        match rep {
            Rep::Real => {
                let r = real_rep(
                    kernel,
                    &spec,
                    &inputs.stream,
                    cfg,
                    work,
                    opts,
                    i,
                    &mut report,
                    &mut reps,
                    &mut timed,
                    &mut watch,
                );
                watch.calibrate(&mut reps, began);
                real_p50.push(r.slide_p50_ms);
                prefixes.extend(r.prefix.map(|p| ("engine", p)));
            }
            Rep::Traced => {
                let r = traced_rep(
                    kernel,
                    &spec,
                    &inputs.stream,
                    cfg,
                    work,
                    &mut report,
                    &mut reps,
                );
                traced_p50.push(r.slide_p50_ms);
                prefixes.extend(r.prefix.map(|p| ("rebuilt", p)));
                match spans.as_mut() {
                    Some(all) => all.absorb(r.tracer, 1_000_000 * i as u64),
                    None => spans = Some(r.tracer),
                }
            }
        }
    }
    report.absorb(reps);
    report_timed(&mut report, &timed);
    if let Some(tr) = spans {
        report.set(
            "trace.overhead_ratio",
            median(&traced_p50) / median(&real_p50),
            traced_p50.len(),
        );
        report.set("trace.spans", tr.spans().len() as f64, tr.spans().len());
        // The sequential kernel is deterministic, so engine and rebuilt
        // pipeline must agree bit for bit. The parallel kernel adds
        // residuals from several threads once a frontier reaches the
        // fan-out threshold, and float addition does not commute in its
        // last bits: two runs of the engine itself differ there. A
        // difference is accepted only with that cause on record.
        let identical = prefixes
            .windows(2)
            .all(|w| w[0].1.fingerprint == w[1].1.fingerprint);
        let apart = prefixes
            .iter()
            .flat_map(|(_, a)| prefixes.iter().map(move |(_, b)| (a, b)))
            .flat_map(|(a, b)| {
                a.estimates
                    .iter()
                    .zip(&b.estimates)
                    .map(|(x, y)| (x - y).abs())
            })
            .fold(0.0, f64::max);
        let max_frontier = prefixes.iter().map(|(_, p)| p.max_frontier).min();
        let (same, how) =
            same_or_fanned_out(identical, max_frontier.unwrap_or(0), apart, spec.epsilon);
        let prints: Vec<String> = prefixes
            .iter()
            .map(|(who, p)| format!("{who} {:016x}", p.fingerprint))
            .collect();
        report.check(
            "traced_pipeline_identical",
            same,
            format!(
                "state after {} slides: {}: {how}",
                spec.prefix_slides,
                prints.join(", ")
            ),
        );
        let path = opts
            .work_dir
            .join(format!("trace-{}-{}.ndjson", opts.workload, opts.seed));
        if let Err(e) = tr.write_ndjson(&path, "slide") {
            report.check("trace_written", false, format!("{}: {e}", path.display()));
        }
    }
    watch.finish(&mut report, busy);
    report
}

//! `serve_read` and `serve_write`: the real server, timed from outside.
//!
//! Both start `dppr_serve::start` with one event-loop thread and one
//! write shard, auditing, tracing and SLOs off, over the same graph and
//! 32 hub sessions. `serve_read` paces the writer lightly and offers
//! 1000 q/s, so the read path does the work; `serve_write` lets a
//! durable writer run a fixed number of slides flat out and probes with
//! 100 q/s meanwhile, so the write path does. Neither reads the server's
//! internals for an end-to-end number: queries are timed at the client,
//! slides by watching the published epoch change, and what a request
//! costs the server by the CPU time of the process's other threads.

use crate::common::{
    percentile_of, same_or_fanned_out, summarize, HostWatch, Paired, Rep, RunOpts,
};
use crate::inputs::{derive_seed, generate, ServeSpec, ALPHA, INIT_FRACTION};
use crate::loadgen::{
    closed_loop, open_loop, threshold_deltas, Client, Deltas, LoadStats, Query, QueryMix,
};
use crate::push::slide_layer_metrics;
use crate::refclock::{slowdown, SliceClock};
use crate::replica::{render_topk, ReadPipeline, WritePipeline};
use crate::report::{RepValues, Report};
use crate::span::Tracer;
use crate::stats::median;
use dppr_core::exact_ppr_seq;
use dppr_graph::{GraphStream, VertexId};
use dppr_obs::HistSnapshot;
use dppr_serve::{
    boot_probe, durability, start, DurabilityConfig, EpochDomain, QuerySnapshot, Reader,
    ServeConfig, ServerHandle,
};
use dppr_stream::StreamDriver;
use dppr_wal::{Wal, WalOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop seconds per second of `--seconds`, over all repetitions.
const OPEN_SHARE: f64 = 0.41;
/// Closed-loop requests per second of `--seconds`, over all repetitions:
/// fixed work, so that every run and every commit times the same
/// requests. On the calibration sandbox they take a third of `--seconds`.
const CLOSED_REQUESTS_PER_SECOND: f64 = 18_000.0;
/// Seconds the rebuilt pipeline of a traced repetition runs per second of
/// `--seconds`, over all repetitions.
const TRACED_SHARE: f64 = 0.75;
/// Slides an unpaced writer does per second of `--seconds`, over all
/// repetitions: fixed work, so the same slides are timed on every commit.
/// Each repetition's share is rounded to whole checkpoint periods, less
/// one slide. A checkpoint takes about a second of a background thread
/// here, so how much of one falls inside the timed slides decides how
/// fast those go; this way every repetition holds the same checkpoints
/// from start to end, and none is still running when the slides are done.
const WRITE_SLIDES_PER_SECOND: f64 = 20.0;
/// Share of the closed loop an unpaced writer's workload keeps: its
/// slides take most of its run.
const WRITE_CLOSED_SHARE: f64 = 0.75;
/// How long an unpaced writer may take over its slides before the run
/// gives up.
const WRITER_DEADLINE_S: f64 = 60.0;
/// How long a paced writer may take to stop after the open loop.
const FREEZE_DEADLINE: Duration = Duration::from_secs(10);
/// The latency objective is judged over stretches of the open loop of at
/// least this many requests (and at least one chunk).
const SLO_CHUNK: u64 = 50;
/// How often the poller looks at the published epoch.
const POLL: Duration = Duration::from_micros(200);
/// One in this many open-loop top-k replies is kept, with the snapshot
/// that was current when it arrived, and compared with the kernel.
const BODY_SAMPLE: usize = 16;
/// Copies of the crash image the recovery phase boots.
const RECOVERY_COPIES: usize = 4;
const EXACT_TOL: f64 = 1e-9;
/// Convergence of the exact solves the threshold deltas come from: far
/// finer than the 2ε gaps the deltas are placed in.
const DELTA_TOL: f64 = 1e-6;
/// No threshold reply may be larger than this.
const THRESHOLD_BODY_LIMIT: usize = 64 * 1024;

/// Which server workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
}

fn fresh_dir(path: &Path) -> io::Result<()> {
    match std::fs::remove_dir_all(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    std::fs::create_dir_all(path)
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

fn server_config(spec: &ServeSpec, durability: Option<DurabilityConfig>) -> ServeConfig {
    ServeConfig {
        threads: 1,
        write_shards: 1,
        cache_capacity: spec.cache_capacity,
        session_capacity: spec.sessions.max(1),
        alpha: ALPHA,
        epsilon: spec.epsilon,
        batch: spec.batch,
        slide_pause: spec.slide_pause,
        durability,
        audit_sample: 0,
        trace_sample: 0,
        ..ServeConfig::default()
    }
}

/// Watches the published epoch from a sleeping thread and timestamps
/// every change, so slide latency is what a reader of the server sees.
struct EpochPoller {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Vec<(Instant, u64)>>,
}

impl EpochPoller {
    fn spawn(domain: Arc<EpochDomain>) -> io::Result<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("dppr-bench-poller".into())
            .spawn(move || {
                let mut seen = Vec::with_capacity(4096);
                let mut last = domain.epoch();
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(POLL);
                    let e = domain.epoch();
                    if e != last {
                        seen.push((Instant::now(), e));
                        last = e;
                    }
                }
                seen
            })?;
        Ok(EpochPoller { stop, thread })
    }

    /// Stops the poller and returns the intervals in milliseconds between
    /// consecutive publications seen inside `[from, to]`, each with the
    /// time it ended. A poll that finds the epoch advanced by `k` stands
    /// for `k` equal intervals.
    fn finish(self, from: Instant, to: Instant) -> Vec<(Instant, f64)> {
        self.stop.store(true, Ordering::Relaxed);
        let seen = self.thread.join().expect("the poller does not panic");
        let mut out = Vec::with_capacity(seen.len());
        for pair in seen.windows(2) {
            let ((t0, e0), (t1, e1)) = (pair[0], pair[1]);
            if t0 >= from && t1 <= to && e1 > e0 {
                let k = (e1 - e0) as usize;
                let ms = (t1 - t0).as_secs_f64() * 1e3 / k as f64;
                out.extend(std::iter::repeat_n((t1, ms), k));
            }
        }
        out
    }
}

/// The graph the server holds at a given epoch, rebuilt from the stream:
/// epoch 1 is the initial window, every later epoch one slide.
struct ShadowGraph {
    driver: StreamDriver,
    batch: usize,
    epoch: u64,
}

impl ShadowGraph {
    fn new(stream: GraphStream, batch: usize) -> Self {
        let mut driver = StreamDriver::new(stream, INIT_FRACTION);
        for upd in driver.take_initial_batch() {
            driver.graph_mut().apply(upd);
        }
        ShadowGraph {
            driver,
            batch,
            epoch: 1,
        }
    }

    fn advance_to(&mut self, epoch: u64) -> bool {
        while self.epoch < epoch {
            let Some(batch) = self.driver.slide_batch(self.batch) else {
                return false;
            };
            for upd in batch {
                self.driver.graph_mut().apply(upd);
            }
            self.epoch += 1;
        }
        self.epoch == epoch
    }
}

/// Every session's threshold deltas, from its exact PPR vector on the
/// initial window: inputs made from the seed alone, before a server runs.
fn session_deltas(stream: &GraphStream, sources: &[VertexId], spec: &ServeSpec) -> Vec<Deltas> {
    let shadow = ShadowGraph::new(stream.clone(), spec.batch);
    sources
        .iter()
        .map(|&s| {
            let exact = exact_ppr_seq(shadow.driver.graph(), s, ALPHA, DELTA_TOL);
            threshold_deltas(&exact, spec.epsilon)
        })
        .collect()
}

fn load_snapshot(
    handle: &ServerHandle,
    reader: &Reader,
    source: VertexId,
) -> Option<Arc<QuerySnapshot>> {
    handle
        .registry()
        .peek(source)
        .map(|entry| entry.load(reader))
}

fn body_epoch(body: &str) -> Option<u64> {
    let rest = &body[body.find("\"epoch\":")? + 8..];
    rest[..rest.find([',', '}'])?].parse().ok()
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn hist_metrics(reps: &mut RepValues, name: &'static str, h: &HistSnapshot, scale: f64) {
    if h.count > 0 {
        reps.push(name, h.mean() / scale, h.count as usize);
    }
}

/// What a real repetition hands to the rest of the run.
struct RealRep {
    /// Publication interval p50 minus the configured pause.
    slide_busy_p50_ms: f64,
    /// Open-loop requests completed per slide, to pace the rebuilt pipeline.
    requests_per_slide: f64,
}

/// How long one repetition's open loop runs.
#[derive(Debug, Clone, Copy)]
enum OpenLoop {
    /// For this many requests; the paced writer slides on throughout.
    Requests(usize),
    /// Until the unpaced writer has done this many slides and stopped.
    UntilSlides(usize),
}

/// One repetition's share of the run's work.
#[derive(Debug, Clone, Copy)]
struct Work {
    open: OpenLoop,
    /// Timed chunks of the closed loop, after one that warms the cache.
    closed_chunks: usize,
}

/// The run's timed samples, every repetition's together. Each is
/// bracketed by two reference ticks and rescaled by them.
#[derive(Default)]
struct Timed {
    setup_s: Paired,
    /// Intervals between consecutive epoch publications in the open loop.
    interval_ms: Paired,
    /// Updates the writer was handed in those intervals.
    updates: f64,
    /// Per stretch of the open loop: share of attempted queries answered
    /// within the limit.
    slo_chunks: Vec<f64>,
    /// Per chunk of the closed loop: CPU seconds of the server's threads
    /// per completed request.
    request_cpu_s: Paired,
    probe_s: Paired,
}

#[allow(clippy::too_many_arguments)]
fn real_rep(
    spec: &ServeSpec,
    stream: &GraphStream,
    vertex_bound: usize,
    sources: &[VertexId],
    deltas: &[Deltas],
    work: Work,
    opts: &RunOpts,
    rep: usize,
    report: &mut Report,
    reps: &mut RepValues,
    timed: &mut Timed,
    watch: &mut HostWatch,
) -> io::Result<RealRep> {
    let dir = opts
        .work_dir
        .join(format!("{}-{}-rep{rep}", opts.workload, opts.seed));
    fresh_dir(&dir)?;
    // Both writers stop after a fixed number of slides, so that the
    // closed loop runs against a frozen epoch. The unpaced one is given
    // its slides outright; the paced one as many as outlast the open loop
    // (each takes at least its pause).
    let max_slides = match work.open {
        OpenLoop::Requests(total) => {
            let open_s = total as f64 / spec.open_qps;
            (open_s / spec.slide_pause.as_secs_f64()).ceil() as usize + 1
        }
        OpenLoop::UntilSlides(slides) => slides,
    };
    let cfg = ServeConfig {
        max_slides,
        ..server_config(spec, spec.durable.then(|| DurabilityConfig::new(&dir)))
    };

    // --- setup: inputs in memory → answering queries ---------------------
    let boot_stream = stream.clone();
    let before = watch.tick();
    let t = Instant::now();
    let handle = start(boot_stream, INIT_FRACTION, sources, cfg)?;
    let setup_s = t.elapsed().as_secs_f64();
    // Nothing else runs while a server boots or a crash image is probed,
    // so those are scaled by the slices' wall time (a boot by the tick
    // before it alone: the one after would run beside the server's
    // threads); the phases against a running server by their CPU time.
    timed
        .setup_s
        .push(setup_s, slowdown(before, before, SliceClock::Wall));
    reps.push("serve.start_s", setup_s, 1);

    let reader = handle.registry().domain().register_reader();
    let poller = EpochPoller::spawn(Arc::clone(handle.registry().domain()))?;
    let addr = handle.addr();
    let mut mix = QueryMix::new(
        derive_seed(opts.seed, 10 + rep as u64),
        sources,
        deltas,
        vertex_bound,
    );
    let mut clients = (0..2)
        .map(|_| Client::connect(addr))
        .collect::<io::Result<Vec<_>>>()?;

    // --- timed phase (a): open loop at the stated rate, in chunks with a
    // reference tick between them. A paced writer slides on throughout;
    // an unpaced one is given a fixed number of slides and the loop runs
    // until it has done them. -----------------------------------------------
    let stats = handle.stats();
    let slides0 = stats.slides.load(Ordering::Relaxed);
    let offered0 = stats.updates_offered.load(Ordering::Relaxed);
    let applied0 = stats.updates_applied.load(Ordering::Relaxed);
    let cpu0 = crate::host::process_cpu_s();
    let phase_start = Instant::now();
    let mut sampled: Vec<(usize, String, Option<Arc<QuerySnapshot>>)> = Vec::new();
    let chunk = ((spec.open_qps * spec.chunk_s) as usize).max(1);
    // An unpaced writer that has not finished after this many probes is stuck.
    let give_up = (spec.open_qps * WRITER_DEADLINE_S) as usize;
    let mut open = LoadStats::default();
    let mut sent = 0usize;
    // Every chunk's end and the slowdown of the two ticks around it, to
    // rescale the slides published during it. A paced writer's interval
    // is its pause, not its work, and is left as measured.
    let mut chunk_ends: Vec<(Instant, f64)> = Vec::new();
    let (mut slo_within, mut slo_attempted) = (0u64, 0u64);
    let slo_chunks_before = timed.slo_chunks.len();
    let mut last = watch.tick();
    let writer_done = loop {
        let (n, done) = match work.open {
            OpenLoop::Requests(total) => (chunk.min(total - sent), true),
            OpenLoop::UntilSlides(slides) => {
                let done = stats.slides.load(Ordering::Relaxed) >= slides as u64;
                (if done || sent >= give_up { 0 } else { chunk }, done)
            }
        };
        if n == 0 {
            break done;
        }
        let queries: Vec<Query> = (0..n).map(|_| mix.next_query()).collect();
        let requests: Vec<Vec<u8>> = queries.iter().map(Query::request_bytes).collect();
        let stretch = open_loop(spec.open_qps, n, |i| {
            let Ok(reply) = clients[(sent + i) % 2].call(&requests[i]) else {
                return false;
            };
            if reply.status != 200 {
                return false;
            }
            if (sent + i).is_multiple_of(BODY_SAMPLE) {
                if let Query::TopK { source, k } = queries[i] {
                    sampled.push((k, reply.body, load_snapshot(&handle, &reader, source)));
                }
            }
            true
        });
        sent += n;
        slo_within += stretch.within_limit;
        slo_attempted += stretch.attempted;
        if slo_attempted >= SLO_CHUNK {
            timed
                .slo_chunks
                .push(slo_within as f64 / slo_attempted as f64);
            (slo_within, slo_attempted) = (0, 0);
        }
        open.absorb(stretch);
        let next = watch.tick();
        let factor = if spec.slide_pause.is_zero() {
            slowdown(last, next, SliceClock::ThreadCpu)
        } else {
            1.0
        };
        chunk_ends.push((Instant::now(), factor));
        last = next;
    };
    // A rest shorter than a stretch is left out, unless it is all there is.
    if slo_attempted > 0 && timed.slo_chunks.len() == slo_chunks_before {
        timed
            .slo_chunks
            .push(slo_within as f64 / slo_attempted as f64);
    }
    if !writer_done {
        report.check(
            "writer_finished",
            false,
            format!(
                "{} slides after {WRITER_DEADLINE_S} s of probing, wanted {:?}",
                stats.slides.load(Ordering::Relaxed),
                work.open
            ),
        );
    }
    // Slides and update throughput are taken over this phase only: the
    // closed loop that follows keeps the event loop and the generator
    // busy, which on two processors takes time from a writer.
    let open_end = Instant::now();
    let cpu_s = crate::host::process_cpu_s() - cpu0;
    let slid = stats.slides.load(Ordering::Relaxed) - slides0;
    let offered = stats.updates_offered.load(Ordering::Relaxed) - offered0;
    let applied = stats.updates_applied.load(Ordering::Relaxed) - applied0;
    watch.sample_threads();
    let intervals = poller.finish(phase_start, open_end);
    // A paced writer has a few slides left; the closed loop waits for it.
    let freeze_by = Instant::now() + FREEZE_DEADLINE;
    while stats.slides.load(Ordering::Relaxed) < max_slides as u64 && Instant::now() < freeze_by {
        std::thread::sleep(Duration::from_millis(1));
    }

    // --- timed phase (b): closed loop, pipelined, against the frozen
    // epoch: what a request costs the server when it never waits for a
    // client. Fixed work: chunks of a fixed number of requests from the
    // seeded mix, the first of which only warms the cache. One generator
    // thread cannot saturate an event loop whose request is cheaper than
    // the generator's own, so a chunk is timed by the CPU seconds of the
    // server's threads, not by wall time. The loop keeps two threads
    // busy, the generator and the event loop, and so do the reference
    // ticks around each chunk. ---------------------------------------------
    let mut closed_clients = (0..spec.closed_conns)
        .map(|_| Client::connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let mut closed = LoadStats::default();
    let mut last = watch.tick_wide();
    for chunk in 0..work.closed_chunks + 1 {
        let cpu_before = (crate::host::process_cpu_s(), crate::host::thread_cpu_s());
        let stretch = closed_loop(
            &mut closed_clients,
            spec.closed_depth,
            spec.closed_chunk,
            || mix.next_query().request_bytes(),
            |reply| reply.status == 200,
        );
        // CPU seconds of every thread but this one. Wall time where the
        // platform keeps no thread clock.
        let server_cpu_s = match (cpu_before.1, crate::host::thread_cpu_s()) {
            (Some(own0), Some(own1)) => crate::host::process_cpu_s() - cpu_before.0 - (own1 - own0),
            _ => stretch.wall_s,
        };
        let next = watch.tick_wide();
        let completed = stretch.latencies_ms.len();
        if chunk > 0 && completed > 0 {
            timed.request_cpu_s.push(
                server_cpu_s.max(1e-9) / completed as f64,
                slowdown(last, next, SliceClock::ThreadCpu),
            );
        }
        last = next;
        closed.absorb(stretch);
    }
    if rep == 0 {
        reps.push("rss_peak_mb", crate::host::rss_peak_mb(), 1);
    }

    // --- end-to-end numbers of this repetition ---------------------------
    report.count_ops(
        open.attempted + closed.attempted,
        open.failed() + closed.failed(),
    );
    report.count_ops(intervals.len() as u64, 0);
    // Every interval is rescaled by the chunk it ended in. Updates per
    // slide times the slides seen, over the time those took: the counters
    // alone would count whole slides against a window that cuts the first
    // and the last one.
    let per_slide = offered as f64 / slid.max(1) as f64;
    timed.updates += per_slide * intervals.len() as f64;
    for &(at, ms) in &intervals {
        let chunk = chunk_ends.partition_point(|&(end, _)| end < at);
        let factor = chunk_ends
            .get(chunk)
            .or(chunk_ends.last())
            .map_or(1.0, |c| c.1);
        timed.interval_ms.push(ms, factor);
    }
    let intervals: Vec<f64> = intervals.into_iter().map(|(_, ms)| ms).collect();
    let mean_interval_s = intervals.iter().sum::<f64>() / intervals.len().max(1) as f64 / 1e3;
    let rate = per_slide / mean_interval_s;
    let slides = summarize(intervals).ok_or_else(|| io::Error::other("no slide was published"))?;
    reps.push("tail.slide_p99_ms", slides.p99, slides.n);
    reps.push("tail.slide_max_ms", slides.max, slides.n);
    reps.push(
        "tail.query_slo_ratio",
        open.slo_ratio(),
        open.attempted as usize,
    );
    reps.push("gen.achieved_qps", open.qps(), open.latencies_ms.len());
    reps.push("gen.closed_qps", closed.qps(), closed.latencies_ms.len());
    let late =
        summarize(std::mem::take(&mut open.lateness_ms)).expect("the open loop sent requests");
    reps.push("gen.lateness_p99_ms", late.p99, late.n);
    let pause_s = spec.slide_pause.as_secs_f64();
    let offered_rate = if pause_s > 0.0 {
        2.0 * spec.batch as f64 / pause_s
    } else {
        rate
    };
    reps.push("gen.offered_updates_per_s", offered_rate, offered as usize);
    let completed = open.latencies_ms.len();
    let q = summarize(open.latencies_ms).ok_or_else(|| io::Error::other("every query failed"))?;
    reps.push("tail.query_p50_ms", q.p50, q.n);
    reps.push("tail.query_p90_ms", q.p90, q.n);
    reps.push("tail.query_p99_ms", q.p99, q.n);
    reps.push("tail.query_p999_ms", q.p999, q.n);

    // --- per-layer numbers the server keeps about itself -----------------
    let m = handle.metrics();
    let request = m.http_request.snapshot();
    hist_metrics(reps, "serve.parse_us", &m.http_parse.snapshot(), 1e3);
    hist_metrics(reps, "serve.route_us", &m.http_route.snapshot(), 1e3);
    hist_metrics(reps, "serve.write_us", &m.http_write.snapshot(), 1e3);
    hist_metrics(reps, "serve.checkpoint_ms", &m.checkpoint.snapshot(), 1e6);
    if request.count > 0 {
        reps.push(
            "serve.request_p50_us",
            us(request.p50() as f64),
            request.count as usize,
        );
        reps.push(
            "serve.request_p99_us",
            us(request.p99() as f64),
            request.count as usize,
        );
        reps.push(
            "serve.unattributed_us",
            q.p50 * 1e3 - us(request.p50() as f64),
            q.n,
        );
    }
    let cache = handle.cache().stats();
    reps.push(
        "serve.cache_hit_ratio",
        cache.hit_rate(),
        (cache.hits + cache.misses) as usize,
    );
    reps.push("serve.cache_evictions", cache.evictions as f64, 1);
    reps.push("serve.cache_stale_purged", cache.stale_purged as f64, 1);
    let served = handle.stats().queries.load(Ordering::Relaxed);
    let shed = handle.stats().shed.load(Ordering::Relaxed);
    reps.push(
        "serve.shed_ratio",
        shed as f64 / served.max(1) as f64,
        served as usize,
    );
    reps.push(
        "graph.applied_ratio",
        applied as f64 / offered.max(1) as f64,
        offered as usize,
    );
    reps.push(
        "core.cpu_s_per_mupdate",
        cpu_s / (offered.max(1) as f64 / 1e6),
        offered as usize,
    );
    let bytes: usize = sources
        .iter()
        .filter_map(|&s| load_snapshot(&handle, &reader, s))
        .map(|snap| snap.len() * std::mem::size_of::<f64>())
        .sum();
    reps.push("serve.publish_bytes_per_slide", bytes as f64, sources.len());
    let mut scraper = Client::connect(addr)?;
    for _ in 0..3 {
        scraper.call(b"GET /metrics HTTP/1.1\r\nHost: dppr\r\n\r\n")?;
    }
    hist_metrics(
        reps,
        "obs.scrape_ms",
        &handle.metrics().metrics_scrape.snapshot(),
        1e6,
    );

    // --- correctness, on the epoch the writer stopped at -----------------
    check_bodies(report, &sampled);
    check_sweep(report, &handle, &reader, &mut scraper, sources);
    check_thresholds(report, reps, &mut scraper, sources, deltas);
    check_accuracy(
        report,
        &handle,
        &reader,
        stream,
        spec,
        sources,
        opts.seed + rep as u64,
    );

    drop(reader);
    let final_report = handle.join();
    if final_report.degraded {
        report.check(
            "server_not_degraded",
            false,
            "the WAL failed and the server went read-only".into(),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(RealRep {
        slide_busy_p50_ms: (slides.p50 - pause_s * 1e3).max(1e-3),
        requests_per_slide: completed as f64 / slides.n.max(1) as f64,
    })
}

/// `http_topk_equals_kernel`, sampled: a reply kept together with the
/// snapshot current at its arrival must equal the kernel's rendering of
/// that snapshot. A sample whose snapshot had already moved to the next
/// epoch cannot be judged and is not counted.
fn check_bodies(report: &mut Report, sampled: &[(usize, String, Option<Arc<QuerySnapshot>>)]) {
    let (mut compared, mut wrong) = (0u64, 0u64);
    for (k, body, snap) in sampled {
        let Some(snap) = snap else { continue };
        if body_epoch(body) != Some(snap.epoch()) {
            continue;
        }
        compared += 1;
        if *body != render_topk(snap, *k, None) {
            wrong += 1;
        }
    }
    report.check(
        "http_topk_equals_kernel",
        wrong == 0,
        format!(
            "sampled: {compared} of {} replies compared, {wrong} differ",
            sampled.len()
        ),
    );
}

/// `http_topk_equals_kernel`, swept: every session's `/topk` equals the
/// kernel on the snapshot of the same epoch. The writer may publish
/// between the load and the request, so a pair at different epochs is
/// retried.
fn check_sweep(
    report: &mut Report,
    handle: &ServerHandle,
    reader: &Reader,
    client: &mut Client,
    sources: &[VertexId],
) {
    let mut wrong = Vec::new();
    for &source in sources {
        let request = Query::TopK { source, k: 10 }.request_bytes();
        let mut verdict = None;
        for _ in 0..8 {
            let Some(snap) = load_snapshot(handle, reader, source) else {
                break;
            };
            let Ok(reply) = client.call(&request) else {
                break;
            };
            if reply.status == 200 && body_epoch(&reply.body) == Some(snap.epoch()) {
                verdict = Some(reply.body == render_topk(&snap, 10, None));
                break;
            }
        }
        if verdict != Some(true) {
            wrong.push(source);
        }
    }
    report.check(
        "http_topk_equals_kernel",
        wrong.is_empty(),
        format!(
            "sweep of {} sessions, wrong or unreachable: {wrong:?}",
            sources.len()
        ),
    );
}

/// `threshold_selects`: every delta the mix uses, asked of its session
/// once more now that the window has slid on: no answer may be empty (a
/// delta above every score would leave a tenth of the traffic selecting
/// and rendering nothing) and none larger than [`THRESHOLD_BODY_LIMIT`].
/// The median answer's row count is `gen.threshold_rows`.
fn check_thresholds(
    report: &mut Report,
    reps: &mut RepValues,
    client: &mut Client,
    sources: &[VertexId],
    deltas: &[Deltas],
) {
    let mut rows = Vec::with_capacity(sources.len() * 3);
    let (mut largest, mut unanswered) = (0usize, 0usize);
    for (&source, session) in sources.iter().zip(deltas) {
        for &delta in session {
            match client.call(&Query::Threshold { source, delta }.request_bytes()) {
                Ok(reply) if reply.status == 200 => {
                    rows.push(reply.body.matches("\"vertex\":").count() as f64);
                    largest = largest.max(reply.body.len());
                }
                _ => unanswered += 1,
            }
        }
    }
    let Some(r) = summarize(rows) else {
        report.check(
            "threshold_selects",
            false,
            "no threshold query was answered".into(),
        );
        return;
    };
    reps.push("gen.threshold_rows", r.p50, r.n);
    report.check(
        "threshold_selects",
        unanswered == 0 && r.min >= 1.0 && largest <= THRESHOLD_BODY_LIMIT,
        format!(
            "{} answers, {unanswered} unanswered: {} / {} / {} rows (fewest / median / most), \
             largest body {largest} bytes",
            r.n, r.min, r.p50, r.max
        ),
    );
}

/// `linf_vs_exact` for two seeded sessions: the published estimates are
/// within ε of an exact solve on the graph of the same epoch.
fn check_accuracy(
    report: &mut Report,
    handle: &ServerHandle,
    reader: &Reader,
    stream: &GraphStream,
    spec: &ServeSpec,
    sources: &[VertexId],
    seed: u64,
) {
    let mut shadow = ShadowGraph::new(stream.clone(), spec.batch);
    for pick in 0..2u64 {
        let source = sources[(derive_seed(seed, 20 + pick) % sources.len() as u64) as usize];
        let Some(snap) = load_snapshot(handle, reader, source) else {
            report.check("linf_vs_exact", false, format!("session {source} is gone"));
            continue;
        };
        if !shadow.advance_to(snap.epoch()) {
            report.check(
                "linf_vs_exact",
                false,
                format!("no graph for epoch {}", snap.epoch()),
            );
            continue;
        }
        let truth = exact_ppr_seq(shadow.driver.graph(), source, ALPHA, EXACT_TOL);
        let linf = (0..truth.len().max(snap.len()))
            .map(|v| {
                let t = truth.get(v).copied().unwrap_or(0.0);
                let e = snap.estimates().get(v).copied().unwrap_or(0.0);
                (t - e).abs()
            })
            .fold(0.0, f64::max);
        report.check(
            "linf_vs_exact",
            linf <= spec.epsilon + EXACT_TOL,
            format!(
                "session {source} epoch {}: {linf:e} against epsilon {:e}",
                snap.epoch(),
                spec.epsilon
            ),
        );
    }
}

/// One traced repetition: the write and read pipelines rebuilt from
/// public calls, interleaved on this thread at the ratio the real
/// repetition saw.
#[allow(clippy::too_many_arguments)]
fn traced_rep(
    spec: &ServeSpec,
    stream: &GraphStream,
    vertex_bound: usize,
    sources: &[VertexId],
    deltas: &[Deltas],
    budget_s: f64,
    requests_per_slide: f64,
    opts: &RunOpts,
    rep: usize,
    report: &mut Report,
    reps: &mut RepValues,
) -> io::Result<(f64, Tracer, Tracer)> {
    let dir = opts
        .work_dir
        .join(format!("{}-{}-rep{rep}", opts.workload, opts.seed));
    fresh_dir(&dir)?;
    let durable = spec.durable.then(|| DurabilityConfig::new(&dir));
    let (mut pipe, boot) = WritePipeline::server(
        stream.clone(),
        sources,
        spec.epsilon,
        spec.batch,
        durable.as_ref(),
    )?;
    reps.push(
        "graph.ingest_edges_per_s",
        boot.window_edges as f64 / boot.ingest_s,
        boot.window_edges,
    );
    reps.push("core.bootstrap_s", boot.bootstrap_s, sources.len());
    let mut read = ReadPipeline::new(
        pipe.registry().expect("server pipelines publish"),
        spec.cache_capacity,
    );
    let mut mix = QueryMix::new(derive_seed(opts.seed, 10), sources, deltas, vertex_bound);
    let (mut slide_tr, mut req_tr) = (
        Tracer::with_capacity(1 << 17),
        Tracer::with_capacity(1 << 17),
    );
    let mut offered = Vec::with_capacity(1024);
    let mut owed = 0.0f64;
    let (mut served, mut refused) = (0u64, 0u64);
    let counters0 = pipe.counters();
    let wal0 = pipe.wal_stats();
    let phase = Instant::now();
    while phase.elapsed().as_secs_f64() < budget_s {
        let Some(out) = pipe.slide(&mut slide_tr)? else {
            break;
        };
        offered.push(out.offered as f64);
        owed += requests_per_slide;
        let registry = pipe.registry().expect("server pipelines publish");
        while owed >= 1.0 {
            owed -= 1.0;
            served += 1;
            if read.serve(registry, &mix.next_query().request_bytes(), &mut req_tr) != Ok(200) {
                refused += 1;
            }
        }
    }
    let wall_s = phase.elapsed().as_secs_f64();
    report.count_ops(offered.len() as u64 + served, refused);
    let iterations = (pipe.counters() - counters0).iterations;
    slide_layer_metrics(&slide_tr, &offered, iterations, sources.len(), reps);
    let n = offered.len();
    let estimates = slide_tr.durations("core.estimates");
    if !estimates.is_empty() {
        reps.push("core.estimates_us", us(median(&estimates)), estimates.len());
        reps.push(
            "serve.publish_ms",
            median(&slide_tr.self_totals_by_trace("serve.publish")) / 1e6,
            n,
        );
    }
    let appends = slide_tr.durations("wal.append");
    if let (Some(w0), Some(w1), false) = (wal0, pipe.wal_stats(), appends.is_empty()) {
        let updates: f64 = offered.iter().sum();
        let syncs = w1.syncs - w0.syncs;
        reps.push("wal.append_us", us(median(&appends)), appends.len());
        reps.push(
            "wal.fsync_ms",
            (w1.sync_nanos - w0.sync_nanos) as f64 / 1e6 / syncs.max(1) as f64,
            syncs as usize,
        );
        reps.push("wal.fsyncs_per_s", syncs as f64 / wall_s, syncs as usize);
        reps.push(
            "wal.bytes_per_update",
            (w1.bytes_written - w0.bytes_written) as f64 / updates.max(1.0),
            n,
        );
    }
    let topk = req_tr.durations("core.topk");
    if !topk.is_empty() {
        reps.push("core.topk_us", us(median(&topk)), topk.len());
    }
    let lookups = req_tr.durations("serve.cache");
    if !lookups.is_empty() {
        reps.push(
            "serve.snapshot_query_us",
            us(median(&lookups)),
            lookups.len(),
        );
        reps.push(
            "trace.request_unattributed_us",
            us(median(&req_tr.self_totals_by_trace("request"))),
            lookups.len(),
        );
    }
    let substrate = pipe.graph().substrate_stats();
    reps.push("graph.arena_utilization", substrate.utilization(), 1);
    reps.push(
        "graph.bytes_per_edge",
        (substrate.arena_slots * std::mem::size_of::<VertexId>()) as f64
            / pipe.graph().num_edges().max(1) as f64,
        1,
    );
    for i in 0..2 {
        let violation =
            dppr_core::max_invariant_violation(pipe.graph(), pipe.state(i % sources.len()));
        report.check(
            "max_invariant_violation",
            violation <= 1e-9,
            format!("rebuilt session {i}: {violation:e}"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let p50_ms = summarize(slide_tr.durations("slide")).map_or(0.0, |s| s.p50 / 1e6);
    Ok((p50_ms, slide_tr, req_tr))
}

/// Largest difference between two sets of snapshots' estimates, matched
/// by position.
fn furthest_apart(a: &[Arc<QuerySnapshot>], b: &[Arc<QuerySnapshot>]) -> f64 {
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| {
            x.estimates()
                .iter()
                .zip(y.estimates())
                .map(|(p, q)| (p - q).abs())
        })
        .fold(0.0, f64::max)
}

/// Boots a real server on a crash image, over the stream cut at the
/// image's window end so that it recovers and then has nothing left to
/// slide, and returns the snapshots it publishes.
fn recovered_snapshots(
    stream: &GraphStream,
    sources: &[VertexId],
    cfg: ServeConfig,
    window_end: usize,
) -> io::Result<Vec<Arc<QuerySnapshot>>> {
    let cut = GraphStream::directed((0..window_end).map(|i| stream.edge_at(i)).collect());
    let handle = start(cut, INIT_FRACTION, sources, cfg)?;
    let reader = handle.registry().domain().register_reader();
    let snaps = sources
        .iter()
        .filter_map(|&s| load_snapshot(&handle, &reader, s))
        .collect();
    drop(reader);
    handle.join();
    Ok(snaps)
}

/// The rebuilt write pipeline taken over the work a crash image's
/// recovery does: resumed from the image's base checkpoint, as recovery
/// resumes (a bootstrap of its own would fan its first push out over
/// threads and differ in the last bits before the first slide), and slid
/// over as many batches as the image's WAL tail holds.
fn replay_image(
    spec: &ServeSpec,
    stream: &GraphStream,
    ckpt: durability::LoadedCheckpoint,
) -> io::Result<WritePipeline> {
    let mut pipe = WritePipeline::resume_server(stream.clone(), ckpt, spec.batch);
    let mut tr = Tracer::with_capacity(1 << 14);
    for _ in 0..spec.recovery_slides {
        pipe.slide(&mut tr)?;
    }
    Ok(pipe)
}

/// The traced half of the recovery phase, on an untouched copy of the
/// crash image: where recovery time goes, and whether the rebuilt write
/// pipeline lands on the state the frozen server published.
fn traced_recovery(
    spec: &ServeSpec,
    stream: &GraphStream,
    sources: &[VertexId],
    dir: &Path,
    live: &[Arc<QuerySnapshot>],
    recovery_s: f64,
    report: &mut Report,
) -> io::Result<()> {
    // Where recovery time goes, by timing its public pieces; the
    // remainder is the window rebuild and the replay.
    let t = Instant::now();
    let ckpt = durability::load_latest_checkpoint(dir)?;
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let d = DurabilityConfig::new(dir);
    let t = Instant::now();
    let (_, tail) = Wal::open(
        &durability::wal_dir(dir),
        WalOptions {
            segment_bytes: d.segment_bytes,
            fsync: d.fsync,
        },
    )?;
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    report.set(
        "serve.ckpt_load_ms",
        load_ms,
        ckpt.as_ref().map_or(0, |c| c.states.len()),
    );
    report.set("wal.open_replay_ms", open_ms, tail.len());
    report.set(
        "serve.replay_ms",
        (recovery_s * 1e3 - load_ms - open_ms).max(0.0),
        RECOVERY_COPIES,
    );

    let Some(ckpt) = ckpt else {
        report.check(
            "traced_pipeline_identical",
            false,
            "the crash image holds no checkpoint".into(),
        );
        return Ok(());
    };
    let pipe = replay_image(spec, stream, ckpt)?;
    let registry = pipe.registry().expect("server pipelines publish");
    let rebuilt_reader = registry.domain().register_reader();
    let rebuilt: Vec<Arc<QuerySnapshot>> = sources
        .iter()
        .filter_map(|&s| registry.peek(s))
        .map(|e| e.load(&rebuilt_reader))
        .collect();
    let identical = rebuilt.len() == live.len()
        && rebuilt
            .iter()
            .zip(live)
            .all(|(a, b)| a.fingerprint() == b.fingerprint());
    let (same, how) = same_or_fanned_out(
        identical,
        pipe.counters().max_frontier,
        furthest_apart(&rebuilt, live),
        spec.epsilon,
    );
    report.check(
        "traced_pipeline_identical",
        same && rebuilt.len() == live.len(),
        format!(
            "rebuilt write pipeline, {} slides on from the server's epoch-1 checkpoint, against the \
             server's published snapshots: {how}",
            spec.recovery_slides
        ),
    );
    Ok(())
}

/// The recovery phase. A durable server with periodic checkpoints off
/// slides `recovery_slides` times and freezes; its data directory, copied
/// while frozen, is a crash image whose recovery is exactly one base
/// checkpoint load plus a `recovery_slides`-batch WAL replay.
/// `recovery_s` is the median wall of `boot_probe` over fresh copies.
/// Each probe must land on the state the frozen server held, which the
/// server's own final checkpoint records after a clean shutdown.
fn recovery_phase(
    spec: &ServeSpec,
    stream: &GraphStream,
    sources: &[VertexId],
    opts: &RunOpts,
    timed: &mut Timed,
    watch: &mut HostWatch,
    report: &mut Report,
) -> io::Result<()> {
    let image = opts
        .work_dir
        .join(format!("{}-{}-image", opts.workload, opts.seed));
    fresh_dir(&image)?;
    let durable = |dir: &Path| DurabilityConfig {
        checkpoint_every_slides: 0,
        ..DurabilityConfig::new(dir)
    };
    let config = |dir: &Path| ServeConfig {
        max_slides: spec.recovery_slides,
        slide_pause: Duration::ZERO,
        ..server_config(spec, Some(durable(dir)))
    };
    let handle = start(stream.clone(), INIT_FRACTION, sources, config(&image))?;
    let reader = handle.registry().domain().register_reader();
    let frozen_epoch = spec.recovery_slides as u64 + 1;
    let deadline = Instant::now() + Duration::from_secs(120);
    let live: Vec<Arc<QuerySnapshot>> = loop {
        let snaps: Vec<_> = sources
            .iter()
            .filter_map(|&s| load_snapshot(&handle, &reader, s))
            .collect();
        let frozen =
            snaps.len() == sources.len() && snaps.iter().all(|s| s.epoch() == frozen_epoch);
        if frozen || Instant::now() > deadline {
            break if frozen { snaps } else { Vec::new() };
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    // The timed copies, and one that stays untouched for the bench's own
    // replay of the image.
    let copies: Vec<PathBuf> = (0..RECOVERY_COPIES + 1)
        .map(|c| image.with_extension(format!("copy{c}")))
        .collect();
    for copy in &copies {
        fresh_dir(copy)?;
        copy_dir(&image, copy)?;
    }
    let (probed, untouched) = copies.split_at(RECOVERY_COPIES);
    drop(reader);
    handle.join();
    if live.is_empty() {
        report.check(
            "recovery_fingerprint_identical",
            false,
            "the image server never froze".into(),
        );
        return Ok(());
    }
    // After a clean shutdown the directory holds a checkpoint of the
    // frozen state itself; probing it replays nothing.
    let reference = boot_probe(stream.clone(), INIT_FRACTION, sources, &config(&image))?;
    let clean = reference.epoch == frozen_epoch
        && reference.recovery.is_some_and(|r| r.replayed_batches == 0);
    let mut prints = vec![reference.fingerprints];
    let mut replayed_all = true;
    for copy in probed {
        let boot_stream = stream.clone();
        let cfg = config(copy);
        let before = watch.tick();
        let t = Instant::now();
        let probe = boot_probe(boot_stream, INIT_FRACTION, sources, &cfg)?;
        let raw = t.elapsed().as_secs_f64();
        let after = watch.tick();
        timed
            .probe_s
            .push(raw, slowdown(before, after, SliceClock::Wall));
        let replayed = probe.recovery.map_or(0, |r| r.replayed_batches);
        replayed_all &= probe.epoch == frozen_epoch && replayed == spec.recovery_slides as u64;
        prints.push(probe.fingerprints);
    }
    report.count_ops(RECOVERY_COPIES as u64, 0);
    // Bit-identical, unless the bench's own replay of the image shows a
    // push round that fanned out over threads; the distance is then
    // measured on the snapshots a real server publishes after recovering.
    let identical = prints.windows(2).all(|w| w[0] == w[1]);
    let (max_frontier, apart) = if identical {
        (0, 0.0)
    } else {
        let ckpt = durability::load_latest_checkpoint(&untouched[0])?
            .ok_or_else(|| io::Error::other("the crash image holds no checkpoint"))?;
        let window_end = dppr_graph::SlidingWindow::new(stream.clone(), INIT_FRACTION).end()
            + spec.recovery_slides * spec.batch;
        let recovered = recovered_snapshots(stream, sources, config(&probed[0]), window_end)?;
        (
            replay_image(spec, stream, ckpt)?.counters().max_frontier,
            furthest_apart(&live, &recovered),
        )
    };
    let (same, how) = same_or_fanned_out(identical, max_frontier, apart, spec.epsilon);
    prints.sort();
    prints.dedup();
    report.check(
        "recovery_fingerprint_identical",
        same && clean && replayed_all,
        format!(
            "{RECOVERY_COPIES} crash images against the frozen state at epoch {frozen_epoch}: {how}; \
             {} distinct states among the frozen one and the recovered ones (every image replayed \
             {} batches: {replayed_all}, clean-shutdown reference: {clean})",
            prints.len(),
            spec.recovery_slides
        ),
    );

    let traced = if opts.traced {
        let recovery_s = median(&timed.probe_s.raw);
        traced_recovery(
            spec,
            stream,
            sources,
            &untouched[0],
            &live,
            recovery_s,
            report,
        )
    } else {
        Ok(())
    };
    for dir in copies.iter().chain([&image]) {
        let _ = std::fs::remove_dir_all(dir);
    }
    traced
}

/// Cost of one `Histogram::record`, the call every request and slide
/// pays several times.
fn hist_record_ns() -> f64 {
    const N: u64 = 2_000_000;
    let h = dppr_obs::Histogram::new();
    let t = Instant::now();
    for i in 0..N {
        h.record(std::hint::black_box(i * 37 + 1000));
    }
    std::hint::black_box(h.snapshot());
    t.elapsed().as_nanos() as f64 / N as f64
}

/// The end-to-end times and rates: order statistics of the run's pooled
/// samples, in reference units and (as `raw.*`) as measured.
fn report_timed(report: &mut Report, timed: &Timed) {
    timed.setup_s.report(report, "setup_s", median);
    timed.interval_ms.report(report, "slide_p50_ms", median);
    let updates = timed.updates;
    timed.interval_ms.report(report, "updates_per_s", |ms| {
        updates / (ms.iter().sum::<f64>() / 1e3)
    });
    if timed.interval_ms.len() > 0 {
        report.set(
            "tail.slide_p90_ms",
            percentile_of(&timed.interval_ms.scaled, 0.90),
            timed.interval_ms.len(),
        );
    }
    if !timed.slo_chunks.is_empty() {
        report.set(
            "query_slo_ratio",
            median(&timed.slo_chunks),
            timed.slo_chunks.len(),
        );
    }
    timed
        .request_cpu_s
        .report(report, "query_sat_qps", |s| 1.0 / median(s));
    timed.probe_s.report(report, "recovery_s", median);
}

/// Runs `serve_read` or `serve_write`.
pub fn run(kind: Kind, opts: &RunOpts) -> io::Result<Report> {
    let spec = match kind {
        Kind::Read => ServeSpec::read(),
        Kind::Write => ServeSpec::write(),
    };
    let spec = if opts.smoke { spec.smoke() } else { spec };
    let mut report = Report::new(&opts.workload, opts.seed);
    let mut watch = HostWatch::open(2, opts.smoke);
    let inputs = generate(spec.scale, spec.edges, opts.seed);
    report.set("graph.gen_s", inputs.gen_s, 1);
    let sources = dppr_serve::pick_top_degree_sources(&inputs.stream, INIT_FRACTION, spec.sessions);
    let deltas = session_deltas(&inputs.stream, &sources, &spec);

    let plan = opts.plan();
    let per_rep = |per_second: f64| opts.seconds * per_second / plan.len() as f64;
    let closed_requests = per_rep(CLOSED_REQUESTS_PER_SECOND)
        * match kind {
            Kind::Read => 1.0,
            Kind::Write => WRITE_CLOSED_SHARE,
        };
    let work = Work {
        open: match kind {
            Kind::Read => {
                OpenLoop::Requests(((spec.open_qps * per_rep(OPEN_SHARE)) as usize).max(160))
            }
            Kind::Write if opts.smoke => OpenLoop::UntilSlides(40),
            Kind::Write => {
                let period = DurabilityConfig::new("").checkpoint_every_slides as f64;
                let share = per_rep(WRITE_SLIDES_PER_SECOND);
                OpenLoop::UntilSlides(((share / period).round().max(1.0) * period) as usize - 1)
            }
        },
        // One chunk warms the cache; at least one is timed.
        closed_chunks: ((closed_requests / spec.closed_chunk as f64).round() as usize).max(2) - 1,
    };
    let mut timed = Timed::default();
    let mut reps = RepValues::default();
    let (mut real_p50, mut traced_p50) = (Vec::new(), Vec::new());
    let mut requests_per_slide = 1.0;
    let mut spans: Option<(Tracer, Tracer)> = None;
    for (i, rep) in plan.iter().enumerate() {
        let began = Instant::now();
        match rep {
            Rep::Real => {
                let r = real_rep(
                    &spec,
                    &inputs.stream,
                    inputs.vertex_bound,
                    &sources,
                    &deltas,
                    work,
                    opts,
                    i,
                    &mut report,
                    &mut reps,
                    &mut timed,
                    &mut watch,
                )?;
                watch.calibrate(&mut reps, began);
                real_p50.push(r.slide_busy_p50_ms);
                requests_per_slide = r.requests_per_slide;
            }
            Rep::Traced => {
                let (p50, slides, requests) = traced_rep(
                    &spec,
                    &inputs.stream,
                    inputs.vertex_bound,
                    &sources,
                    &deltas,
                    per_rep(TRACED_SHARE),
                    requests_per_slide,
                    opts,
                    i,
                    &mut report,
                    &mut reps,
                )?;
                traced_p50.push(p50);
                match spans.as_mut() {
                    Some((s, r)) => {
                        s.absorb(slides, 1_000_000 * i as u64);
                        r.absorb(requests, 1_000_000 * i as u64);
                    }
                    None => spans = Some((slides, requests)),
                }
            }
        }
    }
    report.absorb(reps);
    recovery_phase(
        &spec,
        &inputs.stream,
        &sources,
        opts,
        &mut timed,
        &mut watch,
        &mut report,
    )?;
    report_timed(&mut report, &timed);
    if let Some((slides, requests)) = spans {
        report.set(
            "trace.overhead_ratio",
            median(&traced_p50) / median(&real_p50),
            traced_p50.len(),
        );
        report.set(
            "trace.spans",
            (slides.spans().len() + requests.spans().len()) as f64,
            1,
        );
        report.set("obs.hist_record_ns", hist_record_ns(), 2_000_000);
        let stem = format!("trace-{}-{}", opts.workload, opts.seed);
        for (tr, unit) in [(&slides, "slide"), (&requests, "request")] {
            let path = opts.work_dir.join(format!("{stem}-{unit}s.ndjson"));
            if let Err(e) = tr.write_ndjson(&path, unit) {
                report.check("trace_written", false, format!("{}: {e}", path.display()));
            }
        }
    }
    // The writer and the event loop; the generator sleeps between sends.
    watch.finish(&mut report, 2);
    Ok(report)
}

/// `ladder`: the throughput/latency curve of the read path. One
/// `serve_read` server, open loop at each rate for `rung_s` seconds;
/// prints p50, p90 and the objective ratio per rung and the highest rate
/// that keeps the ratio at 0.99 without a growing backlog. Diagnostic:
/// nothing here is gated.
pub fn ladder(seed: u64, rung_s: f64, smoke: bool) -> io::Result<String> {
    const RATES: [f64; 4] = [500.0, 1000.0, 2000.0, 4000.0];
    let spec = if smoke {
        ServeSpec::read().smoke()
    } else {
        ServeSpec::read()
    };
    let inputs = generate(spec.scale, spec.edges, seed);
    let sources = dppr_serve::pick_top_degree_sources(&inputs.stream, INIT_FRACTION, spec.sessions);
    let handle = start(
        inputs.stream.clone(),
        INIT_FRACTION,
        &sources,
        server_config(&spec, None),
    )?;
    let mut clients = (0..2)
        .map(|_| Client::connect(handle.addr()))
        .collect::<io::Result<Vec<_>>>()?;
    let deltas = session_deltas(&inputs.stream, &sources, &spec);
    let mut mix = QueryMix::new(
        derive_seed(seed, 30),
        &sources,
        &deltas,
        inputs.vertex_bound,
    );
    let mut out = String::from(
        "rate_qps achieved_qps p50_ms p90_ms query_slo_ratio lateness_p99_ms backlog\n",
    );
    let mut sustained = None;
    for rate in RATES {
        let count = ((rate * rung_s) as usize).max(40);
        let requests: Vec<Vec<u8>> = (0..count)
            .map(|_| mix.next_query().request_bytes())
            .collect();
        let stats = open_loop(
            rate,
            count,
            |i| matches!(clients[i % 2].call(&requests[i]), Ok(reply) if reply.status == 200),
        );
        // A backlog grows when the generator ends the rung further behind
        // schedule than it was a quarter of the way in.
        let quarter = count / 4;
        let early = median(&stats.lateness_ms[..quarter.max(1)]);
        let end = median(&stats.lateness_ms[count - quarter.max(1)..]);
        let growing = end > early + 1.0;
        let late = summarize(stats.lateness_ms.clone()).expect("requests were sent");
        let ratio = stats.slo_ratio();
        let achieved = stats.qps();
        let q =
            summarize(stats.latencies_ms).ok_or_else(|| io::Error::other("every query failed"))?;
        out.push_str(&format!(
            "{rate} {achieved:.1} {:.4} {:.4} {ratio:.4} {:.4} {}\n",
            q.p50,
            q.p90,
            late.p99,
            if growing { "growing" } else { "steady" }
        ));
        if ratio >= 0.99 && !growing {
            sustained = Some(rate);
        }
    }
    handle.join();
    out.push_str(&match sustained {
        Some(rate) => format!(
            "highest rate meeting query_slo_ratio >= 0.99 with a steady backlog: {rate} q/s\n"
        ),
        None => "no rung met query_slo_ratio >= 0.99 with a steady backlog\n".to_string(),
    });
    Ok(out)
}

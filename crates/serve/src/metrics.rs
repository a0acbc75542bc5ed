//! The serving instance's metric catalog: every histogram and every
//! scalar, each described exactly once.
//!
//! One [`ServerMetrics`] per instance holds the pipeline-stage histograms
//! as plain fields, so the write loop and the event-loop shards' routers
//! record with [`Histogram::record`] — no name lookup, no second copy.
//! [`HISTOGRAMS`] names each one's `/metrics` family, help text, unit and
//! (for the stage latencies `/stats` summarises) its `timings` key next
//! to the function that reaches the field; adding a histogram is a field
//! plus a row.
//!
//! Scalars that already live elsewhere (`ServerStats`, `ConnCounters`,
//! the cache, the WAL, engine counters) are read where they live:
//! [`INSTANCE`] names each one's `/metrics` family, `/stats` key and
//! `/series` column next to the function that reads it. The handlers in
//! `admin.rs` and the observer's series sampler are loops over those
//! rows; the per-event-shard connection gauge is written out there.
//!
//! A row is added together with the README line that names it. Every
//! exported signal has a consumer — a test, an SLO, a bench gate or a
//! runbook line in README's Observability, Accuracy or Durability
//! section — and `admin.rs` checks the README both ways: each family,
//! `/series` column and family-less `/stats` key is named there
//! (`readme_names_every_signal`), and each name there is exported
//! (`readme_families_exist`). A number that is a ratio of rows that
//! stay, or that another endpoint already reports, is not a row.

use crate::cache::CacheStats;
use crate::json::JsonBuf;
use crate::server::Ctx;
use dppr_core::CounterSnapshot;
use dppr_graph::SubstrateStats;
use dppr_obs::Unit::{self, Nanos, Raw};
use dppr_obs::{Histogram, ProcessStats, PromText, Sampler, TraceRing};
use dppr_wal::WalStats;
use std::sync::atomic::Ordering::Relaxed;

/// Every histogram the pipeline records into, plus the trace ring.
pub struct ServerMetrics {
    pub http_request: Histogram,
    pub http_parse: Histogram,
    pub http_route: Histogram,
    pub http_write: Histogram,
    pub slide_apply: Histogram,
    pub push_wall: Histogram,
    pub push_iterations: Histogram,
    pub snapshot_publish: Histogram,
    pub wal_append: Histogram,
    pub wal_fsync: Histogram,
    pub checkpoint: Histogram,
    /// Audited per-session L1 error, recorded ×1e9 (natural units).
    pub audit_l1: Histogram,
    /// Audited per-session L∞ error, recorded ×1e9 (natural units).
    pub audit_linf: Histogram,
    /// Audited top-10 overlap (0..1), recorded ×1e9 (natural units).
    pub audit_overlap10: Histogram,
    /// Audited top-50 overlap (0..1), recorded ×1e9 (natural units).
    pub audit_overlap50: Histogram,
    /// Ground-truth solve wall time per audited session.
    pub audit_solve: Histogram,
    /// `/metrics` render duration (self-observation; a scrape sees the
    /// previous scrape's cost).
    pub metrics_scrape: Histogram,
    /// End-to-end structured trace events (`GET /trace`).
    pub trace: TraceRing,
    /// Every-Nth request tracing.
    pub trace_requests: Sampler,
    /// Every-Nth slide tracing.
    pub trace_slides: Sampler,
}

impl ServerMetrics {
    pub fn new(trace_sample: u64, trace_capacity: usize) -> Self {
        ServerMetrics {
            http_request: Histogram::new(),
            http_parse: Histogram::new(),
            http_route: Histogram::new(),
            http_write: Histogram::new(),
            slide_apply: Histogram::new(),
            push_wall: Histogram::new(),
            push_iterations: Histogram::new(),
            snapshot_publish: Histogram::new(),
            wal_append: Histogram::new(),
            wal_fsync: Histogram::new(),
            checkpoint: Histogram::new(),
            audit_l1: Histogram::new(),
            audit_linf: Histogram::new(),
            audit_overlap10: Histogram::new(),
            audit_overlap50: Histogram::new(),
            audit_solve: Histogram::new(),
            metrics_scrape: Histogram::new(),
            trace: TraceRing::new(trace_capacity),
            trace_requests: Sampler::new(trace_sample),
            trace_slides: Sampler::new(trace_sample),
        }
    }
}

// --- the histogram table ----------------------------------------------------

/// One histogram, described once: `(family, help, unit, labels, timings
/// key, field)`. `labels` are the series' `key="value"` pairs; rows of
/// one family are adjacent and share its header. A `timings` key puts the
/// histogram's `{count, p50_s, p99_s}` under that name in `/stats`.
pub(crate) type HistRow = (
    &'static str,
    &'static str,
    Unit,
    &'static [(&'static str, &'static str)],
    Option<&'static str>,
    fn(&ServerMetrics) -> &Histogram,
);

/// Family and help shared by the two `{k=…}` overlap rows.
const OVERLAP: (&str, &str) = (
    "dppr_audit_topk_overlap",
    "Audited top-k overlap between published and ground-truth rankings (recorded x1e9)",
);

/// Every histogram of [`ServerMetrics`], in `/metrics` order.
///
/// The audit error/overlap families reuse the nanos-unit bucket layout as
/// a natural-units encoding: values are recorded ×1e9, so a rendered
/// bound of 0.001 means an L1 error of 1e-3 (or an overlap of 0.001).
/// This keeps the log-scale buckets dense exactly where ε-scale errors
/// live.
#[rustfmt::skip]
pub(crate) static HISTOGRAMS: &[HistRow] = &[
    ("dppr_http_request_seconds", "Request handling end to end: parse, route, serialize",
     Nanos, &[], Some("http_request"), |m| &m.http_request),
    ("dppr_http_parse_seconds", "Request-head parse time", Nanos, &[], None, |m| &m.http_parse),
    ("dppr_http_route_seconds", "Endpoint dispatch and query execution time",
     Nanos, &[], None, |m| &m.http_route),
    ("dppr_http_write_seconds", "Response render time into the connection buffer",
     Nanos, &[], None, |m| &m.http_write),
    ("dppr_slide_apply_seconds", "One window slide end to end: WAL append, engine apply, snapshot publish",
     Nanos, &[], Some("slide_apply"), |m| &m.slide_apply),
    ("dppr_push_wall_seconds", "Engine apply_batch wall time (push convergence)",
     Nanos, &[], Some("push_wall"), |m| &m.push_wall),
    ("dppr_push_iterations", "Frontier iterations per slide until the push converged",
     Raw, &[], None, |m| &m.push_iterations),
    ("dppr_snapshot_publish_seconds", "Per-slide session snapshot publication time",
     Nanos, &[], Some("snapshot_publish"), |m| &m.snapshot_publish),
    ("dppr_wal_append_seconds", "WAL record append time (framing + write, excluding fsync policy)",
     Nanos, &[], Some("wal_append"), |m| &m.wal_append),
    ("dppr_wal_fsync_seconds", "WAL device-flush latency", Nanos, &[], Some("wal_fsync"), |m| &m.wal_fsync),
    ("dppr_checkpoint_seconds", "Checkpoint write duration (serialize, fsync, rename)",
     Nanos, &[], Some("checkpoint"), |m| &m.checkpoint),
    ("dppr_audit_l1_error", "Audited L1 distance between published estimates and ground truth (recorded x1e9)",
     Nanos, &[], None, |m| &m.audit_l1),
    ("dppr_audit_linf_error",
     "Audited max per-vertex error vs ground truth; the paper's epsilon contract (recorded x1e9)",
     Nanos, &[], None, |m| &m.audit_linf),
    (OVERLAP.0, OVERLAP.1, Nanos, &[("k", "10")], None, |m| &m.audit_overlap10),
    (OVERLAP.0, OVERLAP.1, Nanos, &[("k", "50")], None, |m| &m.audit_overlap50),
    ("dppr_audit_solve_seconds", "Sequential ground-truth solve wall time per audited session",
     Nanos, &[], None, |m| &m.audit_solve),
    ("dppr_metrics_scrape_seconds", "Time spent rendering /metrics (visible from the next scrape)",
     Nanos, &[], None, |m| &m.metrics_scrape),
];

// --- the scalar tables ------------------------------------------------------

/// A scalar as its reader produced it; each surface formats it its own
/// way (`B` is `true`/`false` in JSON and 1/0 in the exposition).
#[derive(Clone, Copy)]
pub(crate) enum Val {
    U(u64),
    F(f64),
    B(bool),
}
use Val::{B, F, U};

impl Val {
    pub(crate) fn json(self, j: &mut JsonBuf) {
        match self {
            U(v) => j.uint(v),
            F(v) => j.num(v),
            B(v) => j.bool(v),
        };
    }

    pub(crate) fn prom(self, out: &mut PromText, family: &str) {
        match self {
            U(v) => out.series_u64(family, &[], v),
            F(v) => out.series_f64(family, &[], v),
            B(v) => out.series_u64(family, &[], v as u64),
        }
    }

    pub(crate) fn as_f64(self) -> f64 {
        match self {
            U(v) => v as f64,
            F(v) => v,
            B(v) => v as u64 as f64,
        }
    }
}

/// One scalar, described once: where it appears on each surface and how
/// to read it.
pub(crate) struct Row {
    /// `/metrics`: `(family, help, "counter" | "gauge")`.
    pub(crate) prom: Option<(&'static str, &'static str, &'static str)>,
    /// `/stats` key, `section.key` when nested; `""` keeps the row out
    /// of `/stats`. Table order is wire order within a section.
    pub(crate) key: &'static str,
    /// `/series` column as `(position, name)`. The catalogue order
    /// predates the table, hence the explicit position.
    pub(crate) series: Option<(u8, &'static str)>,
    pub(crate) read: fn(&Ctx, &View) -> Val,
}

const fn row(key: &'static str, read: fn(&Ctx, &View) -> Val) -> Row {
    Row { prom: None, key, series: None, read }
}

impl Row {
    const fn counter(self, family: &'static str, help: &'static str) -> Self {
        Row { prom: Some((family, help, "counter")), ..self }
    }
    const fn gauge(self, family: &'static str, help: &'static str) -> Self {
        Row { prom: Some((family, help, "gauge")), ..self }
    }
    const fn series(self, position: u8, name: &'static str) -> Self {
        Row { series: Some((position, name)), ..self }
    }
}

/// What the rows read that is behind a lock or sampled from the OS,
/// taken once per render; live atomics are read through `Ctx`.
pub(crate) struct View {
    cache: CacheStats,
    wal: WalStats,
    /// Engine push-work counters as of the last slide.
    pub(crate) engine: CounterSnapshot,
    graph: SubstrateStats,
    process: ProcessStats,
    /// Per-tick windowed HTTP `(p50, p99)` seconds; only the observer's
    /// series sampler knows them, every other render leaves zeros.
    pub(crate) tick_latency: (f64, f64),
}

impl View {
    pub(crate) fn gather(ctx: &Ctx) -> View {
        View {
            cache: ctx.cache.stats(),
            wal: *ctx.wal.lock().unwrap(),
            engine: *ctx.engine.lock().unwrap(),
            graph: *ctx.graph.lock().unwrap(),
            process: ProcessStats::sample(),
            tick_latency: (0.0, 0.0),
        }
    }
}

/// Instance-scope scalars, in `/stats` order.
#[rustfmt::skip]
pub(crate) static INSTANCE: &[Row] = &[
    row("epoch", |c, _| U(c.domain.epoch()))
        .gauge("dppr_epoch", "Last published epoch").series(5, "epoch"),
    row("slides", |c, _| U(c.stats.slides.load(Relaxed)))
        .counter("dppr_slides_total", "Window slides applied").series(4, "slides_total"),
    row("updates_offered", |c, _| U(c.stats.updates_offered.load(Relaxed)))
        .counter("dppr_updates_offered_total", "Updates handed to the engine (arcs)"),
    row("updates_applied", |c, _| U(c.stats.updates_applied.load(Relaxed)))
        .counter("dppr_updates_applied_total", "Updates that changed the graph"),
    row("updates_per_sec", |c, _| F(c.updates_per_sec())),
    row("stream_done", |c, _| B(c.stats.stream_done.load(Relaxed))),
    row("queries", |c, _| U(c.stats.queries.load(Relaxed)))
        .counter("dppr_queries_total", "Query requests answered (any kind, any status)").series(2, "queries_total"),
    row("shed", |c, _| U(c.stats.shed.load(Relaxed)))
        .counter("dppr_shed_total", "Queries shed 503 while the write loop lags or the latency SLO burns")
        .series(3, "shed_total"),
    row("sessions", |c, _| U(c.registry.len() as u64))
        .gauge("dppr_sessions", "Open sessions").series(6, "sessions"),
    row("sessions_opened", |c, _| U(c.stats.sessions_opened.load(Relaxed)))
        .counter("dppr_sessions_opened_total", "Sessions opened over HTTP"),
    row("sessions_closed", |c, _| U(c.stats.sessions_closed.load(Relaxed)))
        .counter("dppr_sessions_closed_total", "Sessions closed over HTTP"),
    row("sessions_evicted", |c, _| U(c.stats.sessions_evicted.load(Relaxed)))
        .counter("dppr_sessions_evicted_total", "Sessions evicted by the LRU budget"),

    row("http.connections", |c, _| U(c.conn.accepted.load(Relaxed)))
        .counter("dppr_http_connections_total", "Connections adopted by the shards"),
    row("http.requests", |c, _| U(c.conn.requests.load(Relaxed)))
        .counter("dppr_http_requests_total", "HTTP requests answered").series(1, "http_requests_total"),
    row("http.bad_requests", |c, _| U(c.conn.bad_requests.load(Relaxed)))
        .counter("dppr_http_bad_requests_total", "Malformed or oversized requests answered 400"),
    row("http.read_timeouts", |c, _| U(c.conn.read_timeouts.load(Relaxed)))
        .counter("dppr_http_read_timeouts_total", "Connections reaped by the read deadline"),
    row("http.write_timeouts", |c, _| U(c.conn.write_timeouts.load(Relaxed)))
        .counter("dppr_http_write_timeouts_total", "Connections reaped by the write deadline"),

    row("cache.hits", |_, v| U(v.cache.hits)).counter("dppr_cache_hits_total", "Query-cache hits"),
    row("cache.misses", |_, v| U(v.cache.misses)).counter("dppr_cache_misses_total", "Query-cache misses"),
    row("cache.evictions", |_, v| U(v.cache.evictions))
        .counter("dppr_cache_evictions_total", "Query-cache evictions"),
    row("cache.stale_purged", |_, v| U(v.cache.stale_purged))
        .counter("dppr_cache_stale_purged_total", "Dead-epoch cache entries purged at insert"),

    row("durability.enabled", |c, _| B(c.durability_enabled))
        .gauge("dppr_durability_enabled", "1 when a WAL and checkpoints are configured"),
    row("durability.degraded", |c, _| B(c.stats.degraded.load(Relaxed)))
        .gauge("dppr_degraded", "1 once a WAL failure forced read-only serving"),
    row("durability.durable_epoch", |c, _| U(c.durable_epoch.load(Relaxed)))
        .gauge("dppr_durable_epoch", "Epoch of the newest durable checkpoint"),
    row("durability.checkpoints", |c, _| U(c.stats.checkpoints.load(Relaxed)))
        .counter("dppr_checkpoints_total", "Checkpoints written successfully"),
    row("durability.checkpoint_failures", |c, _| U(c.stats.checkpoint_failures.load(Relaxed)))
        .counter("dppr_checkpoint_failures_total", "Checkpoint attempts that failed"),
    row("durability.wal_records", |_, v| U(v.wal.appends))
        .counter("dppr_wal_records_total", "Records appended to the WAL"),
    row("durability.wal_segments", |c, _| U(c.wal_segments.load(Relaxed)))
        .gauge("dppr_wal_segments", "Live WAL segments (sealed + active)"),
    row("durability.wal_syncs", |_, v| U(v.wal.syncs))
        .counter("dppr_wal_syncs_total", "WAL device flushes issued"),
    row("durability.wal_bytes", |_, v| U(v.wal.bytes_written))
        .counter("dppr_wal_bytes_total", "WAL bytes written (payload + framing)"),
    row("durability.wal_pruned_segments", |_, v| U(v.wal.pruned_segments))
        .counter("dppr_wal_pruned_segments_total", "WAL segments deleted by retention"),

    row("graph.arena_slots", |_, v| U(v.graph.arena_slots as u64))
        .gauge("dppr_graph_arena_slots", "Adjacency-arena slots (live + slack + garbage)"),
    row("graph.live_slots", |_, v| U(v.graph.live_slots as u64))
        .gauge("dppr_graph_live_slots", "Live adjacency slots (2m)"),
    row("graph.dead_slots", |_, v| U(v.graph.dead_slots as u64))
        .gauge("dppr_graph_dead_slots", "Garbage slots awaiting compaction"),

    row("stream.window_start", |c, _| U(c.window_start.load(Relaxed)))
        .gauge("dppr_stream_window_start", "Window start (stream position)"),
    row("stream.window_end", |c, _| U(c.window_end.load(Relaxed)))
        .gauge("dppr_stream_window_end", "Window end (stream position)"),
    row("stream.stream_len", |c, _| U(c.stream_len))
        .gauge("dppr_stream_len", "Total logical edges in the stream"),

    row("trace.buffered", |c, _| U(c.metrics.trace.len() as u64))
        .gauge("dppr_trace_buffered", "Trace events currently buffered"),
    row("trace.dropped", |c, _| U(c.metrics.trace.dropped()))
        .counter("dppr_trace_dropped_total", "Trace events evicted from the ring"),

    row("audit.enabled", |c, _| B(c.audit.enabled))
        .gauge("dppr_audit_enabled", "1 when online accuracy auditing is configured"),
    row("audit.runs", |c, _| U(c.audit.runs.load(Relaxed)))
        .counter("dppr_audit_runs_total", "Audit ticks completed"),
    row("audit.sessions_audited", |c, _| U(c.audit.sessions_audited.load(Relaxed)))
        .counter("dppr_audit_sessions_total", "Sessions audited against ground truth"),
    row("audit.bound_violations", |c, _| U(c.audit.bound_violations.load(Relaxed)))
        .counter("dppr_audit_bound_violations_total",
                 "Audited sessions whose max error exceeded the epsilon contract"),
    row("audit.cpu_seconds", |c, _| F(c.audit.cpu_nanos.load(Relaxed) as f64 / 1e9))
        .counter("dppr_audit_cpu_seconds_total", "Observer wall time spent auditing (clone-free side only)"),
    row("audit.last_epoch", |c, _| U(c.audit.last_epoch.load(Relaxed)))
        .gauge("dppr_audit_last_epoch", "Epoch of the newest completed audit"),
    row("audit.staleness_epochs", |c, _| U(c.audit.staleness_epochs.load(Relaxed)))
        .gauge("dppr_audit_staleness_epochs", "Published epoch minus audited epoch at last report"),
    row("audit.last_linf_error", |c, _| F(c.audit.last_linf.load()))
        .gauge("dppr_audit_last_linf_error", "Max per-vertex error in the newest audit")
        .series(9, "audit_linf_error"),
    row("audit.max_linf_error", |c, _| F(c.audit.max_linf.load()))
        .gauge("dppr_audit_max_linf_error", "Largest per-vertex error ever audited"),
    row("audit.last_topk_overlap_10", |c, _| F(c.audit.last_overlap10.load())).series(10, "audit_topk_overlap_10"),
    row("audit.last_invariant_residual", |c, _| F(c.audit.last_residual.load()))
        .gauge("dppr_audit_invariant_residual", "Largest Eq. 2 invariant violation in the newest audit"),

    // Process-level gauges out of /proc/self (all 0 without procfs).
    row("process.rss_bytes", |_, v| U(v.process.rss_bytes))
        .gauge("dppr_process_rss_bytes", "Resident set size").series(11, "process_rss_bytes"),
    row("process.open_fds", |_, v| U(v.process.open_fds))
        .gauge("dppr_process_open_fds", "Open file descriptors").series(12, "process_open_fds"),
    row("process.threads", |_, v| U(v.process.threads))
        .gauge("dppr_process_threads", "OS threads").series(13, "process_threads"),

    row("", |_, v| F(v.tick_latency.0)).series(7, "http_request_p50_seconds"),
    row("", |_, v| F(v.tick_latency.1)).series(8, "http_request_p99_seconds"),
];

/// Writes the `/stats` object `section` (`""` = the enclosing object's
/// own scalars) from the rows of [`INSTANCE`] that live in it.
pub(crate) fn json_section(j: &mut JsonBuf, section: &str, ctx: &Ctx, view: &View) {
    if !section.is_empty() {
        j.key(section).begin_obj();
    }
    for row in INSTANCE {
        let (sec, key) = row.key.rsplit_once('.').unwrap_or(("", row.key));
        if sec == section && !key.is_empty() {
            (row.read)(ctx, view).json(j.key(key));
        }
    }
    if !section.is_empty() {
        j.end_obj();
    }
}

/// One `/series` column: its name and the reader of the row it came from.
pub(crate) type SeriesColumn = (&'static str, fn(&Ctx, &View) -> Val);

/// The `/series` columns in catalogue order.
pub(crate) fn series_columns() -> Vec<SeriesColumn> {
    let mut cols: Vec<_> =
        INSTANCE.iter().filter_map(|r| r.series.map(|(at, name)| (at, name, r.read))).collect();
    cols.sort_by_key(|c| c.0);
    cols.into_iter().map(|(_, name, read)| (name, read)).collect()
}

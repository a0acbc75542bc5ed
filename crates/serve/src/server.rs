//! The serving instance: one write loop + acceptor + event-loop shards.
//!
//! ```text
//!                     ┌────────────────────────────────────────────┐
//!  edge stream ──────▶│ write loop (owns StreamDriver+MultiSource) │
//!                     │  slide → WAL → graph once → N push lanes   │
//!                     │        → advance epoch ────────────────────┼──▶ publish
//!                     └────────────▲───────────────────────────────┘    per-session
//!                                  │ control (open/close/audit)         SnapshotCell
//!  TCP clients ──▶ acceptor ──▶ shard event loops ── lookup ──▶ registry
//!                  (bounded        │ poll(2), keep-alive,          │
//!                   hand-off,      │ per-conn state machines       └─▶ clone the session's
//!                   503 shed)      └── epoch-keyed QueryCache          Arc<QuerySnapshot>
//! ```
//!
//! Readers never hold a lock while the writer works: a query takes one
//! brief `RwLock` read to find the session and a second to clone the
//! published snapshot's `Arc` ([`crate::SnapshotCell::load`]), then
//! answers from that immutable snapshot. Session open/close requests
//! travel over a channel and are applied by the write loop *between*
//! batches, which is what keeps `MultiSourcePpr`'s mutable state
//! single-owner. There is one graph, one stream, one WAL, one epoch line,
//! one session registry and one query cache per instance whatever
//! [`ServeConfig::write_shards`] says: that number only decides over how
//! many lanes a batch's per-session pushes are spread.
//!
//! The front end is event-driven (see [`crate::event`]): each shard
//! thread owns its connections and multiplexes them with `poll(2)`, so a
//! keep-alive client costs one registration instead of one thread, a
//! non-reading client is bounded by the write deadline instead of
//! pinning a worker, and overload surfaces as fast `503 Retry-After`
//! responses instead of an unbounded backlog.
//!
//! This module holds the instance's shared types; the code lives along
//! the seams of the diagram: `boot.rs` (start + recovery), `writer.rs`
//! (write loop + durability acks), `query.rs` (dispatch + query
//! handlers) and `admin.rs` (telemetry + control handlers).

use crate::audit::{AuditJob, AuditShared, SloEngine};
use crate::cache::{CacheStats, QueryCache};
use crate::durability::{DurabilityConfig, RecoveryReport};
use crate::epoch::EpochDomain;
use crate::event::{ConnCounters, ShardHandle};
use crate::metrics::{ServerMetrics, ShardGauges};
use crate::registry::SessionRegistry;
use dppr_core::CounterSnapshot;
use dppr_graph::{SubstrateStats, VertexId};
use dppr_obs::SeriesRing;
use dppr_wal::WalStats;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for one serving instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Event-loop shard threads.
    pub threads: usize,
    /// Query-cache capacity in entries (0 disables the cache) — the whole
    /// instance's one cache, whatever `write_shards` says.
    pub cache_capacity: usize,
    /// Session budget; opening past it evicts the LRU session — one
    /// instance-wide LRU, whatever `write_shards` says.
    pub session_capacity: usize,
    /// Teleport probability α.
    pub alpha: f64,
    /// Accuracy ε of every maintained vector.
    pub epsilon: f64,
    /// Window-slide batch size (logical edges per slide).
    pub batch: usize,
    /// Stop sliding after this many slides (0 = run the stream dry).
    pub max_slides: usize,
    /// Optional pause between slides, to throttle the update stream.
    pub slide_pause: Duration,
    /// Close a connection that completes no request for this long
    /// (keep-alive idle limit and slow-request limit in one).
    pub read_timeout: Duration,
    /// Close a connection whose peer stops draining responses for this
    /// long — a non-reading client must not pin server state forever.
    pub write_timeout: Duration,
    /// Shed query traffic with `503 Retry-After` while a window slide has
    /// been in flight longer than this (the published epoch is lagging
    /// the stream). Zero disables shedding.
    pub shed_after: Duration,
    /// Bound on each shard's accept hand-off queue; with every queue
    /// full, new connections are answered `503 Retry-After` and closed.
    pub conn_backlog: usize,
    /// Durability: `Some` logs every slide batch to a WAL and
    /// checkpoints session states, so a crashed instance recovers by
    /// loading the newest checkpoint and replaying the log tail. `None`
    /// serves purely in memory (the previous behavior).
    pub durability: Option<DurabilityConfig>,
    /// Trace every Nth request and every Nth slide end-to-end into the
    /// in-memory trace ring (`GET /trace`). 0 disables tracing.
    pub trace_sample: u64,
    /// Capacity of the trace ring in events (oldest evicted first).
    pub trace_capacity: usize,
    /// Push lanes (0 and 1 both mean one): the instance's single write
    /// loop mutates the graph once per batch, then repairs and pushes its
    /// sessions in this many contiguous chunks side by side
    /// ([`dppr_core::MultiSourcePpr::with_lanes`]), each push on
    /// `max(1, cores / lanes)` threads. Nothing is replicated per lane —
    /// one graph, WAL, epoch line, registry and cache — and answers are
    /// byte-identical for any value.
    pub write_shards: usize,
    /// Accuracy auditing: recompute ground-truth PPR for up to this many
    /// live sessions per audit tick (round-robin over the sessions)
    /// and report estimate error as `dppr_audit_*` families. 0 disables
    /// auditing (the observer still samples the metrics time-series).
    pub audit_sample: usize,
    /// Observer tick period: the audit cadence, the time-series sampling
    /// period, and the SLO burn-rate evaluation interval.
    pub audit_interval: Duration,
    /// Latency SLO: target p99 for `dppr_http_request_seconds` per
    /// observer tick. Breaching the fast burn window sheds query
    /// traffic and flips `/healthz` to degraded. Zero disables.
    pub slo_p99: Duration,
    /// Availability SLO target as a success fraction (e.g. 0.999): the
    /// shed ratio `shed/requests` burns against the `1 − target` error
    /// budget. Zero disables.
    pub slo_availability: f64,
    /// Accuracy SLO: minimum audited top-10 overlap (e.g. 0.9). Burns
    /// against the `1 − target` budget. Zero disables (and it only
    /// fires when auditing is on).
    pub slo_topk_overlap: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            threads: 4,
            cache_capacity: 1024,
            session_capacity: 64,
            alpha: 0.15,
            epsilon: 1e-4,
            batch: 500,
            max_slides: 0,
            slide_pause: Duration::ZERO,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            shed_after: Duration::from_secs(1),
            conn_backlog: 256,
            durability: None,
            trace_sample: 0,
            trace_capacity: 1024,
            write_shards: 1,
            audit_sample: 0,
            audit_interval: Duration::from_millis(500),
            slo_p99: Duration::ZERO,
            slo_availability: 0.0,
            slo_topk_overlap: 0.0,
        }
    }
}

/// Live counters of a serving instance (all monotone).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Window slides applied.
    pub slides: AtomicU64,
    /// Updates handed to the engine (inserts + deletes, arcs).
    pub updates_offered: AtomicU64,
    /// Updates that changed the graph.
    pub updates_applied: AtomicU64,
    /// Nanoseconds spent inside `apply_batch` (the paper's engine latency).
    pub update_nanos: AtomicU64,
    /// Query requests answered (any kind, any status).
    pub queries: AtomicU64,
    /// Query requests shed with 503 while the write loop lagged.
    pub shed: AtomicU64,
    /// Sessions opened over HTTP.
    pub sessions_opened: AtomicU64,
    /// Sessions closed over HTTP.
    pub sessions_closed: AtomicU64,
    /// Sessions evicted by the LRU budget.
    pub sessions_evicted: AtomicU64,
    /// Whether the update stream has been run dry.
    pub stream_done: AtomicBool,
    /// Checkpoints written successfully (initial + periodic + final).
    pub checkpoints: AtomicU64,
    /// Checkpoint attempts that failed (serving continues; the WAL tail
    /// keeps growing until one succeeds).
    pub checkpoint_failures: AtomicU64,
    /// True once a WAL append failed: the write loop has stopped sliding
    /// and the instance serves read-only from the last published epoch.
    pub degraded: AtomicBool,
    /// Why the instance degraded to read-only (the WAL error text);
    /// `None` while healthy. Surfaced by `/healthz`.
    pub degraded_reason: Mutex<Option<String>>,
}

impl ServerStats {
    /// Sustained update throughput (updates offered per second of engine
    /// time), the same quantity as `RunSummary::throughput`. Reports 0
    /// until the first slide completes — before that the counters hold
    /// only the bootstrap window, which is warmup, not sustained rate.
    pub fn updates_per_sec(&self) -> f64 {
        if self.slides.load(Relaxed) == 0 {
            return 0.0;
        }
        let secs = self.update_nanos.load(Relaxed) as f64 * 1e-9;
        if secs == 0.0 {
            0.0
        } else {
            self.updates_offered.load(Relaxed) as f64 / secs
        }
    }
}

/// Final numbers reported by [`ServerHandle::join`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Last published epoch.
    pub epoch: u64,
    /// Window slides applied.
    pub slides: u64,
    /// Updates handed to the engine.
    pub updates_offered: u64,
    /// Updates that changed the graph.
    pub updates_applied: u64,
    /// Update throughput while serving (updates/second of engine time).
    pub updates_per_sec: f64,
    /// Query requests answered.
    pub queries: u64,
    /// HTTP requests answered (all endpoints, all statuses).
    pub http_requests: u64,
    /// Connections accepted by the shards.
    pub connections: u64,
    /// Malformed/oversized requests answered 400.
    pub bad_requests: u64,
    /// Connections reaped by the read deadline.
    pub read_timeouts: u64,
    /// Connections reaped by the write deadline.
    pub write_timeouts: u64,
    /// Queries shed 503 while the write loop lagged.
    pub shed: u64,
    /// Cache counters.
    pub cache: CacheStats,
    /// Sessions open at shutdown.
    pub sessions: usize,
    /// Whether the update stream had been run dry.
    pub stream_done: bool,
    /// Whether a WAL failure forced read-only serving.
    pub degraded: bool,
    /// Epoch of the newest durable checkpoint (0 with durability off).
    pub durable_epoch: u64,
    /// Checkpoints written over the instance lifetime.
    pub checkpoints: u64,
    /// Push lanes the write loop spread its sessions over (≥ 1).
    pub write_shards: usize,
}

pub(crate) enum Control {
    Open(VertexId),
    Close(VertexId),
    /// Accuracy-audit probe from the observer thread: the write loop
    /// (between batches, so its graph matches the published epoch)
    /// clones the graph plus up to `max_sessions` sessions' published
    /// snapshots and live states into an [`AuditJob`] and replies. The
    /// expensive ground-truth solve happens on the observer thread.
    Audit { max_sessions: usize, reply: SyncSender<AuditJob> },
}

/// State shared by the event-loop shards, the acceptor, the write loop,
/// the checkpointer and the audit/SLO observer. The engine, graph and WAL
/// live on the writer thread; the mutexed snapshots here are refreshed by
/// that thread after every slide.
pub(crate) struct Ctx {
    pub(crate) domain: Arc<EpochDomain>,
    pub(crate) registry: Arc<SessionRegistry>,
    pub(crate) cache: Arc<QueryCache>,
    pub(crate) stats: ServerStats,
    pub(crate) conn: Arc<ConnCounters>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) addr: SocketAddr,
    /// Instance birth; `slide_started_ns` is relative to this.
    pub(crate) start: Instant,
    /// See [`ServeConfig::shed_after`].
    pub(crate) shed_after: Duration,
    /// See [`ServeConfig::write_shards`] (≥ 1).
    pub(crate) lanes: usize,
    /// One past the largest vertex id the stream will ever mention; the
    /// upper bound for `/session/open` requests (an unchecked id would
    /// make `cold_start` allocate `source + 1` slots — a single request
    /// naming vertex 4e9 must not OOM the server).
    pub(crate) vertex_bound: usize,
    /// Whether this instance runs with a WAL + checkpoints.
    pub(crate) durability_enabled: bool,
    /// Start-relative nanos (+1) of the in-flight slide; 0 while idle.
    pub(crate) slide_started_ns: AtomicU64,
    /// Epoch of the newest durable checkpoint.
    pub(crate) durable_epoch: AtomicU64,
    /// Start-relative nanos (+1) of the last WAL fsync.
    pub(crate) last_fsync_ns: AtomicU64,
    /// Live WAL segment count (sealed + active).
    pub(crate) wal_segments: AtomicU64,
    /// Engine push-work counters, refreshed per slide.
    pub(crate) engine: Mutex<CounterSnapshot>,
    /// Adjacency-substrate occupancy, refreshed per slide.
    pub(crate) graph: Mutex<SubstrateStats>,
    /// WAL counters as of the last append/sync.
    pub(crate) wal: Mutex<WalStats>,
    /// Window bounds in logical stream positions.
    pub(crate) window_start: AtomicU64,
    pub(crate) window_end: AtomicU64,
    /// Pipeline histograms and the trace ring.
    pub(crate) metrics: ServerMetrics,
    /// One entry per event-loop shard, set by its router once per tick.
    pub(crate) shard_gauges: Vec<ShardGauges>,
    /// Total logical edges in the stream (constant per instance).
    pub(crate) stream_len: u64,
    /// Accuracy-audit scalars published by the observer thread.
    pub(crate) audit: AuditShared,
    /// SLO burn-rate state (targets, burn gauges, breach counters, the
    /// latency shed flag).
    pub(crate) slo: SloEngine,
    /// The in-process metrics time-series (`GET /series`).
    pub(crate) series: SeriesRing,
    /// Observer tick period (`/series` reports it so dashboards can
    /// convert rows to wall time).
    pub(crate) audit_interval: Duration,
}

impl Ctx {
    /// Whether queries should be shed: the published epoch lags the
    /// stream by a slide that has been in flight past `shed_after`.
    pub(crate) fn lagging(&self) -> bool {
        let marker = self.slide_started_ns.load(Relaxed);
        if self.shed_after.is_zero() || marker == 0 {
            return false;
        }
        let started = Duration::from_nanos(marker - 1);
        self.start.elapsed().saturating_sub(started) > self.shed_after
    }

    /// Sets the shutdown flag and unblocks the acceptor's blocking
    /// `accept` with a throwaway connection; the event-loop shards notice
    /// the flag within their poll ceiling.
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running serving instance. Dropping the handle without calling
/// [`ServerHandle::join`] detaches the threads (they exit on shutdown).
pub struct ServerHandle {
    pub(crate) ctx: Arc<Ctx>,
    pub(crate) acceptor: Option<JoinHandle<()>>,
    pub(crate) shards: Vec<ShardHandle>,
    /// The write loop and the observer.
    pub(crate) workers: Vec<JoinHandle<()>>,
    pub(crate) recovery: Option<RecoveryReport>,
}

impl ServerHandle {
    /// The bound address (query it for the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &ServerStats {
        &self.ctx.stats
    }

    /// Live connection-layer counters.
    pub fn conn_counters(&self) -> &ConnCounters {
        &self.ctx.conn
    }

    /// The instance's query cache.
    pub fn cache(&self) -> &QueryCache {
        &self.ctx.cache
    }

    /// The instance's session registry.
    pub fn registry(&self) -> &SessionRegistry {
        &self.ctx.registry
    }

    /// The instance's pipeline histograms (what `GET /metrics` renders)
    /// — report generators read percentiles straight from here.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.ctx.metrics
    }

    /// The buffered trace events as JSON lines (what `GET /trace`
    /// serves); empty when tracing is off.
    pub fn trace_dump(&self) -> String {
        self.ctx.metrics.trace.dump()
    }

    /// The last published epoch.
    pub fn epoch(&self) -> u64 {
        self.ctx.domain.epoch()
    }

    /// What recovery did at startup, if this instance resumed from a
    /// checkpoint (`None` for fresh starts and memory-only instances).
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Whether shutdown has been requested (flag or `POST /shutdown`).
    pub fn is_shutdown(&self) -> bool {
        self.ctx.shutdown.load(SeqCst)
    }

    /// Requests shutdown and wakes the acceptor and every shard.
    pub fn shutdown(&self) {
        self.ctx.request_shutdown();
        for s in &self.shards {
            s.wake();
        }
    }

    /// Shuts down, joins every thread, and reports the final counters.
    pub fn join(mut self) -> ServeReport {
        self.shutdown();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for s in self.shards.drain(..) {
            s.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let ctx = &*self.ctx;
        let (stats, conn) = (&ctx.stats, &ctx.conn);
        ServeReport {
            epoch: ctx.domain.epoch(),
            slides: stats.slides.load(Relaxed),
            updates_offered: stats.updates_offered.load(Relaxed),
            updates_applied: stats.updates_applied.load(Relaxed),
            updates_per_sec: stats.updates_per_sec(),
            queries: stats.queries.load(Relaxed),
            http_requests: conn.requests.load(Relaxed),
            connections: conn.accepted.load(Relaxed),
            bad_requests: conn.bad_requests.load(Relaxed),
            read_timeouts: conn.read_timeouts.load(Relaxed),
            write_timeouts: conn.write_timeouts.load(Relaxed),
            shed: stats.shed.load(Relaxed),
            cache: ctx.cache.stats(),
            sessions: ctx.registry.len(),
            stream_done: stats.stream_done.load(Relaxed),
            degraded: stats.degraded.load(Relaxed),
            durable_epoch: ctx.durable_epoch.load(Relaxed),
            checkpoints: stats.checkpoints.load(Relaxed),
            write_shards: ctx.lanes,
        }
    }
}

//! Boot and recovery: [`start`] assembles an instance — bootstrap (fresh
//! window or checkpoint + WAL-tail replay), the write loop, the
//! event-loop shards, the observer and the acceptor — and [`boot_probe`]
//! runs the durable half alone for the recovery harness.

use crate::audit::{self, AuditShared, SloEngine};
use crate::cache::QueryCache;
use crate::durability::{self, DurabilityConfig, RecoveryReport};
use crate::epoch::EpochDomain;
use crate::event::{spawn_shard, ConnCounters, ShardConfig, ShardGate};
use crate::http::{render_response, Response};
use crate::json::error_body;
use crate::metrics::{ServerMetrics, ShardGauges};
use crate::query::RouterImpl;
use crate::registry::SessionRegistry;
use crate::server::{Control, Ctx, ServeConfig, ServerHandle, ServerStats};
use crate::snapshot::QuerySnapshot;
use crate::writer::{apply_counted, mark_checkpoint, spawn_durable, write_loop};
use dppr_core::{MultiSourcePpr, PprState, PushVariant};
use dppr_graph::{GraphStream, VertexId};
use dppr_stream::StreamDriver;
use dppr_wal::{Wal, WalOptions, WalRecord, WalStats};
use std::io::{self, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::mpsc::{self, sync_channel};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Warms the initial window of `stream` and picks the `k` top-out-degree
/// vertices as serving sources — the paper's hub-vertex methodology.
///
/// Pass the **same** `init_fraction` here as to [`start`]: the probe must
/// replay exactly the window the server will bootstrap with, or the picked
/// hubs belong to a different graph than the one actually served (this
/// helper exists so the CLI, the load generator, and the examples cannot
/// drift apart on that pairing).
pub fn pick_top_degree_sources(
    stream: &GraphStream,
    init_fraction: f64,
    k: usize,
) -> Vec<VertexId> {
    let window = dppr_graph::SlidingWindow::new(stream.clone(), init_fraction);
    let mut probe = dppr_graph::DynamicGraph::new();
    for upd in window.initial_updates() {
        probe.apply(upd);
    }
    probe.top_out_degree_vertices(k)
}

/// Boots a serving instance over `stream`: applies the initial window for
/// every source in `sources` (so the returned handle is immediately
/// queryable), then starts the write loop, the acceptor, and the
/// event-loop shards. `init_fraction` is the sliding-window warmup share
/// (the paper uses 0.1).
pub fn start(
    stream: GraphStream,
    init_fraction: f64,
    sources: &[VertexId],
    cfg: ServeConfig,
) -> io::Result<ServerHandle> {
    let vertex_bound = stream.vertex_bound();
    if let Some(&s) = sources.iter().find(|&&s| (s as usize) >= vertex_bound) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("source {s} is outside the stream's vertex bound {vertex_bound}"),
        ));
    }
    let threads = cfg.threads.max(1);
    let stats = ServerStats::default();
    let conn_counters = Arc::new(ConnCounters::default());
    let shutdown = Arc::new(AtomicBool::new(false));

    // --- bootstrap synchronously: sessions are live before we return. A
    // durable instance either recovers (checkpoint + WAL tail) or
    // bootstraps fresh and writes its epoch-1 base checkpoint.
    let domain = EpochDomain::new(0);
    let registry = Arc::new(SessionRegistry::new(
        Arc::clone(&domain),
        cfg.session_capacity.max(sources.len()).max(1),
    ));
    let boot = match &cfg.durability {
        None => {
            let (driver, multi) =
                bootstrap_window(stream, init_fraction, sources, &cfg, &domain, &registry, &stats);
            Boot { driver, multi, wal: None, recovery: None, durable_epoch: 0 }
        }
        Some(d) => {
            durable_boot(stream, init_fraction, sources, &cfg, d, &domain, &registry, &stats)?
        }
    };
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
    let addr = listener.local_addr()?;

    let (window_start, window_end) = boot.driver.window_range();
    let ctx = Arc::new(Ctx {
        domain,
        registry,
        cache: Arc::new(QueryCache::new(cfg.cache_capacity)),
        stats,
        conn: Arc::clone(&conn_counters),
        shutdown: Arc::clone(&shutdown),
        addr,
        start: Instant::now(),
        shed_after: cfg.shed_after,
        lanes: cfg.write_shards.max(1),
        vertex_bound,
        durability_enabled: cfg.durability.is_some(),
        slide_started_ns: AtomicU64::new(0),
        durable_epoch: AtomicU64::new(boot.durable_epoch),
        last_fsync_ns: AtomicU64::new(0),
        wal_segments: AtomicU64::new(0),
        engine: Mutex::new(boot.multi.counters().snapshot()),
        graph: Mutex::new(boot.driver.graph().substrate_stats()),
        wal: Mutex::new(WalStats::default()),
        window_start: AtomicU64::new(window_start as u64),
        window_end: AtomicU64::new(window_end as u64),
        metrics: ServerMetrics::new(cfg.trace_sample, cfg.trace_capacity),
        shard_gauges: (0..threads).map(|_| ShardGauges::default()).collect(),
        stream_len: boot.driver.stream_len() as u64,
        audit: AuditShared::new(&cfg),
        slo: SloEngine::new(&cfg),
        series: audit::new_series_ring(),
        audit_interval: cfg.audit_interval.max(Duration::from_millis(10)),
    });

    // --- background checkpointer + write loop -----------------------------
    let (ctl_tx, ctl_rx) = mpsc::channel::<Control>();
    let dur = match (cfg.durability.clone(), boot.wal) {
        (Some(dcfg), Some(wal)) => {
            Some(spawn_durable(dcfg, wal, boot.durable_epoch, Arc::clone(&ctx))?)
        }
        _ => None,
    };
    let writer = {
        let (ctx, cfg) = (Arc::clone(&ctx), cfg.clone());
        std::thread::Builder::new()
            .name("dppr-serve-writer".into())
            .spawn(move || write_loop(boot.driver, boot.multi, ctl_rx, ctx, cfg, dur))?
    };

    // --- event-loop shards ------------------------------------------------
    let shard_cfg = ShardConfig {
        read_timeout: cfg.read_timeout,
        write_timeout: cfg.write_timeout,
    };
    let mut shards = Vec::with_capacity(threads);
    let mut gates: Vec<ShardGate> = Vec::with_capacity(threads);
    for w in 0..threads {
        let router = RouterImpl::new(Arc::clone(&ctx), ctl_tx.clone(), w);
        let (queue_tx, queue_rx) = sync_channel::<TcpStream>(cfg.conn_backlog.max(1));
        let shard = spawn_shard(
            format!("dppr-serve-shard-{w}"),
            shard_cfg.clone(),
            queue_rx,
            queue_tx,
            Arc::clone(&shutdown),
            Arc::clone(&conn_counters),
            router,
        )?;
        gates.push(shard.gate()?);
        shards.push(shard);
    }
    // --- audit + SLO observer --------------------------------------------
    // Always spawned: it samples the metrics time-series and evaluates
    // SLO burn rates every tick; the (optional) accuracy audit rides the
    // same ticker, reaching the write loop over the control channel.
    let observer = audit::spawn_observer(Arc::clone(&ctx), ctl_tx)?;

    // --- acceptor ---------------------------------------------------------
    let acceptor = {
        let ctx = Arc::clone(&ctx);
        std::thread::Builder::new()
            .name("dppr-serve-acceptor".into())
            .spawn(move || {
                let mut next = 0usize;
                loop {
                    match listener.accept() {
                        Ok((conn, _)) => {
                            if ctx.shutdown.load(SeqCst) {
                                break; // wake-up connection, not a client
                            }
                            // Round-robin, falling through to any shard
                            // with room; every queue full → shed at the
                            // door with 503. A shard that adopted the
                            // connection leaves `pending` empty, which
                            // ends the probe loop gracefully (no panic
                            // path here: an acceptor abort would take the
                            // whole front end down with it).
                            let mut pending = Some(conn);
                            for probe in 0..gates.len() {
                                let Some(c) = pending.take() else { break };
                                match gates[(next + probe) % gates.len()].try_adopt(c) {
                                    Ok(()) => break,
                                    Err(back) => pending = Some(back),
                                }
                            }
                            if let Some(c) = pending {
                                ctx.stats.shed.fetch_add(1, Relaxed);
                                shed_at_door(c);
                            }
                            next = next.wrapping_add(1);
                        }
                        Err(_) => {
                            if ctx.shutdown.load(SeqCst) {
                                break;
                            }
                            // Persistent accept errors (e.g. fd
                            // exhaustion) must not busy-spin a core.
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                }
            })?
    };

    Ok(ServerHandle {
        ctx,
        acceptor: Some(acceptor),
        shards,
        workers: vec![writer, observer],
        recovery: boot.recovery,
    })
}

/// What bootstrapping produced, durable or not.
struct Boot {
    driver: StreamDriver,
    multi: MultiSourcePpr,
    wal: Option<Wal>,
    recovery: Option<RecoveryReport>,
    /// Epoch of the newest durable checkpoint at startup.
    durable_epoch: u64,
}

/// Publishes every maintained source as an open session at `epoch`.
fn open_sessions(multi: &MultiSourcePpr, registry: &SessionRegistry, epoch: u64) {
    for i in 0..multi.num_sources() {
        registry.open(multi.source(i), Arc::new(QuerySnapshot::from_state(multi.state(i), epoch)));
    }
}

/// The in-memory bootstrap: apply the initial window, advance to epoch 1,
/// open a session per source.
fn bootstrap_window(
    stream: GraphStream,
    init_fraction: f64,
    sources: &[VertexId],
    cfg: &ServeConfig,
    domain: &EpochDomain,
    registry: &SessionRegistry,
    stats: &ServerStats,
) -> (StreamDriver, MultiSourcePpr) {
    let mut driver = StreamDriver::new(stream, init_fraction);
    let mut multi = MultiSourcePpr::new(sources, cfg.alpha, cfg.epsilon, PushVariant::OPT)
        .with_lanes(cfg.write_shards);
    let init = driver.take_initial_batch();
    apply_counted(&mut driver, &mut multi, &init, stats);
    open_sessions(&multi, registry, domain.advance());
    (driver, multi)
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A directory entry named `shard-<digits>`: the per-shard layout of
/// instances that kept one WAL directory per write shard.
fn sharded_layout_entry(data_dir: &Path) -> io::Result<Option<String>> {
    for entry in std::fs::read_dir(data_dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        let digits = name.strip_prefix("shard-").unwrap_or("");
        if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
            return Ok(Some(name));
        }
    }
    Ok(None)
}

/// Durable bootstrap: recover from the newest checkpoint + WAL tail when
/// one exists, else bootstrap fresh and write the epoch-1 base
/// checkpoint. Either way the returned WAL is open, repaired, and ready
/// for the write loop to append to. A directory in the per-shard layout
/// is refused: its root holds no checkpoint, so it would look fresh and
/// be bootstrapped over.
#[allow(clippy::too_many_arguments)]
fn durable_boot(
    stream: GraphStream,
    init_fraction: f64,
    sources: &[VertexId],
    cfg: &ServeConfig,
    dcfg: &DurabilityConfig,
    domain: &Arc<EpochDomain>,
    registry: &SessionRegistry,
    stats: &ServerStats,
) -> io::Result<Boot> {
    std::fs::create_dir_all(&dcfg.data_dir)?;
    if let Some(name) = sharded_layout_entry(&dcfg.data_dir)? {
        return Err(invalid(format!(
            "data directory {} holds {name}/: it was written with one WAL directory per write \
             shard, a layout this version does not read — recover it with the version that \
             wrote it, or point --data-dir at an empty directory",
            dcfg.data_dir.display()
        )));
    }
    let checkpoint = durability::load_latest_checkpoint(&dcfg.data_dir)?;
    let wal_opts = WalOptions { segment_bytes: dcfg.segment_bytes, fsync: dcfg.fsync };
    let wdir = durability::wal_dir(&dcfg.data_dir);
    let (mut wal, tail) = Wal::open(&wdir, wal_opts.clone())?;

    let Some(ck) = checkpoint else {
        if !tail.is_empty() {
            // A log with no base checkpoint cannot be replayed (the
            // states it applies on top of are gone). Start over rather
            // than appending new epochs after stale ones.
            eprintln!(
                "dppr-serve: discarding {} WAL records with no checkpoint to anchor them",
                tail.len()
            );
            drop(wal);
            std::fs::remove_dir_all(&wdir)?;
            (wal, _) = Wal::open(&wdir, wal_opts)?;
        }
        let (driver, multi) =
            bootstrap_window(stream, init_fraction, sources, cfg, domain, registry, stats);
        // The base checkpoint: recovery always has somewhere to start, so
        // the WAL never needs to hold the (large) initial window.
        let states: Vec<PprState> =
            (0..multi.num_sources()).map(|i| multi.state(i).clone_values()).collect();
        let (ws, we) = driver.window_range();
        durability::write_checkpoint(&dcfg.data_dir, 1, (ws, we), &states)?;
        wal.append(&WalRecord::Checkpoint { epoch: 1 })?;
        wal.sync()?;
        stats.checkpoints.fetch_add(1, Relaxed);
        return Ok(Boot { driver, multi, wal: Some(wal), recovery: None, durable_epoch: 1 });
    };

    // --- recovery: checkpoint + WAL-tail replay ---------------------------
    if ck.window_end > stream.len() {
        return Err(invalid(format!(
            "checkpoint window [{}, {}) exceeds the stream length {} — wrong graph or seed?",
            ck.window_start,
            ck.window_end,
            stream.len()
        )));
    }
    let checkpoint_epoch = ck.epoch;
    let (window_start, window_end) = (ck.window_start, ck.window_end);
    let mut driver = StreamDriver::resume_from(stream, window_start, window_end);
    let mut multi = if ck.states.is_empty() {
        MultiSourcePpr::new(&[], cfg.alpha, cfg.epsilon, PushVariant::OPT)
    } else {
        MultiSourcePpr::from_states(ck.states, PushVariant::OPT)
    }
    .with_lanes(cfg.write_shards);

    // Replay only the tail: batches at or below the checkpoint epoch are
    // the duplicated-tail case (checkpointed but not yet pruned) and are
    // skipped; an epoch gap means the log lost acknowledged records and
    // recovery must not fake the missing slides.
    let mut applied_epoch = checkpoint_epoch;
    let mut replayed = 0u64;
    for rec in &tail {
        let WalRecord::Batch { epoch, window_end: rec_end, updates, .. } = rec else {
            continue;
        };
        if *epoch <= applied_epoch {
            continue;
        }
        if *epoch != applied_epoch + 1 {
            return Err(invalid(format!(
                "WAL gap: next batch is epoch {epoch}, expected {}",
                applied_epoch + 1
            )));
        }
        let (_, cur_end) = driver.window_range();
        let k = (*rec_end as usize)
            .checked_sub(cur_end)
            .filter(|&k| k > 0)
            .ok_or_else(|| invalid(format!("batch epoch {epoch} rewinds the window")))?;
        let batch = driver
            .slide_batch(k)
            .ok_or_else(|| invalid(format!("stream exhausted replaying epoch {epoch}")))?;
        if batch != *updates {
            return Err(invalid(format!(
                "WAL batch for epoch {epoch} disagrees with the stream — graph or seed changed \
                 since the log was written"
            )));
        }
        apply_counted(&mut driver, &mut multi, &batch, stats);
        applied_epoch = *epoch;
        replayed += 1;
    }

    domain.resume_at(applied_epoch);
    open_sessions(&multi, registry, applied_epoch);
    // Re-anchor retention: if the crash hit between the checkpoint rename
    // and its WAL marker, the marker is missing — append it now so the
    // covered segments can be pruned.
    mark_checkpoint(&mut wal, checkpoint_epoch)?;

    let (ws, we) = driver.window_range();
    let recovery = RecoveryReport {
        checkpoint_epoch,
        replayed_batches: replayed,
        recovered_epoch: applied_epoch,
        window_start: ws,
        window_end: we,
    };
    Ok(Boot {
        driver,
        multi,
        wal: Some(wal),
        recovery: Some(recovery),
        durable_epoch: checkpoint_epoch,
    })
}

/// What [`boot_probe`] observed: the booted epoch and a bit-exact
/// fingerprint per session state.
#[derive(Debug, Clone)]
pub struct BootProbe {
    /// Recovery outcome (`None` for a fresh durable start).
    pub recovery: Option<RecoveryReport>,
    /// The epoch the instance would serve at.
    pub epoch: u64,
    /// `(source, state_fingerprint)` per session, in session order.
    pub fingerprints: Vec<(VertexId, u64)>,
}

/// Runs the durable bootstrap exactly as [`start`] would — recovery or
/// fresh start, including WAL torn-tail repair, checkpoint-marker
/// re-append, and retention — but binds no port and spawns no threads,
/// so the returned state is frozen at the boot point instead of racing
/// the write loop. The crash-recovery harness uses this to prove a
/// recovered instance is bit-identical to a never-crashed replay.
pub fn boot_probe(
    stream: GraphStream,
    init_fraction: f64,
    sources: &[VertexId],
    cfg: &ServeConfig,
) -> io::Result<BootProbe> {
    let dcfg = cfg.durability.as_ref().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "boot_probe requires cfg.durability")
    })?;
    let domain = EpochDomain::new(0);
    let registry =
        SessionRegistry::new(Arc::clone(&domain), cfg.session_capacity.max(sources.len()).max(1));
    let stats = ServerStats::default();
    let boot =
        durable_boot(stream, init_fraction, sources, cfg, dcfg, &domain, &registry, &stats)?;
    let fingerprints = (0..boot.multi.num_sources())
        .map(|i| {
            (boot.multi.source(i), dppr_core::persist::state_fingerprint(boot.multi.state(i)))
        })
        .collect();
    Ok(BootProbe { recovery: boot.recovery, epoch: domain.epoch(), fingerprints })
}

/// Answers an un-adoptable connection with `503 Retry-After: 1`
/// (best-effort, non-blocking) and drops it.
fn shed_at_door(conn: TcpStream) {
    let mut out = Vec::with_capacity(160);
    render_response(
        &mut out,
        &Response {
            status: 503,
            body: error_body("server is at connection capacity").into(),
            retry_after: Some(1),
            content_type: None,
        },
        false,
    );
    let _ = conn.set_nonblocking(true);
    let _ = (&conn).write(&out);
}

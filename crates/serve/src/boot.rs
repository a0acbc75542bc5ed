//! Boot and recovery: [`start`] assembles an instance — bootstrap (fresh
//! window or checkpoint + WAL-tail replay), the write loop, the observer
//! and the event-loop shards that accept and serve connections — and
//! [`boot_probe`] runs the durable half alone for the recovery harness.
//! Both go through one boot path that checks the requested sources and
//! returns the sessions it maintains with the epoch they reached; it
//! registers nothing. `start` publishes each booted session once, and
//! from then on only the write loop pairs or unpairs a vector and its
//! published cell. Bootstrap and WAL-tail replay go through the same
//! `apply_batch` as a live slide, so they spread the sessions over every
//! core too, and the base checkpoint copies the states on the same lanes
//! (`MultiSourcePpr::map_states`) as the checkpointer's capture does. A
//! fresh boot writes that base checkpoint and logs nothing; a recovery
//! starts from the newest valid `ckpt-<epoch>.bin` and prunes the WAL
//! through its epoch. A data directory in an older layout, or one whose
//! checkpoints all fail validation, is refused before the WAL is opened.

use crate::audit::{self, AuditShared, SloEngine};
use crate::cache::QueryCache;
use crate::durability::{self, DurabilityConfig, RecoveryReport};
use crate::epoch::EpochDomain;
use crate::event::{spawn_shard, ConnCounters, ShardConfig};
use crate::metrics::ServerMetrics;
use crate::query::RouterImpl;
use crate::registry::SessionRegistry;
use crate::server::{Control, Ctx, ServeConfig, ServerHandle, ServerStats};
use crate::snapshot::QuerySnapshot;
use crate::writer::{apply_counted, spawn_durable, write_loop};
use dppr_core::{MultiSourcePpr, PprState};
use dppr_graph::{GraphStream, VertexId};
use dppr_stream::StreamDriver;
use dppr_wal::{Wal, WalOptions, WalRecord, WalStats};
use std::collections::HashSet;
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::mpsc;
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
    window.to_graph().top_out_degree_vertices(k)
}

/// Boots a serving instance over `stream`: applies the initial window for
/// every source in `sources` (so the returned handle is immediately
/// queryable), then starts the write loop, the observer, and the
/// event-loop shards. `init_fraction` is the sliding-window warmup share
/// (the paper uses 0.1). A recovered instance serves the sessions its
/// checkpoint holds, every one of them, even past `session_capacity`.
pub fn start(
    stream: GraphStream,
    init_fraction: f64,
    sources: &[VertexId],
    cfg: ServeConfig,
) -> io::Result<ServerHandle> {
    let vertex_bound = stream.vertex_bound();
    let threads = cfg.threads.max(1);
    let stats = ServerStats::default();
    let conn_counters = Arc::new(ConnCounters::default());
    let shutdown = Arc::new(AtomicBool::new(false));

    // --- bootstrap synchronously, then publish every booted session at
    // the booted epoch: sessions are live before we return.
    let boot = boot(stream, init_fraction, sources, &cfg, &stats)?;
    let domain = EpochDomain::new(0);
    domain.resume_at(boot.epoch);
    let sessions = boot.multi.num_sources();
    let registry =
        Arc::new(SessionRegistry::new(Arc::clone(&domain), cfg.session_capacity.max(sessions)));
    for i in 0..sessions {
        let snap = QuerySnapshot::from_state(boot.multi.state(i), boot.epoch);
        registry.open(boot.multi.source(i), Arc::new(snap));
    }
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
    let addr = listener.local_addr()?;

    let (window_start, window_end) = boot.driver.window_range();
    let boot_updates = stats.updates_offered.load(Relaxed);
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
        shard_connections: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        stream_len: boot.driver.stream_len() as u64,
        audit: AuditShared::new(&cfg),
        slo: SloEngine::new(&cfg),
        series: audit::new_series_ring(),
        audit_interval: cfg.audit_interval.max(Duration::from_millis(10)),
        boot_updates,
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
    let shard_cfg =
        ShardConfig { read_timeout: cfg.read_timeout, write_timeout: cfg.write_timeout };
    let mut shards = Vec::with_capacity(threads);
    for w in 0..threads {
        shards.push(spawn_shard(
            format!("dppr-serve-shard-{w}"),
            shard_cfg.clone(),
            listener.try_clone()?,
            Arc::clone(&shutdown),
            Arc::clone(&conn_counters),
            RouterImpl::new(Arc::clone(&ctx), ctl_tx.clone(), w),
        )?);
    }
    // --- audit + SLO observer --------------------------------------------
    // Always spawned: it samples the metrics time-series and evaluates
    // SLO burn rates every tick; the (optional) accuracy audit rides the
    // same ticker, reaching the write loop over the control channel.
    let observer = audit::spawn_observer(Arc::clone(&ctx), ctl_tx)?;

    Ok(ServerHandle { ctx, shards, workers: vec![writer, observer], recovery: boot.recovery })
}

/// What booting produced, durable or not: the maintained sessions and
/// the epoch their states are at, not yet published.
struct Boot {
    driver: StreamDriver,
    multi: MultiSourcePpr,
    /// The epoch the sessions' states are at (1 after a fresh bootstrap).
    epoch: u64,
    wal: Option<Wal>,
    recovery: Option<RecoveryReport>,
    /// Epoch of the newest durable checkpoint at startup.
    durable_epoch: u64,
}

/// The one boot path of [`start`] and [`boot_probe`]: refuses a source
/// past the stream's vertex bound or repeated in `sources`, then
/// bootstraps the initial window in memory or, with `cfg.durability`,
/// recovers from the data directory or bootstraps it fresh.
fn boot(
    stream: GraphStream,
    init_fraction: f64,
    sources: &[VertexId],
    cfg: &ServeConfig,
    stats: &ServerStats,
) -> io::Result<Boot> {
    let vertex_bound = stream.vertex_bound();
    let mut seen = HashSet::new();
    for &s in sources {
        let why = if s as usize >= vertex_bound {
            format!("outside the stream's vertex bound {vertex_bound}")
        } else if !seen.insert(s) {
            "repeated".to_string()
        } else {
            continue;
        };
        return Err(io::Error::new(io::ErrorKind::InvalidInput, format!("source {s} is {why}")));
    }
    match &cfg.durability {
        None => Ok(bootstrap_window(stream, init_fraction, sources, cfg, stats)),
        Some(d) => durable_boot(stream, init_fraction, sources, cfg, d, stats),
    }
}

/// The in-memory bootstrap: apply the initial window, which epoch 1
/// publishes.
fn bootstrap_window(
    stream: GraphStream,
    init_fraction: f64,
    sources: &[VertexId],
    cfg: &ServeConfig,
    stats: &ServerStats,
) -> Boot {
    let mut driver = StreamDriver::new(stream, init_fraction);
    let mut multi = MultiSourcePpr::new(sources, cfg.alpha, cfg.epsilon);
    let init = driver.take_initial_batch();
    apply_counted(&mut driver, &mut multi, &init, stats);
    Boot { driver, multi, epoch: 1, wal: None, recovery: None, durable_epoch: 0 }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Durable bootstrap: recover from the newest checkpoint + WAL tail when
/// one exists, else bootstrap fresh and write the epoch-1 base
/// checkpoint. Either way the returned WAL is open, repaired, and ready
/// for the write loop to append to. A directory in a layout older
/// builds wrote is refused before anything is read or written, and so is
/// one whose checkpoints all fail validation.
fn durable_boot(
    stream: GraphStream,
    init_fraction: f64,
    sources: &[VertexId],
    cfg: &ServeConfig,
    dcfg: &DurabilityConfig,
    stats: &ServerStats,
) -> io::Result<Boot> {
    std::fs::create_dir_all(&dcfg.data_dir)?;
    durability::refuse_older_layouts(&dcfg.data_dir)?;
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
        let boot = bootstrap_window(stream, init_fraction, sources, cfg, stats);
        // The base checkpoint: recovery always has somewhere to start, so
        // the WAL never needs to hold the (large) initial window.
        let window = boot.driver.window_range();
        let states = boot.multi.map_states(PprState::clone_values);
        durability::write_checkpoint(&dcfg.data_dir, 1, window, &states)?;
        stats.checkpoints.fetch_add(1, Relaxed);
        return Ok(Boot { wal: Some(wal), durable_epoch: 1, ..boot });
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
        MultiSourcePpr::new(&[], cfg.alpha, cfg.epsilon)
    } else {
        MultiSourcePpr::from_states(ck.states)
    };

    // Replay only the tail: batches at or below the checkpoint epoch are
    // the duplicated-tail case (checkpointed but not yet pruned) and are
    // skipped, as are the checkpoint markers older builds logged; an
    // epoch gap means the log lost acknowledged records and recovery
    // must not fake the missing slides.
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

    // Retention: a crash can land between a checkpoint's rename and the
    // write loop's prune, leaving segments the checkpoint covers.
    wal.prune_through(checkpoint_epoch)?;

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
        epoch: applied_epoch,
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
/// fresh start, including WAL torn-tail repair and retention — but binds
/// no port and spawns no threads, so the returned state is frozen at the
/// boot point instead of racing the write loop. The crash-recovery
/// harness uses this to prove a recovered instance is bit-identical to a
/// never-crashed replay.
pub fn boot_probe(
    stream: GraphStream,
    init_fraction: f64,
    sources: &[VertexId],
    cfg: &ServeConfig,
) -> io::Result<BootProbe> {
    cfg.durability.as_ref().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "boot_probe requires cfg.durability")
    })?;
    let boot = boot(stream, init_fraction, sources, cfg, &ServerStats::default())?;
    let fingerprints = (0..boot.multi.num_sources())
        .map(|i| (boot.multi.source(i), dppr_core::persist::state_fingerprint(boot.multi.state(i))))
        .collect();
    Ok(BootProbe { recovery: boot.recovery, epoch: boot.epoch, fingerprints })
}

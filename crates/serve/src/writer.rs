//! The write side of the instance: the one slide loop that applies
//! batches (graph once, sessions over the push lanes) and publishes
//! epochs, session control between batches, and the durability half —
//! WAL appends before publication, the background checkpointer, its
//! acknowledgement markers and retention.

use crate::audit::{AuditJob, AuditSession};
use crate::durability::{self, DurabilityConfig};
use crate::epoch::Reader;
use crate::json::JsonBuf;
use crate::registry::OpenOutcome;
use crate::server::{Control, Ctx, ServeConfig, ServerStats};
use crate::snapshot::QuerySnapshot;
use dppr_core::{MultiSourcePpr, PprState};
use dppr_graph::{EdgeUpdate, VertexId};
use dppr_stream::StreamDriver;
use dppr_wal::{Wal, WalRecord, WalStats};
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::mpsc::{self, sync_channel, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A snapshot of everything one checkpoint needs, handed to the
/// background checkpointer over a bounded channel.
struct CkptJob {
    epoch: u64,
    window: (usize, usize),
    states: Vec<PprState>,
}

impl CkptJob {
    fn capture(epoch: u64, driver: &StreamDriver, multi: &MultiSourcePpr) -> CkptJob {
        CkptJob {
            epoch,
            window: driver.window_range(),
            states: (0..multi.num_sources()).map(|i| multi.state(i).clone_values()).collect(),
        }
    }

    /// Writes the checkpoint, timed into the checkpoint histogram; on
    /// success older checkpoints are pruned and the durable epoch
    /// advances.
    fn write(&self, ctx: &Ctx, data_dir: &Path) -> io::Result<()> {
        let t = Instant::now();
        durability::write_checkpoint(data_dir, self.epoch, self.window, &self.states)?;
        ctx.metrics.checkpoint.record(t.elapsed().as_nanos() as u64);
        let _ = durability::prune_checkpoints(data_dir, self.epoch);
        ctx.durable_epoch.store(self.epoch, Relaxed);
        ctx.stats.checkpoints.fetch_add(1, Relaxed);
        Ok(())
    }
}

/// Appends and flushes the `Checkpoint` marker for durable epoch `epoch`,
/// then prunes the WAL segments it covers.
pub(crate) fn mark_checkpoint(wal: &mut Wal, epoch: u64) -> io::Result<()> {
    wal.append(&WalRecord::Checkpoint { epoch })?;
    wal.sync()?;
    wal.prune_through(epoch).map(drop)
}

/// The write loop's durability half: the WAL it owns exclusively, plus
/// the handles of the background checkpointer.
pub(crate) struct DurableState {
    wal: Wal,
    cfg: DurabilityConfig,
    /// Newest durable epoch whose `Checkpoint` marker has been appended
    /// to the WAL (retention runs when this catches up to
    /// `Ctx::durable_epoch`, which the background checkpointer publishes).
    acked: u64,
    ckpt_tx: Option<SyncSender<CkptJob>>,
    ckpt_thread: Option<JoinHandle<()>>,
    /// Set on the first WAL append failure: stop sliding, serve
    /// read-only.
    dead: bool,
    /// WAL counters as of the last [`note_wal`]; deltas against the live
    /// stats yield per-fsync latency.
    seen: WalStats,
}

/// Spawns the background checkpointer and packages the durable state for
/// the write loop.
pub(crate) fn spawn_durable(
    dcfg: DurabilityConfig,
    wal: Wal,
    durable_epoch: u64,
    ctx: Arc<Ctx>,
) -> io::Result<DurableState> {
    let (ckpt_tx, ckpt_rx) = sync_channel::<CkptJob>(1);
    let ckpt_thread = {
        let data_dir = dcfg.data_dir.clone();
        std::thread::Builder::new()
            .name("dppr-serve-ckpt".into())
            .spawn(move || {
                while let Ok(job) = ckpt_rx.recv() {
                    if let Err(e) = job.write(&ctx, &data_dir) {
                        eprintln!("dppr-serve: checkpoint at epoch {} failed: {e}", job.epoch);
                        ctx.stats.checkpoint_failures.fetch_add(1, Relaxed);
                    }
                }
            })?
    };
    let seen = wal.stats();
    Ok(DurableState {
        wal,
        cfg: dcfg,
        acked: durable_epoch,
        ckpt_tx: Some(ckpt_tx),
        ckpt_thread: Some(ckpt_thread),
        dead: false,
        seen,
    })
}

/// Publishes the WAL's fresh counters after appends/syncs: fsync latency
/// from the `sync_nanos` delta, the last-fsync timestamp for `/healthz`,
/// and the raw stats for `/stats` and `/metrics`.
fn note_wal(d: &mut DurableState, ctx: &Ctx) {
    let s = d.wal.stats();
    let syncs = s.syncs - d.seen.syncs;
    if let Some(per_sync) = (s.sync_nanos - d.seen.sync_nanos).checked_div(syncs) {
        for _ in 0..syncs {
            ctx.metrics.wal_fsync.record(per_sync);
        }
        ctx.last_fsync_ns.store(ctx.start.elapsed().as_nanos() as u64 + 1, Relaxed);
    }
    ctx.wal_segments.store(d.wal.segment_count() as u64, Relaxed);
    *ctx.wal.lock().unwrap() = s;
    d.seen = s;
}

/// Applies `batch` through the engine and counts it into `stats` — the one
/// call bootstrap, WAL-tail replay and the live slide all make. Returns
/// the updates that changed the graph and the engine time in nanoseconds.
pub(crate) fn apply_counted(
    driver: &mut StreamDriver,
    multi: &mut MultiSourcePpr,
    batch: &[EdgeUpdate],
    stats: &ServerStats,
) -> (usize, u64) {
    let t = Instant::now();
    let applied = multi.apply_batch(driver.graph_mut(), batch);
    let apply_ns = t.elapsed().as_nanos() as u64;
    stats.update_nanos.fetch_add(apply_ns, Relaxed);
    stats.updates_offered.fetch_add(batch.len() as u64, Relaxed);
    stats.updates_applied.fetch_add(applied as u64, Relaxed);
    (applied, apply_ns)
}

/// Records why the instance degraded to read-only (shown by `/healthz`).
fn mark_degraded(ctx: &Ctx, reason: String) {
    *ctx.stats.degraded_reason.lock().unwrap() = Some(reason);
    ctx.stats.degraded.store(true, SeqCst);
}

pub(crate) fn write_loop(
    mut driver: StreamDriver,
    mut multi: MultiSourcePpr,
    ctl_rx: mpsc::Receiver<Control>,
    ctx: Arc<Ctx>,
    cfg: ServeConfig,
    mut dur: Option<DurableState>,
) {
    // Baseline for per-slide counter deltas (push convergence metrics);
    // the boot/recovery work is already in the cumulative snapshot.
    let mut prev_counters = multi.counters().snapshot();
    // Round-robin cursor over the sessions for audit probes.
    let mut audit_cursor = 0usize;
    loop {
        if ctx.shutdown.load(SeqCst) {
            break;
        }
        while let Ok(ctl) = ctl_rx.try_recv() {
            handle_control(ctl, &mut driver, &mut multi, &ctx, &mut audit_cursor);
        }
        // Retention follows the background checkpointer: once a newer
        // checkpoint is durable, append its marker and drop the WAL
        // segments it covers.
        if let Some(d) = dur.as_mut() {
            ack_durable(d, &ctx);
        }
        let frozen = dur.as_ref().is_some_and(|d| d.dead)
            || (cfg.max_slides != 0
                && ctx.stats.slides.load(Relaxed) >= cfg.max_slides as u64);
        if frozen || ctx.stats.stream_done.load(Relaxed) {
            // Nothing left to slide (stream dry, slide cap, or WAL
            // failure → read-only): serve from the frozen epoch, but stay
            // responsive to session control and shutdown.
            match ctl_rx.recv_timeout(Duration::from_millis(20)) {
                Ok(ctl) => {
                    handle_control(ctl, &mut driver, &mut multi, &ctx, &mut audit_cursor)
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            continue;
        }
        let Some(batch) = driver.slide_batch(cfg.batch) else {
            ctx.stats.stream_done.store(true, Relaxed);
            continue;
        };
        // Write-ahead point: the batch must be in the log *before* its
        // effects can be observed by any query. A failed append degrades
        // to read-only serving — the slide is abandoned (the window moved,
        // but the graph, the engine states, and the published epoch all
        // stay put, which is exactly the state the log describes).
        let slide_t = Instant::now();
        let mut wal_append_ns = 0u64;
        if let Some(d) = dur.as_mut() {
            let (ws, we) = driver.window_range();
            let rec = WalRecord::Batch {
                epoch: ctx.domain.epoch() + 1,
                window_start: ws as u64,
                window_end: we as u64,
                updates: batch.clone(),
            };
            let t = Instant::now();
            if let Err(e) = d.wal.append(&rec) {
                eprintln!("dppr-serve: WAL append failed ({e}); serving read-only from here");
                d.dead = true;
                mark_degraded(&ctx, format!("WAL append failed: {e}"));
                continue;
            }
            wal_append_ns = t.elapsed().as_nanos() as u64;
            ctx.metrics.wal_append.record(wal_append_ns);
            note_wal(d, &ctx);
        }
        // Lag marker: queries observe how long the slide has been in
        // flight and shed once it exceeds `shed_after` (the snapshot they
        // would serve is stale by at least that much).
        ctx.slide_started_ns.store(ctx.start.elapsed().as_nanos() as u64 + 1, Relaxed);
        let (applied, apply_ns) = apply_counted(&mut driver, &mut multi, &batch, &ctx.stats);
        ctx.metrics.push_wall.record(apply_ns);
        let slides = ctx.stats.slides.fetch_add(1, Relaxed) + 1;
        // Publication point: one epoch per batch, every session swapped to
        // a snapshot of the new converged state.
        let epoch = ctx.domain.advance();
        let t = Instant::now();
        for i in 0..multi.num_sources() {
            if let Some(entry) = ctx.registry.peek(multi.source(i)) {
                entry.publish(
                    &ctx.domain,
                    Arc::new(QuerySnapshot::from_state(multi.state(i), epoch)),
                );
            }
        }
        let publish_ns = t.elapsed().as_nanos() as u64;
        ctx.metrics.snapshot_publish.record(publish_ns);
        ctx.slide_started_ns.store(0, Relaxed);
        let slide_ns = slide_t.elapsed().as_nanos() as u64;
        ctx.metrics.slide_apply.record(slide_ns);

        // Refresh the engine/graph/stream views `/stats` and `/metrics`
        // read (this write loop is the only thread that can see them).
        let counters = multi.counters().snapshot();
        let delta = counters - prev_counters;
        ctx.metrics.push_iterations.record(delta.iterations);
        prev_counters = counters;
        *ctx.engine.lock().unwrap() = counters;
        *ctx.graph.lock().unwrap() = driver.graph().substrate_stats();
        let (ws, we) = driver.window_range();
        ctx.window_start.store(ws as u64, Relaxed);
        ctx.window_end.store(we as u64, Relaxed);

        if ctx.metrics.trace_slides.sample() {
            let mut j = JsonBuf::new();
            j.begin_obj();
            j.key("event").str("slide");
            j.key("epoch").uint(epoch);
            j.key("batch_updates").uint(batch.len() as u64);
            j.key("applied").uint(applied as u64);
            j.key("iterations").uint(delta.iterations);
            j.key("pushes").uint(delta.pushes);
            j.key("wal_append_ns").uint(wal_append_ns);
            j.key("apply_ns").uint(apply_ns);
            j.key("publish_ns").uint(publish_ns);
            j.key("slide_ns").uint(slide_ns);
            j.end_obj();
            ctx.metrics.trace.push(j.finish());
        }

        if let Some(d) = dur.as_mut() {
            maybe_checkpoint(d, slides, epoch, &driver, &multi);
        }
        if !cfg.slide_pause.is_zero() {
            std::thread::sleep(cfg.slide_pause);
        }
    }
    // Graceful shutdown: stop the background checkpointer, flush the WAL,
    // and leave a final checkpoint so the next start replays nothing.
    if let Some(d) = dur.as_mut() {
        finalize_durable(d, &ctx, &driver, &multi);
    }
}

/// Appends the `Checkpoint` marker for any newly durable checkpoint and
/// prunes the WAL segments it covers.
fn ack_durable(d: &mut DurableState, ctx: &Ctx) {
    let e = ctx.durable_epoch.load(Relaxed);
    if d.dead || e <= d.acked {
        return;
    }
    match mark_checkpoint(&mut d.wal, e) {
        Ok(()) => {
            d.acked = e;
            note_wal(d, ctx);
        }
        Err(err) => {
            eprintln!("dppr-serve: WAL checkpoint marker failed ({err}); serving read-only");
            d.dead = true;
            mark_degraded(ctx, format!("WAL checkpoint marker failed: {err}"));
        }
    }
}

/// Hands a checkpoint job to the background checkpointer every
/// `checkpoint_every_slides` slides (`slides` counts this instance's).
/// A full channel means the previous checkpoint is still being written —
/// skip this round rather than stall the write loop.
fn maybe_checkpoint(
    d: &mut DurableState,
    slides: u64,
    epoch: u64,
    driver: &StreamDriver,
    multi: &MultiSourcePpr,
) {
    let every = d.cfg.checkpoint_every_slides;
    if every == 0 || !slides.is_multiple_of(every) {
        return;
    }
    let Some(tx) = d.ckpt_tx.as_ref() else { return };
    match tx.try_send(CkptJob::capture(epoch, driver, multi)) {
        Ok(()) | Err(TrySendError::Full(_)) => {}
        Err(TrySendError::Disconnected(_)) => d.ckpt_tx = None,
    }
}

/// Shutdown path: drain the checkpointer, then write the final
/// checkpoint synchronously (every applied slide becomes part of the
/// base; the WAL tail for the next start is empty).
fn finalize_durable(
    d: &mut DurableState,
    ctx: &Ctx,
    driver: &StreamDriver,
    multi: &MultiSourcePpr,
) {
    d.ckpt_tx = None; // close the channel → checkpointer drains and exits
    if let Some(h) = d.ckpt_thread.take() {
        let _ = h.join();
    }
    let _ = d.wal.sync();
    if d.dead {
        return;
    }
    let epoch = ctx.domain.epoch();
    if epoch <= ctx.durable_epoch.load(Relaxed) {
        return; // nothing applied since the last durable checkpoint
    }
    match CkptJob::capture(epoch, driver, multi).write(ctx, &d.cfg.data_dir) {
        Ok(()) => {
            let _ = mark_checkpoint(&mut d.wal, epoch);
        }
        Err(e) => eprintln!("dppr-serve: final checkpoint at epoch {epoch} failed: {e}"),
    }
}

fn handle_control(
    ctl: Control,
    driver: &mut StreamDriver,
    multi: &mut MultiSourcePpr,
    ctx: &Ctx,
    audit_cursor: &mut usize,
) {
    match ctl {
        Control::Open(s) => {
            if ctx.registry.peek(s).is_some() {
                return;
            }
            let i = multi.add_source(driver.graph(), s);
            let snap = QuerySnapshot::from_state(multi.state(i), ctx.domain.epoch());
            if let OpenOutcome::Opened { evicted: Some(victim) } =
                ctx.registry.open(s, Arc::new(snap))
            {
                remove_maintained(multi, victim);
                ctx.stats.sessions_evicted.fetch_add(1, Relaxed);
            }
            ctx.stats.sessions_opened.fetch_add(1, Relaxed);
        }
        Control::Close(s) => {
            if ctx.registry.close(s) {
                remove_maintained(multi, s);
                ctx.stats.sessions_closed.fetch_add(1, Relaxed);
            }
        }
        Control::Audit { max_sessions, reply } => {
            // Between batches the graph, the live states, and the
            // published snapshots are mutually consistent — clone them
            // all here and let the observer pay for the exact solve.
            let sources = ctx.registry.sources();
            let take = max_sessions.min(sources.len());
            let cursor = *audit_cursor;
            *audit_cursor += take;
            let mut sessions = Vec::with_capacity(take);
            for k in 0..take {
                let source = sources[(cursor + k) % sources.len()];
                let (Some(entry), Some(i)) = (ctx.registry.peek(source), multi.index_of(source))
                else {
                    continue; // raced with a close; skip
                };
                sessions.push(AuditSession {
                    source,
                    snapshot: entry.load(&Reader),
                    state: multi.state(i).clone_values(),
                });
            }
            let job = AuditJob {
                epoch: ctx.domain.epoch(),
                graph: driver.graph().clone(),
                sessions,
            };
            // The observer may have timed out and gone away; that's its
            // problem, not the write loop's.
            let _ = reply.send(job);
        }
    }
}

fn remove_maintained(multi: &mut MultiSourcePpr, source: VertexId) {
    if let Some(i) = multi.index_of(source) {
        multi.remove_source(i);
    }
}

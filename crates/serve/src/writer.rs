//! The write side of one write shard: the slide loop that applies
//! batches and publishes epochs, session control between batches, and
//! the durability half — WAL appends before publication, the background
//! checkpointer, its acknowledgement markers and retention.

use crate::audit::{AuditJob, AuditSession};
use crate::durability::{self, DurabilityConfig};
use crate::epoch::Reader;
use crate::json::JsonBuf;
use crate::registry::OpenOutcome;
use crate::server::{Control, Ctx, ServeConfig, WriteShardState};
use crate::snapshot::QuerySnapshot;
use dppr_core::{MultiSourcePpr, PprState};
use dppr_graph::VertexId;
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

    /// Writes the checkpoint, timed into both checkpoint histograms; on
    /// success older checkpoints are pruned and the shard's durable
    /// epoch advances.
    fn write(&self, ctx: &Ctx, shard: &WriteShardState, data_dir: &Path) -> io::Result<()> {
        let t = Instant::now();
        durability::write_checkpoint(data_dir, self.epoch, self.window, &self.states)?;
        let ns = t.elapsed().as_nanos() as u64;
        ctx.metrics.checkpoint.record(ns);
        shard.stage.checkpoint.record(ns);
        let _ = durability::prune_checkpoints(data_dir, self.epoch);
        shard.durable_epoch.store(self.epoch, Relaxed);
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
    /// to the WAL (retention runs when this catches up to the shard's
    /// `durable_epoch`, which the background checkpointer publishes).
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

/// Spawns the background checkpointer for one write shard and packages
/// the durable state for that shard's write loop.
pub(crate) fn spawn_durable(
    dcfg: DurabilityConfig,
    wal: Wal,
    durable_epoch: u64,
    ctx: Arc<Ctx>,
    shard: Arc<WriteShardState>,
) -> io::Result<DurableState> {
    let (ckpt_tx, ckpt_rx) = sync_channel::<CkptJob>(1);
    let ckpt_thread = {
        let data_dir = dcfg.data_dir.clone();
        std::thread::Builder::new()
            .name(format!("dppr-serve-ckpt-{}", shard.index))
            .spawn(move || {
                while let Ok(job) = ckpt_rx.recv() {
                    if let Err(e) = job.write(&ctx, &shard, &data_dir) {
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

/// Publishes one shard's fresh WAL counters after appends/syncs: fsync
/// latency from the `sync_nanos` delta, the last-fsync timestamp for
/// `/healthz`, and the raw stats for `/stats` and `/metrics` (which sum
/// them across shards when they render).
fn note_wal(d: &mut DurableState, ctx: &Ctx, shard: &WriteShardState) {
    let s = d.wal.stats();
    let syncs = s.syncs - d.seen.syncs;
    if let Some(per_sync) = (s.sync_nanos - d.seen.sync_nanos).checked_div(syncs) {
        for _ in 0..syncs {
            ctx.metrics.wal_fsync.record(per_sync);
            shard.stage.wal_fsync.record(per_sync);
        }
        shard
            .last_fsync_ns
            .store(ctx.start.elapsed().as_nanos() as u64 + 1, Relaxed);
    }
    shard.wal_segments.store(d.wal.segment_count() as u64, Relaxed);
    *shard.wal.lock().unwrap() = s;
    d.seen = s;
}

/// Records why a write shard degraded to read-only (shown by
/// `/healthz`): the shard's own flag plus the instance-level flag. The
/// first shard to degrade provides the instance-level reason.
fn mark_degraded(ctx: &Ctx, shard: &WriteShardState, reason: String) {
    shard.degraded.store(true, SeqCst);
    let global = if ctx.shards.len() == 1 {
        reason.clone()
    } else {
        format!("write shard {}: {reason}", shard.index)
    };
    *shard.degraded_reason.lock().unwrap() = Some(reason);
    ctx.stats.degraded.store(true, SeqCst);
    let mut g = ctx.stats.degraded_reason.lock().unwrap();
    if g.is_none() {
        *g = Some(global);
    }
}

pub(crate) fn write_loop(
    mut driver: StreamDriver,
    mut multi: MultiSourcePpr,
    ctl_rx: mpsc::Receiver<Control>,
    ctx: Arc<Ctx>,
    shard: Arc<WriteShardState>,
    cfg: ServeConfig,
    mut dur: Option<DurableState>,
) {
    // Baseline for per-slide counter deltas (push convergence metrics);
    // the boot/recovery work is already in the cumulative snapshot.
    let mut prev_counters = multi.counters().snapshot();
    // Epoch reader for audit probes: loading a session's published
    // snapshot must pin an epoch like any other reader. The domain is
    // sized `threads + 4`, so the write loop's own reader fits in the
    // slack.
    let reader = shard.domain.register_reader();
    loop {
        if ctx.shutdown.load(SeqCst) {
            break;
        }
        while let Ok(ctl) = ctl_rx.try_recv() {
            handle_control(ctl, &mut driver, &mut multi, &ctx, &shard, &reader);
        }
        // Retention follows the background checkpointer: once a newer
        // checkpoint is durable, append its marker and drop the WAL
        // segments it covers.
        if let Some(d) = dur.as_mut() {
            ack_durable(d, &ctx, &shard);
        }
        let frozen = dur.as_ref().is_some_and(|d| d.dead)
            || (cfg.max_slides != 0
                && shard.slides.load(Relaxed) >= cfg.max_slides as u64);
        if frozen || shard.stream_done.load(Relaxed) {
            // Nothing left to slide (stream dry, slide cap, or WAL
            // failure → read-only): serve from the frozen epoch, but stay
            // responsive to session control and shutdown.
            match ctl_rx.recv_timeout(Duration::from_millis(20)) {
                Ok(ctl) => handle_control(ctl, &mut driver, &mut multi, &ctx, &shard, &reader),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            continue;
        }
        let Some(batch) = driver.slide_batch(cfg.batch) else {
            shard.stream_done.store(true, Relaxed);
            ctx.refresh_stream_done();
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
                epoch: shard.domain.epoch() + 1,
                window_start: ws as u64,
                window_end: we as u64,
                updates: batch.clone(),
            };
            let t = Instant::now();
            if let Err(e) = d.wal.append(&rec) {
                eprintln!("dppr-serve: WAL append failed ({e}); serving read-only from here");
                d.dead = true;
                mark_degraded(&ctx, &shard, format!("WAL append failed: {e}"));
                continue;
            }
            wal_append_ns = t.elapsed().as_nanos() as u64;
            ctx.metrics.wal_append.record(wal_append_ns);
            shard.stage.wal_append.record(wal_append_ns);
            note_wal(d, &ctx, &shard);
        }
        // Lag marker: queries routed to this shard observe how long the
        // slide has been in flight and shed once it exceeds `shed_after`
        // (the snapshot they would serve is stale by at least that much).
        shard
            .slide_started_ns
            .store(ctx.start.elapsed().as_nanos() as u64 + 1, Relaxed);
        let t = Instant::now();
        let applied = multi.apply_batch(driver.graph_mut(), &batch);
        let apply_ns = t.elapsed().as_nanos() as u64;
        ctx.metrics.push_wall.record(apply_ns);
        shard.stage.push_wall.record(apply_ns);
        ctx.stats.update_nanos.fetch_add(apply_ns, Relaxed);
        ctx.stats.updates_offered.fetch_add(batch.len() as u64, Relaxed);
        ctx.stats.updates_applied.fetch_add(applied as u64, Relaxed);
        ctx.stats.slides.fetch_add(1, Relaxed);
        shard.slides.fetch_add(1, Relaxed);
        // Publication point: one epoch per batch, every session swapped to
        // a snapshot of the new converged state.
        let epoch = shard.domain.advance();
        let t = Instant::now();
        for i in 0..multi.num_sources() {
            if let Some(entry) = shard.registry.peek(multi.source(i)) {
                entry.publish(
                    &shard.domain,
                    Arc::new(QuerySnapshot::from_state(multi.state(i), epoch)),
                );
            }
        }
        let publish_ns = t.elapsed().as_nanos() as u64;
        ctx.metrics.snapshot_publish.record(publish_ns);
        shard.stage.snapshot_publish.record(publish_ns);
        shard.slide_started_ns.store(0, Relaxed);
        let slide_ns = slide_t.elapsed().as_nanos() as u64;
        ctx.metrics.slide_apply.record(slide_ns);
        shard.stage.slide_apply.record(slide_ns);

        // Refresh the engine/graph/stream views `/stats` and `/metrics`
        // read (this write loop is the only thread that can see them).
        let counters = multi.counters().snapshot();
        let delta = counters - prev_counters;
        ctx.metrics.push_iterations.record(delta.iterations);
        prev_counters = counters;
        *shard.engine.lock().unwrap() = counters;
        *shard.graph.lock().unwrap() = driver.graph().substrate_stats();
        let (ws, we) = driver.window_range();
        shard.window_start.store(ws as u64, Relaxed);
        shard.window_end.store(we as u64, Relaxed);

        if ctx.metrics.trace_slides.sample() {
            let mut j = JsonBuf::new();
            j.begin_obj();
            j.key("event").str("slide");
            j.key("write_shard").uint(shard.index as u64);
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
            maybe_checkpoint(d, &shard, epoch, &driver, &multi);
        }
        if !cfg.slide_pause.is_zero() {
            std::thread::sleep(cfg.slide_pause);
        }
    }
    // Graceful shutdown: stop the background checkpointer, flush the WAL,
    // and leave a final checkpoint so the next start replays nothing.
    if let Some(d) = dur.as_mut() {
        finalize_durable(d, &ctx, &shard, &driver, &multi);
    }
}

/// Appends the `Checkpoint` marker for any newly durable checkpoint and
/// prunes the WAL segments it covers.
fn ack_durable(d: &mut DurableState, ctx: &Ctx, shard: &WriteShardState) {
    let e = shard.durable_epoch.load(Relaxed);
    if d.dead || e <= d.acked {
        return;
    }
    match mark_checkpoint(&mut d.wal, e) {
        Ok(()) => {
            d.acked = e;
            note_wal(d, ctx, shard);
        }
        Err(err) => {
            eprintln!("dppr-serve: WAL checkpoint marker failed ({err}); serving read-only");
            d.dead = true;
            mark_degraded(ctx, shard, format!("WAL checkpoint marker failed: {err}"));
        }
    }
}

/// Hands a checkpoint job to the background checkpointer every
/// `checkpoint_every_slides` slides. A full channel means the previous
/// checkpoint is still being written — skip this round rather than stall
/// the write loop.
fn maybe_checkpoint(
    d: &mut DurableState,
    shard: &WriteShardState,
    epoch: u64,
    driver: &StreamDriver,
    multi: &MultiSourcePpr,
) {
    let every = d.cfg.checkpoint_every_slides;
    if every == 0 || !shard.slides.load(Relaxed).is_multiple_of(every) {
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
    shard: &WriteShardState,
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
    let epoch = shard.domain.epoch();
    if epoch <= shard.durable_epoch.load(Relaxed) {
        return; // nothing applied since the last durable checkpoint
    }
    match CkptJob::capture(epoch, driver, multi).write(ctx, shard, &d.cfg.data_dir) {
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
    shard: &WriteShardState,
    reader: &Reader,
) {
    match ctl {
        Control::Open(s) => {
            if shard.registry.peek(s).is_some() {
                return;
            }
            let i = multi.add_source(driver.graph(), s);
            let snap = QuerySnapshot::from_state(multi.state(i), shard.domain.epoch());
            if let OpenOutcome::Opened { evicted: Some(victim) } =
                shard.registry.open(s, Arc::new(snap))
            {
                remove_maintained(multi, victim);
                ctx.stats.sessions_evicted.fetch_add(1, Relaxed);
            }
            ctx.stats.sessions_opened.fetch_add(1, Relaxed);
        }
        Control::Close(s) => {
            if shard.registry.close(s) {
                remove_maintained(multi, s);
                ctx.stats.sessions_closed.fetch_add(1, Relaxed);
            }
        }
        Control::Audit { max_sessions, reply } => {
            // Between batches the graph, the live states, and the
            // published snapshots are mutually consistent — clone them
            // all here and let the observer pay for the exact solve.
            let sources = shard.registry.sources();
            let take = max_sessions.min(sources.len());
            let cursor = shard.audit_cursor.fetch_add(take as u64, Relaxed) as usize;
            let mut sessions = Vec::with_capacity(take);
            for k in 0..take {
                let source = sources[(cursor + k) % sources.len()];
                let (Some(entry), Some(i)) =
                    (shard.registry.peek(source), multi.index_of(source))
                else {
                    continue; // raced with a close; skip
                };
                sessions.push(AuditSession {
                    source,
                    snapshot: entry.load(reader),
                    state: multi.state(i).clone_values(),
                });
            }
            let job = AuditJob {
                epoch: shard.domain.epoch(),
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

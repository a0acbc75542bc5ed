//! The readiness-polled event loop: one shard per serving thread.
//!
//! Each shard owns a set of client connections outright — no locking, no
//! handoff after accept — and multiplexes them with `poll(2)` (the
//! vendored [`minipoll`] wrapper). Every shard polls its own clone of the
//! instance's listening socket and accepts one connection per wake-up, so
//! any shard may accept a given connection; until one does, connections
//! wait in the kernel's listen backlog.
//!
//! A shard iteration:
//!
//! 1. build the poll set — the wake pipe, the listener, plus every
//!    connection with its current interest (read while awaiting requests,
//!    write while responses are pending);
//! 2. poll with a timeout capped by the nearest connection deadline (and
//!    a 100 ms ceiling so shutdown is always noticed);
//! 3. accept a pending connection if the listener is readable;
//! 4. drive readable/writable connections through their state machines,
//!    routing every complete request via the shard's [`Router`];
//! 5. reap connections that hit their read or write deadline.
//!
//! The wake pipe (a `UnixStream` pair; self-pipe trick) is written by
//! `shutdown` and `join`, so a shard blocked in `poll` reacts immediately
//! rather than at the timeout ceiling.

use crate::conn::{Close, Conn, Step};
use crate::http::{Request, Response};
use crate::json::error_body;
use minipoll::{poll, PollFd, READABLE};
use std::io::ErrorKind::{Interrupted, WouldBlock};
use std::io::{self, Read as _, Write as _};
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Ceiling on a shard's poll timeout: the latency bound on noticing a
/// shutdown flag or a missed wake.
const POLL_CEILING: Duration = Duration::from_millis(100);

/// Requests answered per connection per event-loop tick. Without this
/// cap one chatty pipelining client monopolizes its shard: the drive
/// loop would answer its entire buffered pipeline before any other
/// connection gets a turn. A capped connection is marked deferred and
/// re-driven next iteration (with a zero poll timeout, so the leftover
/// requests wait one round-robin lap, not a poll ceiling).
const REQUESTS_PER_TICK: u32 = 8;

/// Routes one parsed request to a response. Implemented by the server
/// (which closes over the registry, cache, and control channel); the
/// event loop itself is protocol-only.
pub trait Router: Send + 'static {
    /// Answer `req`. Infallible at this layer: routing errors are encoded
    /// as 4xx/5xx responses.
    fn route(&mut self, req: &Request) -> Response;

    /// Stage timing for one answered request (parse → route → serialize,
    /// in nanoseconds), called right after the response is enqueued. The
    /// default does nothing; the server's router records them into the
    /// instance's stage histograms.
    fn observe_http(
        &mut self,
        _req: &Request,
        _status: u16,
        _parse_ns: u64,
        _route_ns: u64,
        _write_ns: u64,
    ) {
    }

    /// Called once per event-loop iteration with this shard's live
    /// connection count.
    fn on_tick(&mut self, _live_conns: usize) {}
}

/// Timeouts and bounds one shard enforces.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Close a connection with no complete request for this long.
    pub read_timeout: Duration,
    /// Close a connection whose peer stops draining responses for this
    /// long.
    pub write_timeout: Duration,
}

/// Live connection-layer counters, shared by every shard of an instance
/// (all monotone; incremented straight from the loops so `/stats` sees
/// them without waiting for a join).
#[derive(Debug, Default)]
pub struct ConnCounters {
    /// Connections accepted by a shard.
    pub accepted: AtomicU64,
    /// Connections fully closed.
    pub closed: AtomicU64,
    /// HTTP requests answered (any endpoint, any status).
    pub requests: AtomicU64,
    /// 400s sent for malformed/oversized request heads.
    pub bad_requests: AtomicU64,
    /// Connections reaped by the read/idle deadline.
    pub read_timeouts: AtomicU64,
    /// Connections reaped by the write-stall deadline.
    pub write_timeouts: AtomicU64,
}

/// A handle to one spawned shard: its wake pipe plus the join handle.
pub struct ShardHandle {
    wake_tx: UnixStream,
    join: JoinHandle<()>,
}

impl ShardHandle {
    /// Wakes the shard out of `poll` (idempotent; a full pipe already
    /// guarantees a pending wake).
    pub fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Joins the shard thread (the instance shutdown flag must already be
    /// set, or this blocks until it is).
    pub fn join(self) {
        self.wake();
        let _ = self.join.join();
    }
}

/// Spawns one shard event loop that accepts from `listener` (switched to
/// non-blocking here; each shard of an instance gets its own clone of the
/// one listening socket). `shutdown` is the instance-wide flag; the shard
/// exits (flushing best-effort) once it is set.
pub fn spawn_shard<R: Router>(
    name: String,
    cfg: ShardConfig,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ConnCounters>,
    mut router: R,
) -> io::Result<ShardHandle> {
    listener.set_nonblocking(true)?;
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let join = std::thread::Builder::new().name(name).spawn(move || {
        let mut conns: Vec<Conn> = Vec::new();
        // After an accept error other than `WouldBlock` (e.g. EMFILE) the
        // listener sits out of the poll set until this instant — one poll
        // ceiling — so a persistent failure cannot spin the shard.
        let mut accept_paused_until = Instant::now();
        loop {
            if shutdown.load(SeqCst) {
                drain_on_shutdown(&mut conns);
                return;
            }

            // 1. poll set: wake pipe, listener, then every connection.
            let now = Instant::now();
            let listening = if now >= accept_paused_until { READABLE } else { 0 };
            let mut fds = Vec::with_capacity(conns.len() + 2);
            fds.push(PollFd::new(wake_rx.as_raw_fd(), READABLE));
            fds.push(PollFd::new(listener.as_raw_fd(), listening));
            for c in &conns {
                fds.push(PollFd::new(c.stream().as_raw_fd(), c.interest()));
            }

            // 2. timeout: nearest deadline, bounded by the ceiling. A
            // deferred connection (per-tick request budget hit with input
            // still buffered) forces an immediate pass: its pending
            // requests generate no readiness edge, so waiting would
            // strand them for a full poll ceiling.
            let mut timeout = POLL_CEILING;
            for c in &conns {
                if c.deferred {
                    timeout = Duration::ZERO;
                    break;
                }
                let dl = c.deadline(cfg.read_timeout, cfg.write_timeout);
                timeout = timeout.min(dl.saturating_duration_since(now));
            }
            if poll(&mut fds, Some(timeout)).is_err() {
                // EINVAL/ENOMEM-class failures: back off instead of
                // spinning; the loop state itself is still consistent.
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            let now = Instant::now();

            // 3. drain the wake pipe; accept one connection if the
            // listener is readable. `WouldBlock` means a sibling shard
            // took it.
            if fds[0].readable() {
                let mut sink = [0u8; 64];
                while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}
            }
            if fds[1].readable() {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if let Ok(c) = Conn::new(stream, now) {
                            stats.accepted.fetch_add(1, Relaxed);
                            conns.push(c);
                        }
                    }
                    Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => {}
                    Err(_) => accept_paused_until = now + POLL_CEILING,
                }
            }

            // 4./5. drive ready connections; reap dead or expired ones.
            // fds[2..] lines up with conns before this iteration's accept
            // (a new conn gets its first edge next round).
            let mut closed = Vec::new();
            for fi in 2..fds.len() {
                let step = drive(&mut conns[fi - 2], &fds[fi], now, &stats, &mut router);
                if let Step::Close(_) = step {
                    closed.push(fi - 2);
                }
            }
            // Also reap connections that expired; only `expired` reports
            // the timeouts, so they are counted here alone.
            for (ci, c) in conns.iter().enumerate() {
                if closed.contains(&ci) {
                    continue;
                }
                if let Some(why) = c.expired(now, cfg.read_timeout, cfg.write_timeout) {
                    match why {
                        Close::ReadTimeout => stats.read_timeouts.fetch_add(1, Relaxed),
                        Close::WriteTimeout => stats.write_timeouts.fetch_add(1, Relaxed),
                        _ => 0,
                    };
                    closed.push(ci);
                }
            }
            closed.sort_unstable_by(|a, b| b.cmp(a));
            closed.dedup();
            for ci in closed {
                conns.swap_remove(ci);
                stats.closed.fetch_add(1, Relaxed);
            }

            // 6. report this iteration's connection count.
            router.on_tick(conns.len());
        }
    })?;
    Ok(ShardHandle { wake_tx, join })
}

/// Drives one connection through a readiness edge: read, parse+route as
/// many requests as are buffered, flush. Closes only with `Done` or
/// `Error`; timeouts are `Conn::expired`'s to report.
fn drive<R: Router>(
    c: &mut Conn,
    fd: &PollFd,
    now: Instant,
    stats: &ConnCounters,
    router: &mut R,
) -> Step {
    if fd.hup_or_err() && !fd.readable() {
        // Dead socket with nothing left to read (a closed peer that still
        // has bytes for us stays readable and is drained below).
        return Step::Close(Close::Done);
    }
    if fd.readable() {
        if let Step::Close(why) = c.fill(now) {
            return Step::Close(why);
        }
    }
    // Parse and answer buffered requests (pipelining), independent of
    // which edge woke us — requests may already sit in the buffer. At
    // most `REQUESTS_PER_TICK` per connection per pass: a deep pipeline
    // yields to the shard's other connections and resumes next tick.
    c.deferred = false;
    let mut budget = REQUESTS_PER_TICK;
    loop {
        if budget == 0 {
            // More input may be buffered; come back after other
            // connections have had their turn.
            c.deferred = c.wants_requests();
            break;
        }
        let t0 = Instant::now();
        match c.next_request(now) {
            Ok(Some((req, keep_alive))) => {
                budget -= 1;
                let t1 = Instant::now();
                stats.requests.fetch_add(1, Relaxed);
                let resp = router.route(&req);
                let t2 = Instant::now();
                c.enqueue(&resp, keep_alive);
                let t3 = Instant::now();
                router.observe_http(
                    &req,
                    resp.status,
                    (t1 - t0).as_nanos() as u64,
                    (t2 - t1).as_nanos() as u64,
                    (t3 - t2).as_nanos() as u64,
                );
            }
            Ok(None) => break,
            Err(msg) => {
                stats.bad_requests.fetch_add(1, Relaxed);
                c.enqueue(&Response::new(400, error_body(&msg)), false);
                break;
            }
        }
    }
    if c.has_pending_output() || fd.writable() {
        if let Step::Close(why) = c.flush(now) {
            return Step::Close(why);
        }
    }
    Step::Continue
}

/// Best-effort flush of pending responses at shutdown: one short poll
/// round per connection's remaining output, then drop everything.
fn drain_on_shutdown(conns: &mut Vec<Conn>) {
    let deadline = Instant::now() + Duration::from_millis(200);
    while Instant::now() < deadline {
        let mut pending = false;
        let now = Instant::now();
        for c in conns.iter_mut() {
            if c.has_pending_output() {
                match c.flush(now) {
                    Step::Continue => pending = c.has_pending_output() || pending,
                    Step::Close(_) => {}
                }
            }
        }
        if !pending {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    conns.clear();
}

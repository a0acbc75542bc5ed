//! Online accuracy auditing, the metrics time-series sampler, and SLO
//! burn-rate evaluation — one observer thread per instance.
//!
//! The paper's contract is `|π(v) − Ps(v)| ≤ ε` for every vertex at
//! every published epoch; this module *checks it in production* instead
//! of trusting the algebra. Every tick the observer:
//!
//! 1. (optionally) asks the write loop for an [`AuditJob`]: the graph
//!    plus up to `--audit-sample` live sessions' published snapshots and
//!    live states (round-robin over the sessions), all captured between
//!    batches so they are mutually consistent. The observer
//!    then recomputes ground truth with the *sequential* Gauss–Jacobi
//!    solver ([`dppr_core::exact_ppr_seq`], so the audit never takes
//!    cores from the write path) and reports L1/L∞ error,
//!    top-k overlap, and the Eq. 2 invariant residual as
//!    `dppr_audit_*` metric families.
//! 2. samples selected counters, gauges, and windowed percentiles into
//!    the in-process time-series ring ([`dppr_obs::SeriesRing`],
//!    served by `GET /series`).
//! 3. evaluates the configured SLOs as fast/slow burn-rate windows
//!    over that series; a fast-window latency breach flips the shed
//!    flag the query path consults, and every breach shows up in
//!    `/metrics` (`dppr_slo_*`) and `/healthz`.
//!
//! The expensive ground-truth solve runs on the observer thread; the
//! write loop only pays for cloning state, which keeps audit overhead
//! on the serving path small and measurable (`dppr_audit_solve_seconds`
//! times every solve).

use crate::metrics::{series_columns, SeriesColumn, View};
use crate::server::{Control, Ctx, ServeConfig};
use crate::snapshot::QuerySnapshot;
use dppr_core::multi::top_k_of;
use dppr_core::{exact_ppr_seq, max_invariant_violation, AtomicF64, PprState};
use dppr_graph::{DynamicGraph, VertexId};
use dppr_obs::{HistSnapshot, SeriesRing};
use std::collections::HashSet;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Burn-rate window sizes in observer ticks. With the default 500ms
/// interval the fast window spans ~2.5s (page-now signal) and the slow
/// window ~30s (sustained-burn signal).
pub(crate) const FAST_TICKS: usize = 5;
pub(crate) const SLOW_TICKS: usize = 60;

/// Rows retained by the metrics time-series ring (~4 minutes at the
/// default tick).
const SERIES_CAP: usize = 512;

/// The in-process time-series ring; its columns are the table rows that
/// name a `/series` column.
pub(crate) fn new_series_ring() -> SeriesRing {
    SeriesRing::new(series_columns().into_iter().map(|(name, _)| name).collect(), SERIES_CAP)
}

// --- audit data flow ------------------------------------------------------

/// One session's audit inputs, captured by the write loop.
pub(crate) struct AuditSession {
    pub(crate) source: VertexId,
    /// The published snapshot readers are answering from.
    pub(crate) snapshot: Arc<QuerySnapshot>,
    /// The live `(Ps, Rs)` state, for the invariant residual.
    pub(crate) state: PprState,
}

/// What the write loop hands the observer: a consistent `(graph, epoch,
/// sessions)` capture taken between batches.
pub(crate) struct AuditJob {
    pub(crate) epoch: u64,
    pub(crate) graph: DynamicGraph,
    pub(crate) sessions: Vec<AuditSession>,
}

/// Audit scalars published by the observer, read by `/metrics`,
/// `/stats`, and the accuracy SLO.
pub(crate) struct AuditShared {
    /// Whether accuracy audits run at all (`--audit-sample > 0`).
    pub(crate) enabled: bool,
    /// Sessions probed per audit tick.
    pub(crate) sample: usize,
    /// Audit ticks completed.
    pub(crate) runs: AtomicU64,
    /// Sessions audited, cumulative.
    pub(crate) sessions_audited: AtomicU64,
    /// Sessions whose audited L∞ error exceeded the ε contract.
    pub(crate) bound_violations: AtomicU64,
    /// Observer CPU spent auditing (solve + scoring), nanos.
    pub(crate) cpu_nanos: AtomicU64,
    /// Epoch lag of the last audit: published epoch at report time minus
    /// the audited epoch.
    pub(crate) staleness_epochs: AtomicU64,
    /// Epoch of the newest completed audit.
    pub(crate) last_epoch: AtomicU64,
    pub(crate) last_l1: AtomicF64,
    pub(crate) last_linf: AtomicF64,
    /// Largest L∞ error ever audited (the headline accuracy number).
    pub(crate) max_linf: AtomicF64,
    pub(crate) last_overlap10: AtomicF64,
    pub(crate) last_overlap50: AtomicF64,
    /// Largest Eq. 2 invariant residual in the last audit.
    pub(crate) last_residual: AtomicF64,
}

impl AuditShared {
    pub(crate) fn new(cfg: &ServeConfig) -> Self {
        AuditShared {
            enabled: cfg.audit_sample > 0,
            sample: cfg.audit_sample,
            runs: AtomicU64::new(0),
            sessions_audited: AtomicU64::new(0),
            bound_violations: AtomicU64::new(0),
            cpu_nanos: AtomicU64::new(0),
            staleness_epochs: AtomicU64::new(0),
            last_epoch: AtomicU64::new(0),
            last_l1: AtomicF64::new(0.0),
            last_linf: AtomicF64::new(0.0),
            max_linf: AtomicF64::new(0.0),
            // Overlap defaults to perfect so the accuracy SLO does not
            // burn before the first audit lands.
            last_overlap10: AtomicF64::new(1.0),
            last_overlap50: AtomicF64::new(1.0),
            last_residual: AtomicF64::new(0.0),
        }
    }
}

// --- SLO engine -----------------------------------------------------------

/// What quantity an SLO constrains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SloKind {
    /// Per-tick windowed HTTP p99 must stay under the target (seconds).
    LatencyP99,
    /// Served fraction `1 − shed/requests` must stay above the target.
    Availability,
    /// Audited top-10 overlap must stay above the target.
    TopkOverlap,
}

pub(crate) struct SloSpec {
    pub(crate) name: &'static str,
    pub(crate) kind: SloKind,
    pub(crate) target: f64,
}

/// One SLO's live evaluation state.
pub(crate) struct SloStatus {
    pub(crate) burn_fast: AtomicF64,
    pub(crate) burn_slow: AtomicF64,
    pub(crate) breaching: AtomicBool,
    /// Healthy→breaching transitions (a page count, not a tick count).
    pub(crate) breaches: AtomicU64,
}

/// Declarative SLO targets plus their burn-rate evaluation state. A
/// burn rate of 1.0 means "consuming the error budget exactly at the
/// allowed rate"; ≥ 1.0 over the fast window is a breach.
pub(crate) struct SloEngine {
    pub(crate) specs: Vec<SloSpec>,
    pub(crate) status: Vec<SloStatus>,
    /// Set while the latency SLO breaches its fast window; the query
    /// path sheds load until the burn drops back under 1.
    pub(crate) shed: AtomicBool,
}

impl SloEngine {
    pub(crate) fn new(cfg: &ServeConfig) -> Self {
        let mut specs = Vec::new();
        if !cfg.slo_p99.is_zero() {
            specs.push(SloSpec {
                name: "latency_p99",
                kind: SloKind::LatencyP99,
                target: cfg.slo_p99.as_secs_f64(),
            });
        }
        if cfg.slo_availability > 0.0 {
            specs.push(SloSpec {
                name: "availability",
                kind: SloKind::Availability,
                target: cfg.slo_availability.min(1.0 - 1e-9),
            });
        }
        if cfg.slo_topk_overlap > 0.0 {
            specs.push(SloSpec {
                name: "topk_overlap",
                kind: SloKind::TopkOverlap,
                target: cfg.slo_topk_overlap.min(1.0 - 1e-9),
            });
        }
        let status = specs
            .iter()
            .map(|_| SloStatus {
                burn_fast: AtomicF64::new(0.0),
                burn_slow: AtomicF64::new(0.0),
                breaching: AtomicBool::new(false),
                breaches: AtomicU64::new(0),
            })
            .collect();
        SloEngine { specs, status, shed: AtomicBool::new(false) }
    }

    pub(crate) fn any_breaching(&self) -> bool {
        self.status.iter().any(|s| s.breaching.load(Relaxed))
    }

    /// `"SLO <name> fast burn <x.xx>"` for the first breaching SLO.
    pub(crate) fn breach_reason(&self) -> Option<String> {
        self.specs.iter().zip(&self.status).find_map(|(spec, st)| {
            st.breaching.load(Relaxed).then(|| {
                format!("SLO {} fast burn {:.2}", spec.name, st.burn_fast.load())
            })
        })
    }
}

// --- the observer thread --------------------------------------------------

/// Spawns the audit/series/SLO observer. Always spawned — series
/// sampling and SLO evaluation are unconditional; the accuracy audit
/// only runs when `--audit-sample > 0`.
pub(crate) fn spawn_observer(
    ctx: Arc<Ctx>,
    ctl_tx: mpsc::Sender<Control>,
) -> io::Result<JoinHandle<()>> {
    thread::Builder::new()
        .name("dppr-observer".into())
        .spawn(move || observer_loop(&ctx, &ctl_tx))
}

fn observer_loop(ctx: &Ctx, ctl_tx: &mpsc::Sender<Control>) {
    let interval = ctx.audit_interval;
    let mut prev_http: HistSnapshot = ctx.metrics.http_request.snapshot();
    let columns = series_columns();
    loop {
        // Sleep in short chunks so shutdown is honored promptly even
        // with long tick intervals.
        let mut slept = Duration::ZERO;
        while slept < interval {
            if ctx.shutdown.load(SeqCst) {
                return;
            }
            let chunk = (interval - slept).min(Duration::from_millis(50));
            thread::sleep(chunk);
            slept += chunk;
        }
        if ctx.shutdown.load(SeqCst) {
            return;
        }
        if ctx.audit.sample > 0 {
            audit_tick(ctx, ctl_tx);
        }
        let http = ctx.metrics.http_request.snapshot();
        let (p50, p99) = tick_percentiles(&prev_http, &http);
        prev_http = http;
        push_series_row(ctx, &columns, (p50, p99));
        evaluate_slos(ctx);
    }
}

/// Per-tick windowed percentiles: the delta of the cumulative HTTP
/// histogram against the previous tick's snapshot. A tick with no
/// requests reads as 0 (nothing served, nothing slow).
fn tick_percentiles(prev: &HistSnapshot, cur: &HistSnapshot) -> (f64, f64) {
    let mut delta = cur.clone();
    for (slot, &p) in delta.buckets.iter_mut().zip(&prev.buckets) {
        *slot = slot.saturating_sub(p);
    }
    delta.count = delta.count.saturating_sub(prev.count);
    delta.sum = delta.sum.saturating_sub(prev.sum);
    if delta.count == 0 {
        return (0.0, 0.0);
    }
    (delta.p50() as f64 / 1e9, delta.p99() as f64 / 1e9)
}

fn push_series_row(ctx: &Ctx, columns: &[SeriesColumn], tick_latency: (f64, f64)) {
    let at = ctx.start.elapsed().as_nanos() as u64;
    let mut view = View::gather(ctx);
    view.tick_latency = tick_latency;
    ctx.series.push(at, columns.iter().map(|(_, read)| read(ctx, &view).as_f64()).collect());
}

// --- accuracy audit -------------------------------------------------------

/// One audit tick: ask the write loop for a consistent capture, then
/// grade it against ground truth.
fn audit_tick(ctx: &Ctx, ctl_tx: &mpsc::Sender<Control>) {
    let (reply, rx) = mpsc::sync_channel(1);
    if ctl_tx.send(Control::Audit { max_sessions: ctx.audit.sample, reply }).is_err() {
        return;
    }
    // The write loop applies controls between batches; one mired in a
    // long slide just skips this tick.
    if let Ok(job) = rx.recv_timeout(Duration::from_secs(5)) {
        run_audit(ctx, job);
    }
}

fn run_audit(ctx: &Ctx, job: AuditJob) {
    let a = &ctx.audit;
    let m = &ctx.metrics;
    let tick_start = Instant::now();
    let mut max_residual = 0.0f64;
    for sess in &job.sessions {
        let snap = &sess.snapshot;
        let eps = snap.epsilon();
        // Solve well past the contract so solver error cannot mask (or
        // fake) an estimate-error violation.
        let tol = (eps * 1e-3).clamp(1e-12, 1e-6);
        let solve_start = Instant::now();
        let exact = exact_ppr_seq(&job.graph, sess.source, snap.alpha(), tol);
        m.audit_solve.record(solve_start.elapsed().as_nanos() as u64);
        let est = snap.estimates();
        let (mut l1, mut linf) = (0.0f64, 0.0f64);
        for v in 0..exact.len().max(est.len()) {
            let d = (exact.get(v).copied().unwrap_or(0.0)
                - est.get(v).copied().unwrap_or(0.0))
            .abs();
            l1 += d;
            linf = linf.max(d);
        }
        let o10 = topk_overlap(&exact, est, 10);
        let o50 = topk_overlap(&exact, est, 50);
        max_residual = max_residual.max(max_invariant_violation(&job.graph, &sess.state));
        // Errors and overlaps are recorded ×1e9 into nanos-unit
        // histograms so the rendered bucket bounds are natural units.
        m.audit_l1.record((l1 * 1e9) as u64);
        m.audit_linf.record((linf * 1e9) as u64);
        m.audit_overlap10.record((o10 * 1e9) as u64);
        m.audit_overlap50.record((o50 * 1e9) as u64);
        if linf > eps + tol {
            a.bound_violations.fetch_add(1, Relaxed);
        }
        a.last_l1.store(l1);
        a.last_linf.store(linf);
        a.max_linf.store(a.max_linf.load().max(linf));
        a.last_overlap10.store(o10);
        a.last_overlap50.store(o50);
    }
    if !job.sessions.is_empty() {
        a.last_residual.store(max_residual);
    }
    a.runs.fetch_add(1, Relaxed);
    a.sessions_audited.fetch_add(job.sessions.len() as u64, Relaxed);
    a.cpu_nanos.fetch_add(tick_start.elapsed().as_nanos() as u64, Relaxed);
    a.last_epoch.store(job.epoch, Relaxed);
    a.staleness_epochs.store(ctx.domain.epoch().saturating_sub(job.epoch), Relaxed);
}

/// `|top-k(exact) ∩ top-k(estimate)| / |top-k(exact)|`; 1.0 when the
/// exact top-k is empty (nothing to miss).
fn topk_overlap(exact: &[f64], est: &[f64], k: usize) -> f64 {
    let truth = top_k_of(exact, k);
    if truth.is_empty() {
        return 1.0;
    }
    let want: HashSet<VertexId> = truth.iter().map(|&(v, _)| v).collect();
    let hit = top_k_of(est, k).iter().filter(|&&(v, _)| want.contains(&v)).count();
    hit as f64 / truth.len() as f64
}

// --- SLO evaluation -------------------------------------------------------

/// Burn rate of one SLO over the newest `ticks` series rows. 1.0 =
/// consuming the error budget exactly at the allowed rate.
fn burn(ctx: &Ctx, spec: &SloSpec, ticks: usize) -> f64 {
    match spec.kind {
        SloKind::LatencyP99 => ctx
            .series
            .last_n("http_request_p99_seconds", ticks)
            .map(|w| w.max / spec.target.max(1e-12))
            .unwrap_or(0.0),
        SloKind::Availability => {
            let (Some(shed), Some(reqs)) = (
                ctx.series.last_n("shed_total", ticks),
                ctx.series.last_n("http_requests_total", ticks),
            ) else {
                return 0.0;
            };
            let d_shed = shed.last - shed.points.first().map_or(0.0, |p| p.1);
            let d_reqs = reqs.last - reqs.points.first().map_or(0.0, |p| p.1);
            if d_reqs <= 0.0 {
                return 0.0;
            }
            (d_shed / d_reqs) / (1.0 - spec.target)
        }
        SloKind::TopkOverlap => {
            // Without auditing there is no overlap signal to burn on.
            if !ctx.audit.enabled {
                return 0.0;
            }
            ctx.series
                .last_n("audit_topk_overlap_10", ticks)
                .map(|w| (1.0 - w.min) / (1.0 - spec.target))
                .unwrap_or(0.0)
        }
    }
}

fn evaluate_slos(ctx: &Ctx) {
    let mut latency_breach = false;
    for (spec, st) in ctx.slo.specs.iter().zip(&ctx.slo.status) {
        let fast = burn(ctx, spec, FAST_TICKS);
        let slow = burn(ctx, spec, SLOW_TICKS);
        st.burn_fast.store(fast);
        st.burn_slow.store(slow);
        let breaching = fast >= 1.0;
        if breaching && !st.breaching.swap(true, Relaxed) {
            st.breaches.fetch_add(1, Relaxed);
        }
        if !breaching {
            st.breaching.store(false, Relaxed);
        }
        if breaching && spec.kind == SloKind::LatencyP99 {
            latency_breach = true;
        }
    }
    // Self-recovering: a shed-quiet fast window reads p99 = 0, the burn
    // drops under 1, and the flag clears.
    ctx.slo.shed.store(latency_breach, Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn cfg_with(f: impl FnOnce(&mut ServeConfig)) -> ServeConfig {
        let mut cfg = ServeConfig::default();
        f(&mut cfg);
        cfg
    }

    #[test]
    fn slo_engine_registers_only_configured_targets() {
        let none = SloEngine::new(&ServeConfig::default());
        assert!(none.specs.is_empty());
        assert!(!none.any_breaching());
        assert!(none.breach_reason().is_none());

        let all = SloEngine::new(&cfg_with(|c| {
            c.slo_p99 = Duration::from_millis(50);
            c.slo_availability = 0.999;
            c.slo_topk_overlap = 0.9;
        }));
        let names: Vec<&str> = all.specs.iter().map(|s| s.name).collect();
        assert_eq!(names, ["latency_p99", "availability", "topk_overlap"]);
        assert_eq!(all.status.len(), 3);
        assert!((all.specs[0].target - 0.05).abs() < 1e-12);
    }

    #[test]
    fn breach_reason_names_the_breaching_slo() {
        let e = SloEngine::new(&cfg_with(|c| c.slo_p99 = Duration::from_millis(10)));
        e.status[0].breaching.store(true, Relaxed);
        e.status[0].burn_fast.store(2.5);
        assert_eq!(e.breach_reason().as_deref(), Some("SLO latency_p99 fast burn 2.50"));
    }

    #[test]
    fn topk_overlap_counts_intersection() {
        let exact = [0.5, 0.3, 0.1, 0.05, 0.02];
        // Estimate swaps ranks 3/4 but keeps the same top-2 set.
        let est = [0.5, 0.3, 0.04, 0.06, 0.02];
        assert_eq!(topk_overlap(&exact, &est, 2), 1.0);
        assert_eq!(topk_overlap(&exact, &exact, 5), 1.0);
        assert_eq!(topk_overlap(&[], &est, 10), 1.0);
        // Disjoint top-1.
        assert_eq!(topk_overlap(&[1.0, 0.0], &[0.0, 1.0], 1), 0.0);
    }

    #[test]
    fn tick_percentiles_use_bucket_deltas() {
        let h = dppr_obs::Histogram::new();
        h.record(1_000_000); // 1ms, "previous tick"
        let prev = h.snapshot();
        assert_eq!(tick_percentiles(&prev, &prev), (0.0, 0.0));
        h.record(100_000_000); // 100ms lands in this tick only
        let cur = h.snapshot();
        let (p50, p99) = tick_percentiles(&prev, &cur);
        // The old 1ms sample must not drag the windowed percentiles
        // down: only the 100ms one is in the delta.
        assert!(p50 >= 0.1, "windowed p50 {p50}");
        assert!(p99 >= 0.1, "windowed p99 {p99}");
    }
}

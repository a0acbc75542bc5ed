//! Pieces every workload shares: run options, the repetition plan, and
//! the host readings and noise verdict that close a run.

use crate::catalog;
use crate::host::{self, HostWindow};
use crate::refclock::{self, RefClock, Tick};
use crate::report::{RepValues, Report};
use crate::stats::{median, percentile, sorted};
use std::path::PathBuf;
use std::time::Instant;

/// Repetitions of an untraced run: fresh boot → timed phase → teardown,
/// each reported value the median over them.
pub const REPS: usize = 3;

/// What `run` was asked to do.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    /// How much the run does: every workload's per-second work constants
    /// times this, split evenly over its repetitions. On the calibration
    /// sandbox the run then measures for about this long.
    pub seconds: f64,
    /// Traced run: per-layer metrics from spans recorded by the bench.
    pub traced: bool,
    /// Tiny inputs, for the unit tests.
    pub smoke: bool,
    /// Scratch directory for WAL, checkpoints and span files.
    pub work_dir: PathBuf,
}

/// One repetition: the real engine or server, or the rebuilt pipeline
/// with spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rep {
    Real,
    Traced,
}

impl RunOpts {
    /// Untraced: [`REPS`] real repetitions. Traced: real and rebuilt
    /// pipelines alternate, so `trace.overhead_ratio` compares
    /// neighbours in time.
    pub fn plan(&self) -> Vec<Rep> {
        if self.traced {
            vec![Rep::Real, Rep::Traced, Rep::Real, Rep::Traced]
        } else {
            vec![Rep::Real; REPS]
        }
    }
}

/// Reference slices per [`HostWatch::tick`]: about 8 ms.
const TICK_SLICES: usize = 8;

/// Percentiles of one repetition's exact samples.
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub p999: f64,
    pub max: f64,
}

/// Summarises samples; `None` when there are none.
pub fn summarize(mut samples: Vec<f64>) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(&mut samples);
    Some(Summary {
        n: s.len(),
        min: s[0],
        p50: percentile(s, 0.50),
        p90: percentile(s, 0.90),
        p99: percentile(s, 0.99),
        p999: percentile(s, 0.999),
        max: s[s.len() - 1],
    })
}

/// How two states that should be the same compare. They must be
/// bit-identical, with one exception that has to be on record before it
/// is granted. `parallel_local_push` fans a frontier of
/// `PushOpts::default().seq_threshold` or more vertices out over threads,
/// and the order in which threads add to one residual decides its last
/// bits (and now and then a push decision at the ε boundary), so after
/// such a round two runs of the same code are ε-accurate but no longer
/// bit-identical. `max_frontier` is the largest frontier the compared
/// computation saw, from its own counters: below the threshold nothing in
/// `core::par` explains a difference, and it fails. At or above it the
/// states must still be within 2ε of each other, as two ε-accurate
/// vectors are; `apart` is their largest difference.
pub fn same_or_fanned_out(
    bit_identical: bool,
    max_frontier: u64,
    apart: f64,
    epsilon: f64,
) -> (bool, String) {
    let threshold = dppr_core::par::PushOpts::default().seq_threshold as u64;
    if bit_identical {
        (true, "bit-identical".into())
    } else if max_frontier < threshold {
        (
            false,
            format!(
                "differ in bits ({apart:e} apart) although the largest frontier, {max_frontier}, is \
                 below the {threshold} at which a push round fans out over threads"
            ),
        )
    } else {
        (
            apart <= 2.0 * epsilon,
            format!(
                "differ in bits after a push round over a frontier of {max_frontier} (fan-out at \
                 {threshold}) ran on several threads; estimates {apart:e} apart against 2 x epsilon \
                 = {:e}",
                2.0 * epsilon
            ),
        )
    }
}

/// One metric's timed samples over a whole run, every repetition's
/// together: each as measured and in reference units (see
/// [`crate::refclock`]). A run reports an order statistic of the pooled
/// samples, not a median of per-repetition statistics: three medians of
/// sixty slides each are a noisier estimate than one median of all 180.
#[derive(Debug, Default, Clone)]
pub struct Paired {
    pub raw: Vec<f64>,
    pub scaled: Vec<f64>,
}

impl Paired {
    /// Adds a sample that took `raw` while the host ran `slowdown` times
    /// slower than nominal (1 for a sample that is left as measured).
    pub fn push(&mut self, raw: f64, slowdown: f64) {
        self.raw.push(raw);
        self.scaled.push(raw / slowdown);
    }

    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Writes `stat` of the rescaled samples under `name` and of the
    /// samples as measured under `raw.<name>`; nothing when there are no
    /// samples, so that a metric that could not be measured stays missing.
    pub fn report(&self, report: &mut Report, name: &'static str, stat: impl Fn(&[f64]) -> f64) {
        if self.raw.is_empty() {
            return;
        }
        report.set(name, stat(&self.scaled), self.len());
        report.note_quartiles(
            name,
            percentile_of(&self.scaled, 0.25),
            percentile_of(&self.scaled, 0.75),
        );
        let twin = catalog::raw_twin(name).expect("every rescaled metric has a raw.* twin");
        report.set(twin, stat(&self.raw), self.len());
    }
}

/// The `p`-th percentile of unsorted samples.
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    percentile(sorted(&mut v), p)
}

/// Host readings for one run plus each repetition's mean reference slice.
pub struct HostWatch {
    clock: RefClock,
    width: usize,
    tick_slices: usize,
    window: HostWindow,
    opened: Instant,
    calib_ms: Vec<f64>,
    threads_peak: u64,
}

impl HostWatch {
    /// `width` is how many threads [`HostWatch::tick_wide`] keeps busy.
    pub fn open(width: usize, smoke: bool) -> Self {
        HostWatch {
            clock: RefClock::new(width),
            width,
            tick_slices: if smoke { 1 } else { TICK_SLICES },
            window: HostWindow::open(),
            opened: Instant::now(),
            calib_ms: Vec::new(),
            threads_peak: 0,
        }
    }

    /// Times a few slices of the reference loop on the calling thread;
    /// call right before and right after every timed sample.
    pub fn tick(&mut self) -> Tick {
        self.clock.tick(self.tick_slices, 1)
    }

    /// The same around a sample that keeps several threads busy (a
    /// parallel push, a closed loop's generator and event loop): the
    /// slices run on as many threads as it does.
    pub fn tick_wide(&mut self) -> Tick {
        self.clock.tick(self.tick_slices, self.width)
    }

    /// Notes how long the reference slices of the repetition that began
    /// at `since` took on average (wall time); call when it ends.
    pub fn calibrate(&mut self, reps: &mut RepValues, since: Instant) {
        let ms = self.clock.slowdown_since(since) * refclock::NOMINAL_NS / 1e6;
        self.calib_ms.push(ms);
        reps.push("host.calib_ms", ms, 1);
    }

    /// Notes how many OS threads are alive; call while a phase runs.
    pub fn sample_threads(&mut self) {
        self.threads_peak = self.threads_peak.max(host::threads_now());
    }

    /// Writes the host metrics and the noise verdict. A run is noisy when
    /// the hypervisor stole more than 5 % of the host's CPU time, when one
    /// repetition's reference slices strayed more than 10 % from the median
    /// over repetitions, or when the
    /// workload keeps more threads busy than there are processors.
    pub fn finish(self, report: &mut Report, busy_threads_by_design: usize) {
        let nproc = host::nproc();
        let steal = self.window.steal_ratio();
        report.set("host.nproc", nproc as f64, 1);
        report.set("host.steal_ratio", steal, 1);
        report.set("host.slowdown", self.clock.slowdown_since(self.opened), 1);
        report.set("host.ctx_switches", self.window.ctx_switches() as f64, 1);
        report.set("host.threads_peak", self.threads_peak as f64, 1);
        let mut reasons = Vec::new();
        if steal > 0.05 {
            reasons.push(format!(
                "hypervisor stole {:.1} % of the host",
                steal * 100.0
            ));
        }
        if let [_, ..] = self.calib_ms.as_slice() {
            let m = median(&self.calib_ms);
            if let Some(off) = self.calib_ms.iter().find(|&&ms| (ms - m).abs() > 0.10 * m) {
                reasons.push(format!(
                    "a repetition's reference slices took {off:.2} ms against a median of {m:.2} ms"
                ));
            }
        }
        if busy_threads_by_design > nproc {
            reasons.push(format!(
                "{busy_threads_by_design} busy threads on {nproc} processors"
            ));
        }
        report.noisy = reasons;
    }
}

//! Software profiling counters.
//!
//! The paper profiles its kernels with nvprof (GPU warp occupancy, global
//! load efficiency) and PAPI (cache miss rates, stall cycles) — Table 4 and
//! Figure 9. Those hardware counters are unavailable here, so the engines
//! expose the *causal* quantities those metrics proxy: how much work each
//! iteration carries (pushes, edge traversals, frontier sizes), how much
//! synchronization it costs (atomic adds, CAS retries, duplicate-enqueue
//! attempts), and how many iterations the push takes.
//!
//! One record, [`CounterSnapshot`], describes every quantity. A kernel
//! counts into a plain local record and publishes it with one
//! [`Counters::add`] per push, so profiling adds no shared traffic to the
//! per-vertex or per-round loops.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::Mutex;

/// Shared counters: the cumulative [`CounterSnapshot`] of everything
/// published to them, behind a lock taken once per push.
#[derive(Debug, Default)]
pub struct Counters(Mutex<CounterSnapshot>);

impl Counters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one kernel's record of its work.
    pub fn add(&self, work: &CounterSnapshot) {
        *self.0.lock().unwrap() += *work;
    }

    /// Records one processed batch.
    pub fn record_batch(&self) {
        self.add(&CounterSnapshot { batches: 1, ..Default::default() });
    }

    /// Records `n` `RestoreInvariant` calls at once.
    pub fn record_restores(&self, n: u64) {
        self.add(&CounterSnapshot { restore_ops: n, ..Default::default() });
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> CounterSnapshot {
        *self.0.lock().unwrap()
    }
}

/// Plain-value record of push work: what a kernel counts, what
/// [`Counters`] holds, and, by subtraction, a per-interval delta.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Push operations: one per frontier vertex processed, so also the
    /// sum of the frontier sizes.
    pub pushes: u64,
    /// In-neighbor edges walked during neighbor-propagation.
    pub edge_traversals: u64,
    /// Residual adds issued (the paper's `atomicAdd`s), whether a round
    /// ran them as a CAS loop or, owning the state, as a load and a store.
    pub atomic_adds: u64,
    /// CAS retries inside residual adds (contention); only rounds that fan
    /// out over several threads issue a CAS, so only they can retry.
    pub cas_retries: u64,
    /// Vertices enqueued into the next frontier.
    pub enqueued: u64,
    /// Enqueue attempts suppressed as duplicates.
    pub dup_avoided: u64,
    /// Push iterations (frontier rounds; one per push in the FIFO kernel).
    pub iterations: u64,
    /// The largest frontier an iteration ran over — a running maximum,
    /// not a count.
    pub max_frontier: u64,
    /// `RestoreInvariant` calls.
    pub restore_ops: u64,
    /// Processed batches.
    pub batches: u64,
}

impl CounterSnapshot {
    /// Total "operations" in the sense of Theorems 1 and 3: invariant
    /// repairs plus push work (pushes and the edges they traverse).
    pub fn total_operations(&self) -> u64 {
        self.restore_ops + self.pushes + self.edge_traversals
    }

    /// Mean frontier size across iterations (0 if none ran): every kernel
    /// pushes each frontier member exactly once, so `pushes / iterations`.
    pub fn mean_frontier(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.pushes as f64 / self.iterations as f64
        }
    }

    /// Every quantity by stable name, for telemetry layers that render
    /// the full set without hand-listing the fields.
    pub fn fields(&self) -> [(&'static str, u64); 10] {
        [
            ("pushes", self.pushes),
            ("edge_traversals", self.edge_traversals),
            ("atomic_adds", self.atomic_adds),
            ("cas_retries", self.cas_retries),
            ("enqueued", self.enqueued),
            ("dup_avoided", self.dup_avoided),
            ("iterations", self.iterations),
            ("max_frontier", self.max_frontier),
            ("restore_ops", self.restore_ops),
            ("batches", self.batches),
        ]
    }
}

impl AddAssign for CounterSnapshot {
    /// Component-wise sum; `max_frontier` takes the larger value.
    fn add_assign(&mut self, rhs: CounterSnapshot) {
        self.pushes += rhs.pushes;
        self.edge_traversals += rhs.edge_traversals;
        self.atomic_adds += rhs.atomic_adds;
        self.cas_retries += rhs.cas_retries;
        self.enqueued += rhs.enqueued;
        self.dup_avoided += rhs.dup_avoided;
        self.iterations += rhs.iterations;
        self.max_frontier = self.max_frontier.max(rhs.max_frontier);
        self.restore_ops += rhs.restore_ops;
        self.batches += rhs.batches;
    }
}

impl Add for CounterSnapshot {
    type Output = CounterSnapshot;

    fn add(mut self, rhs: CounterSnapshot) -> CounterSnapshot {
        self += rhs;
        self
    }
}

impl Sub for CounterSnapshot {
    type Output = CounterSnapshot;

    /// Component-wise difference; `max_frontier` keeps the newer value
    /// (maxima are not interval-decomposable).
    fn sub(self, rhs: CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            pushes: self.pushes - rhs.pushes,
            edge_traversals: self.edge_traversals - rhs.edge_traversals,
            atomic_adds: self.atomic_adds - rhs.atomic_adds,
            cas_retries: self.cas_retries - rhs.cas_retries,
            enqueued: self.enqueued - rhs.enqueued,
            dup_avoided: self.dup_avoided - rhs.dup_avoided,
            iterations: self.iterations - rhs.iterations,
            max_frontier: self.max_frontier,
            restore_ops: self.restore_ops - rhs.restore_ops,
            batches: self.batches - rhs.batches,
        }
    }
}

impl fmt::Display for CounterSnapshot {
    /// `name=value` for every [`CounterSnapshot::fields`] entry, space
    /// separated (the CLI's `run --counters` line).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, v)) in self.fields().into_iter().enumerate() {
            let sep = if i == 0 { "" } else { " " };
            write!(f, "{sep}{name}={v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_snapshot() {
        let c = Counters::new();
        let push = CounterSnapshot {
            pushes: 14,
            edge_traversals: 10,
            enqueued: 2,
            iterations: 2,
            max_frontier: 9,
            ..Default::default()
        };
        c.add(&push);
        c.add(&CounterSnapshot { max_frontier: 5, ..push });
        c.record_restores(1);
        c.record_batch();
        let s = c.snapshot();
        assert_eq!(s.pushes, 28);
        assert_eq!(s.edge_traversals, 20);
        assert_eq!(s.enqueued, 4);
        assert_eq!(s.iterations, 4);
        assert_eq!(s.max_frontier, 9);
        assert_eq!(s.mean_frontier(), 7.0);
        assert_eq!(s.restore_ops, 1);
        assert_eq!(s.batches, 1);
        assert_eq!(s.total_operations(), 1 + 28 + 20);
    }

    /// `Add` merges two records: it sums every field and keeps the larger
    /// `max_frontier`.
    #[test]
    fn merge_accumulates() {
        let a = CounterSnapshot {
            pushes: 1,
            edge_traversals: 2,
            atomic_adds: 3,
            cas_retries: 4,
            enqueued: 5,
            dup_avoided: 6,
            iterations: 7,
            max_frontier: 8,
            restore_ops: 9,
            batches: 10,
        };
        let sum = a + CounterSnapshot { max_frontier: 2, ..a };
        for ((name, x), (_, s)) in a.fields().into_iter().zip(sum.fields()) {
            let want = if name == "max_frontier" { x } else { 2 * x };
            assert_eq!(s, want, "{name}");
        }
    }

    /// `Sub` takes back the sums and keeps the newer maximum.
    #[test]
    fn snapshot_delta() {
        let c = Counters::new();
        let push =
            CounterSnapshot { pushes: 4, iterations: 1, max_frontier: 4, ..Default::default() };
        c.add(&push);
        let before = c.snapshot();
        c.add(&CounterSnapshot { max_frontier: 3, ..push });
        c.record_batch();
        let delta = c.snapshot() - before;
        assert_eq!(delta, CounterSnapshot { batches: 1, ..push });
    }

    #[test]
    fn display_is_humane() {
        let s = CounterSnapshot { pushes: 1, ..Default::default() };
        let text = s.to_string();
        assert!(text.contains("pushes=1"));
        // One name per counter: the `fields()` names, nothing derived.
        assert_eq!(
            text,
            "pushes=1 edge_traversals=0 atomic_adds=0 cas_retries=0 enqueued=0 dup_avoided=0 \
             iterations=0 max_frontier=0 restore_ops=0 batches=0"
        );
    }
}

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
//! Hot loops accumulate into a plain [`LocalCounters`] and flush once per
//! iteration, so profiling adds no per-edge atomic traffic.

use std::fmt;
use std::ops::Sub;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared counters, updated by flushing [`LocalCounters`].
#[derive(Debug, Default)]
pub struct Counters {
    pushes: AtomicU64,
    edge_traversals: AtomicU64,
    atomic_adds: AtomicU64,
    cas_retries: AtomicU64,
    enqueued: AtomicU64,
    dup_avoided: AtomicU64,
    iterations: AtomicU64,
    max_frontier: AtomicU64,
    frontier_total: AtomicU64,
    restore_ops: AtomicU64,
    batches: AtomicU64,
}

impl Counters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one processed batch.
    pub fn record_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one `RestoreInvariant` call.
    pub fn record_restore(&self) {
        self.restore_ops.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` `RestoreInvariant` calls at once.
    pub fn record_restores(&self, n: u64) {
        self.restore_ops.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one push iteration over a frontier of the given size.
    pub fn record_iteration(&self, frontier_len: usize) {
        self.iterations.fetch_add(1, Ordering::Relaxed);
        self.frontier_total
            .fetch_add(frontier_len as u64, Ordering::Relaxed);
        self.max_frontier
            .fetch_max(frontier_len as u64, Ordering::Relaxed);
    }

    /// Point-in-time copy of all counters.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            pushes: self.pushes.load(Ordering::Relaxed),
            edge_traversals: self.edge_traversals.load(Ordering::Relaxed),
            atomic_adds: self.atomic_adds.load(Ordering::Relaxed),
            cas_retries: self.cas_retries.load(Ordering::Relaxed),
            enqueued: self.enqueued.load(Ordering::Relaxed),
            dup_avoided: self.dup_avoided.load(Ordering::Relaxed),
            iterations: self.iterations.load(Ordering::Relaxed),
            max_frontier: self.max_frontier.load(Ordering::Relaxed),
            frontier_total: self.frontier_total.load(Ordering::Relaxed),
            restore_ops: self.restore_ops.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        for c in [
            &self.pushes,
            &self.edge_traversals,
            &self.atomic_adds,
            &self.cas_retries,
            &self.enqueued,
            &self.dup_avoided,
            &self.iterations,
            &self.max_frontier,
            &self.frontier_total,
            &self.restore_ops,
            &self.batches,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Per-task accumulator; merge into [`Counters`] with
/// [`LocalCounters::flush`].
#[derive(Debug, Default, Clone, Copy)]
pub struct LocalCounters {
    /// Push operations (one per frontier vertex processed).
    pub pushes: u64,
    /// In-neighbor edges walked during neighbor-propagation.
    pub edge_traversals: u64,
    /// Atomic residual updates issued.
    pub atomic_adds: u64,
    /// CAS retries inside atomic adds (contention).
    pub cas_retries: u64,
    /// Vertices enqueued into the next frontier.
    pub enqueued: u64,
    /// Enqueue attempts suppressed as duplicates.
    pub dup_avoided: u64,
}

impl LocalCounters {
    /// Adds `other` into `self` (used when a fan-out merges per-range accumulators).
    pub fn merge(&mut self, other: &LocalCounters) {
        self.pushes += other.pushes;
        self.edge_traversals += other.edge_traversals;
        self.atomic_adds += other.atomic_adds;
        self.cas_retries += other.cas_retries;
        self.enqueued += other.enqueued;
        self.dup_avoided += other.dup_avoided;
    }

    /// Publishes the accumulated values.
    pub fn flush(&self, to: &Counters) {
        if self.pushes > 0 {
            to.pushes.fetch_add(self.pushes, Ordering::Relaxed);
        }
        if self.edge_traversals > 0 {
            to.edge_traversals
                .fetch_add(self.edge_traversals, Ordering::Relaxed);
        }
        if self.atomic_adds > 0 {
            to.atomic_adds.fetch_add(self.atomic_adds, Ordering::Relaxed);
        }
        if self.cas_retries > 0 {
            to.cas_retries.fetch_add(self.cas_retries, Ordering::Relaxed);
        }
        if self.enqueued > 0 {
            to.enqueued.fetch_add(self.enqueued, Ordering::Relaxed);
        }
        if self.dup_avoided > 0 {
            to.dup_avoided.fetch_add(self.dup_avoided, Ordering::Relaxed);
        }
    }
}

/// Plain-value snapshot; supports subtraction for per-interval deltas.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    pub pushes: u64,
    pub edge_traversals: u64,
    pub atomic_adds: u64,
    pub cas_retries: u64,
    pub enqueued: u64,
    pub dup_avoided: u64,
    pub iterations: u64,
    pub max_frontier: u64,
    pub frontier_total: u64,
    pub restore_ops: u64,
    pub batches: u64,
}

impl CounterSnapshot {
    /// Total "operations" in the sense of Theorems 1 and 3: invariant
    /// repairs plus push work (pushes and the edges they traverse).
    pub fn total_operations(&self) -> u64 {
        self.restore_ops + self.pushes + self.edge_traversals
    }

    /// Mean frontier size across iterations (0 if none ran).
    pub fn mean_frontier(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.frontier_total as f64 / self.iterations as f64
        }
    }

    /// Every quantity by stable name, for telemetry layers that render
    /// the full set without hand-listing the fields.
    pub fn fields(&self) -> [(&'static str, u64); 11] {
        [
            ("pushes", self.pushes),
            ("edge_traversals", self.edge_traversals),
            ("atomic_adds", self.atomic_adds),
            ("cas_retries", self.cas_retries),
            ("enqueued", self.enqueued),
            ("dup_avoided", self.dup_avoided),
            ("iterations", self.iterations),
            ("max_frontier", self.max_frontier),
            ("frontier_total", self.frontier_total),
            ("restore_ops", self.restore_ops),
            ("batches", self.batches),
        ]
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
            frontier_total: self.frontier_total - rhs.frontier_total,
            restore_ops: self.restore_ops - rhs.restore_ops,
            batches: self.batches - rhs.batches,
        }
    }
}

impl fmt::Display for CounterSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pushes={} traversals={} atomics={} cas_retries={} enq={} dup_avoided={} iters={} max_fq={} mean_fq={:.1} restores={} batches={}",
            self.pushes,
            self.edge_traversals,
            self.atomic_adds,
            self.cas_retries,
            self.enqueued,
            self.dup_avoided,
            self.iterations,
            self.max_frontier,
            self.mean_frontier(),
            self.restore_ops,
            self.batches,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_and_snapshot() {
        let c = Counters::new();
        let l = LocalCounters {
            pushes: 3,
            edge_traversals: 10,
            enqueued: 2,
            ..Default::default()
        };
        l.flush(&c);
        l.flush(&c);
        c.record_iteration(5);
        c.record_iteration(9);
        c.record_restore();
        c.record_batch();
        let s = c.snapshot();
        assert_eq!(s.pushes, 6);
        assert_eq!(s.edge_traversals, 20);
        assert_eq!(s.enqueued, 4);
        assert_eq!(s.iterations, 2);
        assert_eq!(s.max_frontier, 9);
        assert_eq!(s.frontier_total, 14);
        assert_eq!(s.mean_frontier(), 7.0);
        assert_eq!(s.restore_ops, 1);
        assert_eq!(s.batches, 1);
        assert_eq!(s.total_operations(), 1 + 6 + 20);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LocalCounters { pushes: 1, edge_traversals: 2, ..Default::default() };
        let b = LocalCounters { pushes: 10, cas_retries: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.pushes, 11);
        assert_eq!(a.edge_traversals, 2);
        assert_eq!(a.cas_retries, 5);
    }

    #[test]
    fn reset_zeroes() {
        let c = Counters::new();
        c.record_iteration(3);
        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn snapshot_delta() {
        let c = Counters::new();
        let l = LocalCounters { pushes: 4, ..Default::default() };
        l.flush(&c);
        let before = c.snapshot();
        l.flush(&c);
        c.record_iteration(1);
        let delta = c.snapshot() - before;
        assert_eq!(delta.pushes, 4);
        assert_eq!(delta.iterations, 1);
    }

    #[test]
    fn display_is_humane() {
        let s = CounterSnapshot { pushes: 1, ..Default::default() };
        let text = s.to_string();
        assert!(text.contains("pushes=1"));
    }
}

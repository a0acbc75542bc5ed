//! Fixed-bucket log-scale histograms.
//!
//! Every histogram in the process shares ONE bucket layout, computed
//! once: integral upper bounds growing by `b += max(b/5, 1)` (a factor
//! of ~1.2 past 5), starting at 0 and covering the full `u64` range
//! with ~240 buckets plus a final catch-all. Sharing the layout is what
//! makes [`HistSnapshot::merge`] exact: merging per-shard histograms is
//! bucket-wise addition, so the merged quantiles equal those of a
//! single histogram fed the union of the samples.
//!
//! Every observation reaches a [`Histogram`] through
//! [`Histogram::record`]: three relaxed atomic adds, from any thread.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;

/// Inclusive upper bounds of every bucket except the last; a value `v`
/// lands in the first bucket with `bound >= v`. The final bucket (index
/// `bounds().len()`) catches everything above the largest bound.
pub fn bounds() -> &'static [u64] {
    static BOUNDS: OnceLock<Vec<u64>> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut b = Vec::with_capacity(256);
        let mut v: u64 = 0;
        loop {
            b.push(v);
            let step = (v / 5).max(1);
            match v.checked_add(step) {
                Some(next) => v = next,
                None => break,
            }
        }
        b
    })
}

/// Total bucket count: one per bound plus the overflow bucket.
pub fn num_buckets() -> usize {
    bounds().len() + 1
}

/// Index of the bucket a value lands in.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    // First bound >= value. bounds() is strictly increasing, so this is
    // exact; values above the last bound go to the overflow bucket.
    bounds().partition_point(|&b| b < value)
}

/// A mergeable atomic histogram, shared by reference between the threads
/// that record into it and the ones that snapshot it.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        let buckets = (0..num_buckets()).map(|_| AtomicU64::new(0)).collect();
        Histogram { buckets, count: AtomicU64::new(0), sum: AtomicU64::new(0) }
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
    }

    /// Consistent-enough snapshot for rendering (individual loads are
    /// relaxed; scrapes tolerate a tick of skew).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Relaxed)).collect(),
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
        }
    }
}

/// Point-in-time histogram contents; supports exact merge and quantile
/// extraction (exact at bucket resolution — a quantile reports the
/// upper bound of the bucket holding that rank, so any value recorded
/// exactly on a bound is reported exactly).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
}

impl HistSnapshot {
    /// Bucket-wise sum. Exact because every histogram shares `bounds()`.
    pub fn merge(&mut self, other: &HistSnapshot) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; other.buckets.len()];
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Value at quantile `q` in [0, 1]: the upper bound of the bucket
    /// containing rank `ceil(q * count)` (the overflow bucket reports
    /// `u64::MAX`). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bounds().get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Mean of the recorded values (exact — the sum is exact even
    /// though individual values are bucketed).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `(upper_bound, cumulative_count)` for every bucket up to and
    /// including the last non-empty one, ready for Prometheus `le`
    /// rendering (the caller appends the `+Inf` line from `count`).
    /// `None` upper bound marks the overflow bucket.
    pub fn cumulative_nonempty(&self) -> Vec<(Option<u64>, u64)> {
        let last = match self.buckets.iter().rposition(|&n| n != 0) {
            Some(i) => i,
            None => return Vec::new(),
        };
        let mut out = Vec::with_capacity(last + 1);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate().take(last + 1) {
            cum += n;
            out.push((bounds().get(i).copied(), cum));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_strictly_increasing_and_cover_u64() {
        let b = bounds();
        assert_eq!(b[0], 0);
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        // ~1.2 growth keeps the table small but the error under 20%.
        assert!(b.len() < 300, "bucket table unexpectedly large: {}", b.len());
        // Everything up to the last bound is indexable; beyond it, the
        // overflow bucket catches the rest.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(*b.last().unwrap()), b.len() - 1);
        assert_eq!(bucket_index(u64::MAX), b.len());
    }

    #[test]
    fn exact_boundary_roundtrips_through_quantile() {
        for &v in &[0u64, 1, 6, 1000, 1_000_000] {
            // Snap v to a bound first so the report is exact.
            let bound = bounds()[bucket_index(v)];
            let h = Histogram::new();
            h.record(bound);
            assert_eq!(h.snapshot().quantile(0.5), bound);
        }
    }

    #[test]
    fn quantiles_of_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // Bucket resolution is ~20%, so p50 of 1..=1000 lies in [500, 600].
        let p50 = s.p50();
        assert!((500..=600).contains(&p50), "p50 = {p50}");
        let p99 = s.p99();
        assert!((990..=1188).contains(&p99), "p99 = {p99}");
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
    }
}

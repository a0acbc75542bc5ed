//! Property tests for histogram merging and bucket-boundary behavior
//! (ISSUE 8 satellite): merged shard histograms must report exactly the
//! same snapshot — hence the same percentiles — as a single histogram
//! fed the union of the samples.

use dppr_obs::{bounds, bucket_index, HistSnapshot, Histogram};
use proptest::prelude::*;

fn snapshot_of(values: &[u64]) -> HistSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    /// Split a sample set across any number of "shard" histograms, merge
    /// the snapshots: identical to one histogram fed the union.
    #[test]
    fn merged_shards_equal_union(
        values in prop::collection::vec(0u64..u64::MAX, 0..200),
        shards in 1usize..8,
    ) {
        let union = snapshot_of(&values);
        let per_shard: Vec<Histogram> = (0..shards).map(|_| Histogram::new()).collect();
        for (i, &v) in values.iter().enumerate() {
            per_shard[i % shards].record(v);
        }
        let mut merged = HistSnapshot::default();
        for h in &per_shard {
            merged.merge(&h.snapshot());
        }
        prop_assert_eq!(&merged, &union);
        for q in [0.5, 0.9, 0.99, 0.999] {
            prop_assert_eq!(merged.quantile(q), union.quantile(q));
        }
    }

    /// Indexing is the partition the bounds define: every value lands in
    /// the first bucket whose bound is >= the value.
    #[test]
    fn bucket_index_respects_bounds(v in 0u64..u64::MAX) {
        let b = bounds();
        let i = bucket_index(v);
        if i < b.len() {
            prop_assert!(b[i] >= v);
            if i > 0 {
                prop_assert!(b[i - 1] < v);
            }
        } else {
            // Overflow bucket: above every finite bound.
            prop_assert!(v > *b.last().unwrap());
        }
    }

    /// A value recorded exactly on a bucket bound is reported exactly by
    /// every quantile (single-sample histogram).
    #[test]
    fn exact_boundaries_roundtrip(idx in 0usize..200) {
        let bound = bounds()[idx];
        let h = Histogram::new();
        h.record(bound);
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.999, 1.0] {
            prop_assert_eq!(s.quantile(q), bound);
        }
    }
}

#[test]
fn edge_values_zero_and_max() {
    let h = Histogram::new();
    h.record(0);
    h.record(u64::MAX);
    let s = h.snapshot();
    assert_eq!(s.count, 2);
    assert_eq!(s.quantile(0.25), 0, "0 lands in the le=0 bucket");
    assert_eq!(s.quantile(1.0), u64::MAX, "u64::MAX lands in the overflow bucket");
    assert_eq!(s.sum, u64::MAX, "0 + MAX");
    // Merging with an empty snapshot changes nothing.
    let mut m = HistSnapshot::default();
    m.merge(&s);
    m.merge(&HistSnapshot::default());
    assert_eq!(m.quantile(0.25), 0);
    assert_eq!(m.quantile(1.0), u64::MAX);
}

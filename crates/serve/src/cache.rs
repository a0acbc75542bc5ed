//! The epoch-invalidated query cache.
//!
//! Keys are `(source, query kind, parameters)`; values are fully rendered
//! response bodies tagged with the snapshot epoch they were computed from.
//! There is no explicit invalidation path: a hit requires the entry's
//! epoch to equal the *current* snapshot's epoch, so every publication
//! round implicitly invalidates the whole cache for that session — exactly
//! the freshness contract the snapshots themselves give. Entries are
//! sharded over independent mutexes to keep worker threads off each
//! other's locks.

use dppr_graph::VertexId;
use std::collections::HashMap;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

const SHARDS: usize = 16;

/// A query, as a cache key component. `Threshold` stores the δ bit
/// pattern so the key stays `Eq + Hash`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// Top-k ranking.
    TopK(usize),
    /// Single-vertex score.
    Score(VertexId),
    /// Threshold selection, keyed by `delta.to_bits()`.
    Threshold(u64),
    /// Pairwise comparison.
    Compare(VertexId, VertexId),
}

#[derive(PartialEq, Eq, Hash)]
struct Key {
    source: VertexId,
    kind: QueryKind,
}

struct Entry {
    epoch: u64,
    body: std::sync::Arc<str>,
}

/// Hit/miss counters, exported into `/stats`, `/metrics` and `ServeReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Lookups answered from the cache at the current epoch.
    pub hits: u64,
    /// Lookups that had to render (absent or stale-epoch entry).
    pub misses: u64,
    /// Live (current-epoch) entries discarded by capacity pressure.
    pub evictions: u64,
    /// Dead-epoch entries purged at insert-at-capacity. These could
    /// never hit again, so dropping them is reclamation, not pressure —
    /// counted apart from `evictions` so a high eviction rate actually
    /// means live entries are fighting for capacity.
    pub stale_purged: u64,
}

impl CacheStats {
    /// Hits over lookups; 0 when no lookup happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sharded, epoch-validated cache of rendered responses.
pub struct QueryCache {
    shards: Box<[Mutex<HashMap<Key, Entry>>]>,
    /// Max entries per shard; 0 disables the cache entirely.
    per_shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    stale_purged: AtomicU64,
}

impl QueryCache {
    /// A cache holding roughly `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        let per_shard_cap = capacity.div_ceil(SHARDS);
        QueryCache {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            per_shard_cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            stale_purged: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &Key) -> &Mutex<HashMap<Key, Entry>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Returns the cached body for `(source, kind)` if it was rendered at
    /// exactly `epoch`; otherwise renders, caches, and returns it. The
    /// second component reports whether it was a hit.
    pub fn get_or_render(
        &self,
        source: VertexId,
        kind: QueryKind,
        epoch: u64,
        render: impl FnOnce() -> String,
    ) -> (std::sync::Arc<str>, bool) {
        if self.per_shard_cap == 0 {
            self.misses.fetch_add(1, Relaxed);
            return (render().into(), false);
        }
        let key = Key { source, kind };
        let shard = self.shard(&key);
        {
            let guard = shard.lock().unwrap();
            if let Some(entry) = guard.get(&key) {
                if entry.epoch == epoch {
                    self.hits.fetch_add(1, Relaxed);
                    return (std::sync::Arc::clone(&entry.body), true);
                }
            }
        }
        // Render outside the lock: a slow top-k must not serialize the
        // shard's other queries.
        self.misses.fetch_add(1, Relaxed);
        let body: std::sync::Arc<str> = render().into();
        let mut guard = shard.lock().unwrap();
        if guard.len() >= self.per_shard_cap && !guard.contains_key(&key) {
            // Capacity pressure. A worker may arrive here holding a
            // snapshot from *before* the latest publication; its entry is
            // stale on arrival and must not displace fresher ones, so it
            // is simply not cached.
            let newest = guard.values().map(|e| e.epoch).max().unwrap_or(epoch);
            if epoch < newest {
                return (body, false);
            }
            // Dead-epoch entries can never hit again — purge those first
            // (reclamation, counted as `stale_purged`); only if the shard
            // is still full of current-epoch entries does a live entry
            // get dropped, and only that counts as capacity pressure
            // (epoch churn makes any retained entry short-lived anyway).
            let before = guard.len();
            guard.retain(|_, e| e.epoch == epoch);
            self.stale_purged.fetch_add((before - guard.len()) as u64, Relaxed);
            if guard.len() >= self.per_shard_cap {
                self.evictions.fetch_add(guard.len() as u64, Relaxed);
                guard.clear();
            }
        }
        // Same guard on the plain-insert path: a laggard's render must not
        // overwrite a fresher entry already cached under this key.
        match guard.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                if o.get().epoch <= epoch {
                    o.insert(Entry { epoch, body: std::sync::Arc::clone(&body) });
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Entry { epoch, body: std::sync::Arc::clone(&body) });
            }
        }
        (body, false)
    }

    /// Current entry count across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
            stale_purged: self.stale_purged.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_requires_matching_epoch() {
        let c = QueryCache::new(64);
        let (body, hit) =
            c.get_or_render(0, QueryKind::TopK(5), 1, || "v1".to_string());
        assert!(!hit);
        assert_eq!(&*body, "v1");
        let (body, hit) = c.get_or_render(0, QueryKind::TopK(5), 1, || {
            panic!("must not re-render at the same epoch")
        });
        assert!(hit);
        assert_eq!(&*body, "v1");
        // Epoch bump invalidates: the renderer runs again.
        let (body, hit) =
            c.get_or_render(0, QueryKind::TopK(5), 2, || "v2".to_string());
        assert!(!hit);
        assert_eq!(&*body, "v2");
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_queries_do_not_collide() {
        let c = QueryCache::new(64);
        c.get_or_render(0, QueryKind::TopK(5), 1, || "a".into());
        let (b, hit) = c.get_or_render(0, QueryKind::TopK(6), 1, || "b".into());
        assert!(!hit);
        assert_eq!(&*b, "b");
        let (b, hit) = c.get_or_render(1, QueryKind::TopK(5), 1, || "c".into());
        assert!(!hit);
        assert_eq!(&*b, "c");
        let (b, hit) = c.get_or_render(
            0,
            QueryKind::Threshold(0.5f64.to_bits()),
            1,
            || "d".into(),
        );
        assert!(!hit);
        assert_eq!(&*b, "d");
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = QueryCache::new(0);
        let (_, hit) = c.get_or_render(0, QueryKind::Score(1), 1, || "x".into());
        assert!(!hit);
        let (_, hit) = c.get_or_render(0, QueryKind::Score(1), 1, || "x".into());
        assert!(!hit);
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn laggard_epoch_insert_does_not_evict_fresh_entries() {
        // 64 entries per shard: the fresh keys all fit without pressure.
        let c = QueryCache::new(64 * SHARDS);
        for v in 0..64u32 {
            c.get_or_render(0, QueryKind::Score(v), 2, || format!("e2-{v}"));
        }
        // A worker still holding an epoch-1 snapshot renders a flood of
        // other keys, driving every shard into capacity pressure: its
        // stale-on-arrival entries must not displace the fresh ones.
        for v in 1_000..3_000u32 {
            c.get_or_render(0, QueryKind::Score(v), 1, || format!("e1-{v}"));
        }
        let mut fresh_hits = 0u64;
        for v in 0..64u32 {
            let (_, hit) = c.get_or_render(0, QueryKind::Score(v), 2, || {
                format!("rerendered-{v}")
            });
            fresh_hits += hit as u64;
        }
        assert_eq!(fresh_hits, 64, "laggard inserts wiped fresh entries");
    }

    #[test]
    fn stale_render_does_not_overwrite_fresher_entry_for_same_key() {
        let c = QueryCache::new(64);
        c.get_or_render(0, QueryKind::TopK(5), 2, || "fresh".into());
        // A laggard still at epoch 1 re-renders the same key: miss, but
        // the fresher cached body must survive.
        let (body, hit) = c.get_or_render(0, QueryKind::TopK(5), 1, || "stale".into());
        assert!(!hit);
        assert_eq!(&*body, "stale"); // the laggard gets its own answer...
        let (body, hit) = c.get_or_render(0, QueryKind::TopK(5), 2, || {
            panic!("fresh entry was overwritten")
        });
        assert!(hit); // ...but the fresh entry still serves epoch 2
        assert_eq!(&*body, "fresh");
    }

    #[test]
    fn capacity_pressure_prefers_dropping_stale_epochs() {
        let c = QueryCache::new(SHARDS); // one entry per shard
        for v in 0..64u32 {
            c.get_or_render(0, QueryKind::Score(v), 1, || format!("e1-{v}"));
        }
        // Insertions at a newer epoch push the stale ones out — as stale
        // purges, not pressure evictions.
        for v in 0..64u32 {
            c.get_or_render(0, QueryKind::Score(v), 2, || format!("e2-{v}"));
        }
        assert!(c.stats().stale_purged > 0);
        assert!(c.len() <= 2 * SHARDS);
    }

    #[test]
    fn stale_purge_is_counted_apart_from_pressure_evictions() {
        let c = QueryCache::new(SHARDS); // one entry per shard
        // Phase 1: flood epoch-1 keys until every shard holds exactly one
        // e1 entry. Same-epoch churn past capacity here is genuine
        // pressure and lands in `evictions`; nothing is stale yet.
        for v in 0..200u32 {
            c.get_or_render(0, QueryKind::Score(v), 1, || "old".into());
        }
        let s1 = c.stats();
        assert_eq!(s1.stale_purged, 0, "no dead epochs exist during phase 1");
        assert!(s1.evictions > 0, "e1-on-e1 churn is pressure");
        // Phase 2: epoch-2 keys. Each shard's first e2 insert lands on a
        // full shard whose only occupant is dead — that is reclamation
        // (`stale_purged`), at most one per shard; later e2-on-e2 churn
        // goes back to `evictions`.
        for v in 0..200u32 {
            c.get_or_render(0, QueryKind::Score(v), 2, || "new".into());
        }
        let s2 = c.stats();
        let stale_delta = s2.stale_purged - s1.stale_purged;
        assert!(stale_delta >= 1, "dead entries must be purged, not evicted");
        assert!(
            stale_delta <= SHARDS as u64,
            "each shard holds at most one dead entry to purge"
        );
    }
}

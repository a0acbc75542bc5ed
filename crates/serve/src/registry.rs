//! The session registry: many tracked sources, LRU-bounded.
//!
//! A *session* is one source vertex whose PPR vector the write loop
//! maintains (via `MultiSourcePpr`) and publishes into a [`SnapshotCell`]
//! every epoch. The registry is the reader-facing index over those cells:
//! HTTP workers look a session up (a brief `RwLock` read that clones an
//! `Arc`), load the cell's snapshot the same way, and answer from that
//! immutable snapshot with no lock held.
//!
//! Mutations — open, close, LRU eviction past the capacity budget — are
//! made by the write loop only (and by `start`, which opens each booted
//! session once before the loop runs). The loop adds or removes a
//! maintained vector with every one of them, so each vector it
//! maintains has exactly one cell here, found by source.

use crate::epoch::{EpochDomain, Reader, SnapshotCell};
use crate::snapshot::QuerySnapshot;
use dppr_graph::VertexId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, RwLock};

/// One open session: the published snapshot cell plus LRU bookkeeping.
pub struct SessionEntry {
    source: VertexId,
    cell: SnapshotCell,
    /// LRU clock value of the last reader lookup.
    last_used: AtomicU64,
}

impl SessionEntry {
    /// The session's source vertex.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// The current snapshot (see [`SnapshotCell::load`]). The argument is
    /// vestigial; the frozen `dppr_bench` still passes it.
    pub fn load(&self, _reader: &Reader) -> Arc<QuerySnapshot> {
        self.cell.load()
    }

    /// Publishes a new snapshot (write loop only). `_domain` is vestigial,
    /// as above.
    pub fn publish(&self, _domain: &EpochDomain, snap: Arc<QuerySnapshot>) {
        self.cell.publish(snap)
    }
}

/// Outcome of [`SessionRegistry::open`].
#[derive(Debug, PartialEq, Eq)]
pub enum OpenOutcome {
    /// The source already had a session; nothing changed.
    AlreadyOpen,
    /// A session was created; `evicted` names the LRU session that was
    /// closed to stay within the capacity budget, if any.
    Opened { evicted: Option<VertexId> },
}

/// Reader-facing index of open sessions with an LRU capacity budget.
pub struct SessionRegistry {
    domain: Arc<EpochDomain>,
    table: RwLock<HashMap<VertexId, Arc<SessionEntry>>>,
    capacity: usize,
    clock: AtomicU64,
}

impl SessionRegistry {
    /// An empty registry holding at most `capacity` sessions (min 1).
    pub fn new(domain: Arc<EpochDomain>, capacity: usize) -> Self {
        SessionRegistry {
            domain,
            table: RwLock::new(HashMap::new()),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
        }
    }

    /// The epoch domain sessions publish under.
    pub fn domain(&self) -> &Arc<EpochDomain> {
        &self.domain
    }

    /// The capacity budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        self.table.read().unwrap().len()
    }

    /// Whether no session is open.
    pub fn is_empty(&self) -> bool {
        self.table.read().unwrap().is_empty()
    }

    /// Open sources, ascending.
    pub fn sources(&self) -> Vec<VertexId> {
        let mut v: Vec<VertexId> = self.table.read().unwrap().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Looks a session up for answering queries; bumps its LRU stamp (an
    /// atomic store after the table's read lock is released).
    pub fn lookup(&self, source: VertexId) -> Option<Arc<SessionEntry>> {
        let entry = self.table.read().unwrap().get(&source).cloned()?;
        entry.last_used.store(self.clock.fetch_add(1, Relaxed) + 1, Relaxed);
        Some(entry)
    }

    /// Looks a session up *without* touching its LRU stamp (the write
    /// loop's publish scan must not keep every session artificially hot).
    pub fn peek(&self, source: VertexId) -> Option<Arc<SessionEntry>> {
        self.table.read().unwrap().get(&source).cloned()
    }

    /// Opens a session publishing `initial` (write loop only). Past the
    /// capacity budget the least-recently-used session is evicted and
    /// reported so the caller can drop the matching maintained state.
    pub fn open(&self, source: VertexId, initial: Arc<QuerySnapshot>) -> OpenOutcome {
        let mut table = self.table.write().unwrap();
        if table.contains_key(&source) {
            return OpenOutcome::AlreadyOpen;
        }
        let mut evicted = None;
        if table.len() >= self.capacity {
            // A scan, not an index: this runs once per `/session/open` past
            // the budget, right before a cold-start push costing far more.
            let lru = table
                .values()
                .min_by_key(|e| (e.last_used.load(Relaxed), e.source))
                .expect("capacity >= 1 implies a non-empty table here")
                .source;
            table.remove(&lru);
            evicted = Some(lru);
        }
        let stamp = self.clock.fetch_add(1, Relaxed) + 1;
        table.insert(
            source,
            Arc::new(SessionEntry {
                source,
                cell: SnapshotCell::new(initial),
                last_used: AtomicU64::new(stamp),
            }),
        );
        OpenOutcome::Opened { evicted }
    }

    /// Closes a session (write loop only); `false` if it was not open.
    pub fn close(&self, source: VertexId) -> bool {
        self.table.write().unwrap().remove(&source).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(source: VertexId) -> Arc<QuerySnapshot> {
        Arc::new(QuerySnapshot::new(source, 0, 0.15, 1e-3, vec![0.0; 4]))
    }

    fn registry(capacity: usize) -> SessionRegistry {
        SessionRegistry::new(EpochDomain::new(4), capacity)
    }

    #[test]
    fn open_lookup_close() {
        let r = registry(8);
        assert!(r.is_empty());
        assert_eq!(r.open(3, snap(3)), OpenOutcome::Opened { evicted: None });
        assert_eq!(r.open(3, snap(3)), OpenOutcome::AlreadyOpen);
        assert_eq!(r.len(), 1);
        assert_eq!(r.sources(), vec![3]);
        let entry = r.lookup(3).expect("session open");
        assert_eq!(entry.source(), 3);
        assert!(r.lookup(4).is_none());
        assert!(r.close(3));
        assert!(!r.close(3));
        assert!(r.is_empty());
    }

    #[test]
    fn eviction_picks_least_recently_used() {
        let r = registry(3);
        for s in [10, 11, 12] {
            r.open(s, snap(s));
        }
        // Touch 10 and 11; 12 becomes the LRU.
        r.lookup(10);
        r.lookup(11);
        assert_eq!(r.open(13, snap(13)), OpenOutcome::Opened { evicted: Some(12) });
        assert_eq!(r.sources(), vec![10, 11, 13]);
        // peek must NOT count as a use: 10 stays hotter than 11 only via
        // its later lookup, and peeking 11 repeatedly changes nothing.
        r.lookup(10);
        r.lookup(13);
        r.peek(11);
        r.peek(11);
        assert_eq!(r.open(14, snap(14)), OpenOutcome::Opened { evicted: Some(11) });
        assert_eq!(r.sources(), vec![10, 13, 14]);
    }

    #[test]
    fn lru_survives_churn_and_stays_exact() {
        // Interleave opens, closes, and stamp-bumping lookups, then check
        // every eviction picks the true LRU.
        let r = registry(4);
        for s in [1, 2, 3, 4] {
            r.open(s, snap(s));
        }
        // Bump everything out of open order: 1 becomes hottest, 2 next.
        r.lookup(4);
        r.lookup(3);
        r.lookup(2);
        r.lookup(1);
        assert_eq!(r.open(5, snap(5)), OpenOutcome::Opened { evicted: Some(4) });
        // Close a mid-heat session; it must not be picked afterwards.
        assert!(r.close(2));
        r.open(6, snap(6));
        // Table: {1 hot, 3 cold, 5, 6}; 3 is now the LRU.
        assert_eq!(r.open(7, snap(7)), OpenOutcome::Opened { evicted: Some(3) });
        assert_eq!(r.sources(), vec![1, 5, 6, 7]);
        // Reopening an evicted source is a fresh (hottest) entry.
        r.lookup(5);
        r.lookup(6);
        r.lookup(7);
        assert_eq!(r.open(8, snap(8)), OpenOutcome::Opened { evicted: Some(1) });
    }

    #[test]
    fn published_snapshots_reach_readers_through_the_registry() {
        let r = registry(2);
        let reader = r.domain().register_reader();
        r.open(5, snap(5));
        let entry = r.lookup(5).unwrap();
        assert_eq!(entry.load(&reader).epoch(), 0);
        let e = r.domain().advance();
        entry.publish(r.domain(), Arc::new(QuerySnapshot::new(5, e, 0.15, 1e-3, vec![0.5; 4])));
        let got = r.lookup(5).unwrap().load(&reader);
        assert_eq!(got.epoch(), 1);
        assert_eq!(got.estimates(), &[0.5; 4]);
    }
}

//! Epoch-published snapshots: one writer, many readers, `std` locks only.
//!
//! The write loop owns the mutable PPR states. After every converged batch
//! it *publishes* an immutable [`crate::QuerySnapshot`] per session into a
//! [`SnapshotCell`]; readers clone the `Arc` out under a read lock held for
//! one reference-count increment. A snapshot is immutable from the moment
//! it is published, so a reader never observes a torn state, and `Arc`
//! frees it when its last holder lets go — there is no other reclamation.
//!
//! The [`EpochDomain`] is the instance's epoch line — the counter every
//! publication round, WAL record and checkpoint is numbered by.

use crate::snapshot::QuerySnapshot;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, RwLock};

/// The epoch counter of one serving instance; all of its
/// [`SnapshotCell`]s publish at the same epoch.
pub struct EpochDomain {
    epoch: AtomicU64,
}

impl EpochDomain {
    /// A domain at epoch 0; the first publication round is epoch 1. The
    /// argument is vestigial (it sized a reader table that no longer
    /// exists); the frozen `dppr_bench` still passes it.
    pub fn new(_max_readers: usize) -> Arc<Self> {
        Arc::new(EpochDomain { epoch: AtomicU64::new(0) })
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(SeqCst)
    }

    /// Starts a new publication round; returns the new epoch. Called by
    /// the write loop once per batch, *before* the per-session publishes.
    pub fn advance(&self) -> u64 {
        self.epoch.fetch_add(1, SeqCst) + 1
    }

    /// Jumps the epoch counter forward to `epoch` — the recovery path,
    /// so a restarted server resumes numbering where the crashed one
    /// left off instead of re-issuing epochs that clients may have seen.
    ///
    /// # Panics
    /// When `epoch` would move the counter backwards.
    pub fn resume_at(&self, epoch: u64) {
        let current = self.epoch.load(SeqCst);
        assert!(epoch >= current, "cannot rewind epoch {current} to {epoch}");
        self.epoch.store(epoch, SeqCst);
    }

    /// Vestigial, like [`Reader`]: loading needs no registration.
    pub fn register_reader(&self) -> Reader {
        Reader
    }
}

/// The token [`crate::SessionEntry::load`] takes. It carries nothing; it
/// and `register_reader` stay because the frozen `dppr_bench` names them.
pub struct Reader;

/// One session's published snapshot.
pub struct SnapshotCell {
    current: RwLock<Arc<QuerySnapshot>>,
}

impl SnapshotCell {
    /// A cell currently publishing `initial`.
    pub fn new(initial: Arc<QuerySnapshot>) -> Self {
        SnapshotCell { current: RwLock::new(initial) }
    }

    /// The current snapshot: read-lock, clone the `Arc`, unlock.
    pub fn load(&self) -> Arc<QuerySnapshot> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// Publishes `snap` (call after [`EpochDomain::advance`]). `snap` was
    /// built before the call and the old snapshot is dropped after the
    /// write lock, so readers wait for a pointer swap, never for a free.
    pub fn publish(&self, snap: Arc<QuerySnapshot>) {
        let mut current = self.current.write().expect("snapshot lock poisoned");
        let old = std::mem::replace(&mut *current, snap);
        drop(current);
        drop(old);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(epoch: u64, scores: &[f64]) -> Arc<QuerySnapshot> {
        Arc::new(QuerySnapshot::new(0, epoch, 0.15, 1e-3, scores.to_vec()))
    }

    #[test]
    fn load_returns_latest_published() {
        let domain = EpochDomain::new(0);
        let cell = SnapshotCell::new(snap(0, &[0.1]));
        assert_eq!(cell.load().epoch(), 0);
        let e = domain.advance();
        cell.publish(snap(e, &[0.2]));
        let got = cell.load();
        assert_eq!(got.epoch(), 1);
        assert_eq!(got.estimates(), &[0.2]);
    }

    #[test]
    fn old_snapshot_stays_valid_while_reader_holds_it() {
        let domain = EpochDomain::new(0);
        let cell = SnapshotCell::new(snap(0, &[0.7]));
        let held = cell.load();
        let old = Arc::downgrade(&held);
        for _ in 0..5 {
            cell.publish(snap(domain.advance(), &[0.0]));
        }
        // The holder's own strong count keeps the old contents alive even
        // though the cell let go of its reference five publishes ago.
        assert_eq!(held.epoch(), 0);
        assert_eq!(held.estimates(), &[0.7]);
        assert_eq!(cell.load().epoch(), 5);
        // The no-leak check: the holder's was the last reference.
        drop(held);
        assert!(old.upgrade().is_none(), "a swapped-out snapshot outlived its last holder");
    }

    #[test]
    fn resume_at_fast_forwards_epoch() {
        let domain = EpochDomain::new(0);
        domain.resume_at(17);
        assert_eq!(domain.epoch(), 17);
        assert_eq!(domain.advance(), 18);
    }

    #[test]
    #[should_panic(expected = "cannot rewind")]
    fn resume_at_rejects_rewind() {
        let domain = EpochDomain::new(0);
        domain.resume_at(5);
        domain.resume_at(3);
    }
}

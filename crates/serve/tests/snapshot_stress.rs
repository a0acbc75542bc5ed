//! Snapshot-consistency stress test (no loom, just real threads).
//!
//! N reader threads hammer `top_k` / `above_threshold` against published
//! snapshots while the write loop applies window slides and publishes an
//! epoch per batch. The torn-read oracle is exact: before publishing, the
//! writer records each snapshot's content fingerprint under its `(cell,
//! epoch)`; every snapshot a reader observes must fingerprint-match what
//! the writer published for that epoch — a mix of two epochs' bytes (a
//! torn state) cannot pass. On top of that readers check per-cell epoch
//! monotonicity, estimate range, and query-internal consistency.

use dppr_core::{MultiSourcePpr, PushVariant};
use dppr_graph::generators::erdos_renyi;
use dppr_graph::GraphStream;
use dppr_serve::{start, EpochDomain, QuerySnapshot, ServeConfig, SnapshotCell};
use dppr_stream::StreamDriver;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

const SOURCES: [u32; 3] = [0, 3, 7];
const READERS: usize = 6;
const SLIDES: usize = 60;
const BATCH: usize = 60;
const EPS: f64 = 1e-3;

#[test]
fn concurrent_readers_never_observe_torn_snapshots() {
    let stream = GraphStream::directed(erdos_renyi(250, 7_000, 11)).permuted(3);
    let domain = EpochDomain::new(0);
    let mut driver = StreamDriver::new(stream, 0.1);
    let mut multi = MultiSourcePpr::new(&SOURCES, 0.2, EPS, PushVariant::OPT);

    // Bootstrap and publish epoch 1.
    let init = driver.take_initial_batch();
    multi.apply_batch(driver.graph_mut(), &init);
    let fingerprints: Arc<Mutex<HashMap<(usize, u64), u64>>> =
        Arc::new(Mutex::new(HashMap::new()));
    let publish = |multi: &MultiSourcePpr, cells: &[Arc<SnapshotCell>], epoch: u64| {
        for (i, cell) in cells.iter().enumerate() {
            let snap = QuerySnapshot::from_state(multi.state(i), epoch);
            fingerprints
                .lock()
                .unwrap()
                .insert((i, epoch), snap.fingerprint());
            cell.publish(Arc::new(snap));
        }
    };
    let epoch0 = domain.advance();
    let cells: Vec<Arc<SnapshotCell>> = (0..SOURCES.len())
        .map(|i| {
            let snap = QuerySnapshot::from_state(multi.state(i), epoch0);
            fingerprints
                .lock()
                .unwrap()
                .insert((i, epoch0), snap.fingerprint());
            Arc::new(SnapshotCell::new(Arc::new(snap)))
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let cells = cells.clone();
            let stop = Arc::clone(&stop);
            let fingerprints = Arc::clone(&fingerprints);
            std::thread::spawn(move || {
                let mut last_epoch = vec![0u64; cells.len()];
                let mut observed_epochs = 0u64;
                let mut loads = 0u64;
                while !stop.load(SeqCst) {
                    for (i, cell) in cells.iter().enumerate() {
                        let snap = cell.load();
                        loads += 1;
                        // (1) Publication order: epochs are monotone per cell.
                        assert!(
                            snap.epoch() >= last_epoch[i],
                            "reader {r}: cell {i} epoch went backwards \
                             ({} after {})",
                            snap.epoch(),
                            last_epoch[i]
                        );
                        if snap.epoch() > last_epoch[i] {
                            observed_epochs += 1;
                            last_epoch[i] = snap.epoch();
                        }
                        // (2) Exact content check against what the writer
                        // published for this epoch: a torn state cannot
                        // fingerprint-match.
                        let expect = fingerprints
                            .lock()
                            .unwrap()
                            .get(&(i, snap.epoch()))
                            .copied();
                        assert_eq!(
                            Some(snap.fingerprint()),
                            expect,
                            "reader {r}: cell {i} epoch {} contents do not \
                             match the published snapshot",
                            snap.epoch()
                        );
                        // (3) Internal consistency: metadata frozen, every
                        // estimate a valid ε-bounded probability, queries
                        // self-consistent.
                        assert_eq!(snap.source(), SOURCES[i]);
                        assert_eq!(snap.epsilon(), EPS);
                        for &p in snap.estimates() {
                            assert!(
                                (-EPS..=1.0 + EPS).contains(&p),
                                "estimate {p} out of ε-bounded range"
                            );
                        }
                        let top = snap.top_k(5);
                        for w in top.ranking.windows(2) {
                            assert!(
                                w[0].estimate > w[1].estimate
                                    || (w[0].estimate == w[1].estimate
                                        && w[0].vertex < w[1].vertex),
                                "top-k ranking out of order"
                            );
                        }
                        let thr = snap.above_threshold(0.01);
                        for b in &thr.certain {
                            assert!(b.lo >= 0.01);
                        }
                        for b in &thr.possible {
                            assert!(b.hi >= 0.01 && b.lo < 0.01);
                        }
                    }
                }
                (observed_epochs, loads)
            })
        })
        .collect();

    // The writer: slide, apply, publish — while the readers run.
    let mut slides = 0usize;
    while slides < SLIDES {
        let Some(batch) = driver.slide_batch(BATCH) else {
            break;
        };
        multi.apply_batch(driver.graph_mut(), &batch);
        let epoch = domain.advance();
        publish(&multi, &cells, epoch);
        slides += 1;
    }
    stop.store(true, SeqCst);

    let mut total_epoch_advances = 0u64;
    let mut total_loads = 0u64;
    for handle in readers {
        let (observed, loads) = handle.join().expect("reader thread panicked");
        total_epoch_advances += observed;
        total_loads += loads;
    }
    // Liveness: the writer made real progress under read load, and readers
    // actually saw the epochs move (not just the bootstrap snapshot).
    assert!(slides >= 20, "writer starved: only {slides} slides");
    assert!(
        total_epoch_advances >= READERS as u64,
        "readers saw almost no epoch movement ({total_epoch_advances})"
    );
    assert!(total_loads > 0);
    // No leak: with the readers gone, one more round frees what it swaps out.
    let swapped_out: Vec<_> = cells.iter().map(|c| Arc::downgrade(&c.load())).collect();
    publish(&multi, &cells, domain.advance());
    for old in &swapped_out {
        assert!(old.upgrade().is_none(), "a swapped-out snapshot outlived its readers");
    }
}

/// Loading takes no slot from any table, so there is no reader count at
/// which `register_reader` or `load` can refuse: 64 readers on a
/// one-thread instance all load.
#[test]
fn a_live_instance_serves_any_number_of_readers() {
    let stream = GraphStream::directed(erdos_renyi(120, 3_000, 9)).permuted(3);
    let cfg = ServeConfig { threads: 1, batch: 400, epsilon: EPS, max_slides: 2, ..ServeConfig::default() };
    let handle = start(stream, 0.1, &[0], cfg).expect("server starts");
    let readers: Vec<_> =
        (0..64).map(|_| handle.registry().domain().register_reader()).collect();
    let entry = handle.registry().lookup(0).expect("session 0 is open");
    for reader in &readers {
        assert_eq!(entry.load(reader).source(), 0);
    }
    handle.shutdown();
    handle.join();
}

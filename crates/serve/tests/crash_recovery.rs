//! In-process recovery integration tests: checkpoint + WAL-tail replay
//! through the same `durable_boot` path `start` uses, without spawning
//! child processes (the full kill-point matrix lives in the
//! `crash_recovery` harness binary under `crates/bench`).

use dppr_core::persist::state_fingerprint;
use dppr_core::{MultiSourcePpr, PushVariant};
use dppr_graph::{presets, GraphStream, VertexId};
use dppr_serve::{boot_probe, DurabilityConfig, ServeConfig};
use dppr_stream::StreamDriver;
use dppr_wal::{FsyncPolicy, Wal, WalOptions, WalRecord};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;

const SEED: u64 = 0xD1CE;
const INIT: f64 = 0.1;
const ALPHA: f64 = 0.15;
const EPS: f64 = 1e-4;
const BATCH: usize = 50;
const SOURCES: [VertexId; 2] = [0, 3];

fn the_stream() -> GraphStream {
    presets::toy().stream(SEED)
}

fn cfg(dir: &Path) -> ServeConfig {
    let mut d = DurabilityConfig::new(dir);
    d.fsync = FsyncPolicy::Off; // tests exercise logic, not the disk
    d.checkpoint_every_slides = 4;
    ServeConfig {
        port: 0,
        threads: 1,
        batch: BATCH,
        alpha: ALPHA,
        epsilon: EPS,
        durability: Some(d),
        ..ServeConfig::default()
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dppr_serve_rec_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fingerprints(m: &MultiSourcePpr) -> Vec<(VertexId, u64)> {
    (0..m.num_sources()).map(|i| (m.source(i), state_fingerprint(m.state(i)))).collect()
}

/// Builds the ground truth the server's bootstrap produces: initial
/// window applied at epoch 1, then one epoch per `BATCH`-edge slide.
fn replay_epochs(n_slides: usize) -> (StreamDriver, MultiSourcePpr) {
    let mut driver = StreamDriver::new(the_stream(), INIT);
    let mut multi = MultiSourcePpr::new(&SOURCES, ALPHA, EPS, PushVariant::OPT);
    let init = driver.take_initial_batch();
    multi.apply_batch(driver.graph_mut(), &init);
    for _ in 0..n_slides {
        let batch = driver.slide_batch(BATCH).expect("stream long enough");
        multi.apply_batch(driver.graph_mut(), &batch);
    }
    (driver, multi)
}

#[test]
fn graceful_shutdown_checkpoints_and_restart_replays_nothing() {
    let dir = tmpdir("graceful");
    let c = cfg(&dir);
    let handle = dppr_serve::start(the_stream(), INIT, &SOURCES, c.clone()).unwrap();
    assert!(handle.recovery().is_none(), "first boot must be fresh");
    while !handle.stats().stream_done.load(Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let report = handle.join();
    assert!(report.checkpoints >= 1);
    assert_eq!(report.durable_epoch, report.epoch, "join leaves a final checkpoint");

    // Restart: the final checkpoint covers everything — an empty tail.
    let probe = boot_probe(the_stream(), INIT, &SOURCES, &c).unwrap();
    let rec = probe.recovery.expect("second boot recovers");
    assert_eq!(rec.checkpoint_epoch, report.epoch);
    assert_eq!(rec.replayed_batches, 0);
    assert_eq!(probe.epoch, report.epoch);

    // And the recovered state is bit-identical to an uncrashed replay.
    let (_, multi) = replay_epochs(report.epoch as usize - 1);
    assert_eq!(probe.fingerprints, fingerprints(&multi));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_replays_only_the_tail() {
    let dir = tmpdir("tail");
    let c = cfg(&dir);

    // Hand-build the post-crash disk state: a checkpoint at epoch 1 and
    // three logged-but-uncheckpointed batches (epochs 2..=4) — exactly
    // what a crash right after the epoch-4 append leaves behind.
    let mut driver = StreamDriver::new(the_stream(), INIT);
    let mut multi = MultiSourcePpr::new(&SOURCES, ALPHA, EPS, PushVariant::OPT);
    let init = driver.take_initial_batch();
    multi.apply_batch(driver.graph_mut(), &init);
    let states: Vec<_> = (0..multi.num_sources()).map(|i| multi.state(i).clone_values()).collect();
    dppr_serve::durability::write_checkpoint(&dir, 1, driver.window_range(), &states).unwrap();
    let wal_dir = dppr_serve::durability::wal_dir(&dir);
    let (mut wal, tail) = Wal::open(&wal_dir, WalOptions::default()).unwrap();
    assert!(tail.is_empty());
    wal.append(&WalRecord::Checkpoint { epoch: 1 }).unwrap();
    for epoch in 2..=4u64 {
        let batch = driver.slide_batch(BATCH).unwrap();
        let (ws, we) = driver.window_range();
        wal.append(&WalRecord::Batch {
            epoch,
            window_start: ws as u64,
            window_end: we as u64,
            updates: batch.clone(),
        })
        .unwrap();
        multi.apply_batch(driver.graph_mut(), &batch);
    }
    wal.sync().unwrap();
    drop(wal);

    let probe = boot_probe(the_stream(), INIT, &SOURCES, &c).unwrap();
    let rec = probe.recovery.expect("recovers from the checkpoint");
    assert_eq!(rec.checkpoint_epoch, 1);
    assert_eq!(rec.replayed_batches, 3, "replays exactly the tail");
    assert_eq!(probe.epoch, 4);
    assert_eq!(probe.fingerprints, fingerprints(&multi), "bit-identical to the live run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_tail_is_truncated_and_recovery_proceeds() {
    let dir = tmpdir("torn");
    let c = cfg(&dir);
    let handle = dppr_serve::start(the_stream(), INIT, &SOURCES, c.clone()).unwrap();
    while !handle.stats().stream_done.load(Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let report = handle.join();

    // Simulate a torn write: an incomplete frame at the end of the
    // newest segment.
    let wal_dir = dppr_serve::durability::wal_dir(&dir);
    let mut segs: Vec<_> = std::fs::read_dir(&wal_dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segs.sort();
    let newest = segs.pop().unwrap();
    let mut f = std::fs::OpenOptions::new().append(true).open(&newest).unwrap();
    f.write_all(&[0x40, 0x00, 0x00, 0x00, 0xAB, 0xCD]).unwrap(); // half a header
    drop(f);

    let probe = boot_probe(the_stream(), INIT, &SOURCES, &c).unwrap();
    assert_eq!(probe.epoch, report.epoch, "torn junk is dropped, state unchanged");
    let (_, multi) = replay_epochs(report.epoch as usize - 1);
    assert_eq!(probe.fingerprints, fingerprints(&multi));

    // Recovery repaired the log: probing again sees a clean tail.
    let probe2 = boot_probe(the_stream(), INIT, &SOURCES, &c).unwrap();
    assert_eq!(probe2.epoch, probe.epoch);
    assert_eq!(probe2.fingerprints, probe.fingerprints);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restarted_server_serves_recovered_sessions() {
    let dir = tmpdir("restart");
    let mut c = cfg(&dir);
    c.max_slides = 3;
    let handle = dppr_serve::start(the_stream(), INIT, &SOURCES, c.clone()).unwrap();
    while handle.stats().slides.load(Relaxed) < 3 {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let report = handle.join();
    assert_eq!(report.epoch, 4); // bootstrap + 3 slides

    // A real restarted server (threads, listener, and all) resumes at
    // the durable epoch with every session queryable.
    let handle = dppr_serve::start(the_stream(), INIT, &SOURCES, c).unwrap();
    let rec = *handle.recovery().expect("restart recovers");
    assert_eq!(rec.recovered_epoch, 4);
    assert_eq!(handle.registry().len(), SOURCES.len());
    let report = handle.join();
    assert!(report.epoch >= 4);
    std::fs::remove_dir_all(&dir).ok();
}

/// A data directory in the one-WAL-per-write-shard layout has no
/// checkpoint at its root and would look fresh; booting over it is
/// refused, by `start` and by `boot_probe` alike, and nothing is written.
#[test]
fn data_directory_in_the_per_shard_layout_is_refused() {
    let dir = tmpdir("pershard");
    std::fs::create_dir_all(dir.join("shard-0").join("wal")).unwrap();
    std::fs::create_dir_all(dir.join("shard-1").join("wal")).unwrap();
    let c = cfg(&dir);
    for err in [
        boot_probe(the_stream(), INIT, &SOURCES, &c).expect_err("probe must refuse"),
        dppr_serve::start(the_stream(), INIT, &SOURCES, c.clone()).err().expect("start must refuse"),
    ] {
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains(dir.to_str().unwrap()), "names the directory: {msg}");
        assert!(msg.contains("shard-") && msg.contains("per write shard"), "names the cause: {msg}");
    }
    assert!(!dir.join("wal").exists(), "a refused boot must not start a log");

    // Names that only resemble the layout are not it.
    let dir = tmpdir("lookalike");
    std::fs::create_dir_all(dir.join("shard-")).unwrap();
    std::fs::create_dir_all(dir.join("shard-x1")).unwrap();
    boot_probe(the_stream(), INIT, &SOURCES, &cfg(&dir)).expect("fresh boot");
    std::fs::remove_dir_all(&dir).ok();
}

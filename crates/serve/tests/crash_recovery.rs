//! In-process recovery integration tests: checkpoint + WAL-tail replay
//! through the same boot path `start` uses, without spawning child
//! processes (the full kill-point matrix lives in the `crash_recovery`
//! harness binary under `crates/bench`).

mod common;

use dppr_core::persist::state_fingerprint;
use dppr_core::MultiSourcePpr;
use dppr_graph::{presets, GraphStream, VertexId};
use dppr_serve::{boot_probe, DurabilityConfig, ServeConfig};
use dppr_stream::StreamDriver;
use dppr_wal::{FsyncPolicy, Wal, WalOptions, WalRecord};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

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
    let mut multi = MultiSourcePpr::new(&SOURCES, ALPHA, EPS);
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
    // The final checkpoint is one file; older ones and tmp files are gone.
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, [format!("ckpt-{}.bin", report.epoch), "wal".into()]);
    assert!(dir.join("wal").is_dir());

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

/// Hand-builds the post-crash disk state under `dir`: a checkpoint at
/// epoch 1 and three logged-but-uncheckpointed batches (epochs 2..=4) —
/// exactly what a crash right after the epoch-4 append leaves behind.
/// The log opens with the `Checkpoint` marker older builds wrote, which
/// recovery must skip. Returns the live state at epoch 4.
fn crashed_after_epoch_4(dir: &Path) -> MultiSourcePpr {
    let mut driver = StreamDriver::new(the_stream(), INIT);
    let mut multi = MultiSourcePpr::new(&SOURCES, ALPHA, EPS);
    let init = driver.take_initial_batch();
    multi.apply_batch(driver.graph_mut(), &init);
    let states: Vec<_> = (0..multi.num_sources()).map(|i| multi.state(i).clone_values()).collect();
    dppr_serve::durability::write_checkpoint(dir, 1, driver.window_range(), &states).unwrap();
    let wal_dir = dppr_serve::durability::wal_dir(dir);
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
    multi
}

#[test]
fn recovery_replays_only_the_tail() {
    let dir = tmpdir("tail");
    let multi = crashed_after_epoch_4(&dir);
    let probe = boot_probe(the_stream(), INIT, &SOURCES, &cfg(&dir)).unwrap();
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

/// A repeated source is refused by `start` and `boot_probe` alike, naming
/// it, before the data directory is touched: two vectors of one source
/// would share one published cell.
#[test]
fn repeated_source_is_refused() {
    let dir = tmpdir("repeated");
    let c = cfg(&dir);
    let errs = [
        boot_probe(the_stream(), INIT, &[0, 0], &c).expect_err("probe must refuse"),
        dppr_serve::start(the_stream(), INIT, &[0, 0], c.clone()).err().expect("start must refuse"),
    ];
    for err in errs {
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains("source 0 is repeated"), "{err}");
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "nothing written");
    std::fs::remove_dir_all(&dir).ok();
}

/// Blocks until `done`, failing after 10 s.
fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A restart serves every session its checkpoint holds — past a smaller
/// `session_capacity`, whatever `sources` asks for — and a session
/// closed after the restart is gone from the next checkpoint.
#[test]
fn recovered_sessions_stay_open_past_the_capacity() {
    let dir = tmpdir("capacity");
    let mut c = cfg(&dir);
    c.max_slides = 2;
    c.session_capacity = 4;
    let handle = dppr_serve::start(the_stream(), INIT, &[0, 1, 2, 3], c.clone()).unwrap();
    wait_for("two slides", || handle.stats().slides.load(Relaxed) >= 2);
    handle.join();

    c.session_capacity = 1;
    let handle = dppr_serve::start(the_stream(), INIT, &[0], c.clone()).unwrap();
    let (status, body) = common::get(handle.addr(), "/sessions");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#""sessions":[0,1,2,3]"#), "{body}");
    let (status, body) = common::request(handle.addr(), "POST", "/session/close?source=2");
    assert_eq!(status, 200, "{body}");
    wait_for("the close", || handle.registry().sources() == [0, 1, 3]);
    handle.join();

    let probe = boot_probe(the_stream(), INIT, &[0], &c).unwrap();
    let mut sources: Vec<VertexId> = probe.fingerprints.iter().map(|&(s, _)| s).collect();
    sources.sort_unstable();
    assert_eq!(sources, [0, 1, 3]);
    std::fs::remove_dir_all(&dir).ok();
}

/// `wal_syncs` as `/stats` reports it.
fn wal_syncs(handle: &dppr_serve::ServerHandle) -> u64 {
    let (_, body) = common::get(handle.addr(), "/stats");
    let rest = body.split(r#""wal_syncs":"#).nth(1).expect("a wal_syncs key");
    rest[..rest.find(',').unwrap()].parse().unwrap()
}

/// An idle write loop flushes the WAL: with an fsync interval longer than
/// the test no append syncs, so only the idle flush can, and it does so
/// soon after the last slide.
#[test]
fn idle_writer_syncs_the_wal() {
    let dir = tmpdir("idle");
    let mut c = cfg(&dir);
    c.durability.as_mut().unwrap().fsync = FsyncPolicy::Interval(Duration::from_secs(600));
    c.max_slides = 3;
    let handle = dppr_serve::start(the_stream(), INIT, &SOURCES, c).unwrap();
    wait_for("three slides", || handle.stats().slides.load(Relaxed) >= 3);
    wait_for("an idle WAL sync", || wal_syncs(&handle) >= 1);
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The bytes of every WAL segment under `dir`, in name order (`None`
/// when there is no WAL directory).
fn wal_bytes(dir: &Path) -> Option<Vec<Vec<u8>>> {
    let wal_dir = dppr_serve::durability::wal_dir(dir);
    let mut segs: Vec<_> = std::fs::read_dir(wal_dir).ok()?.map(|e| e.unwrap().path()).collect();
    segs.sort();
    Some(segs.iter().map(|p| std::fs::read(p).unwrap()).collect())
}

/// Booting over `dir` is refused by `boot_probe` and by `start` alike,
/// with an `InvalidData` error naming the directory and `entry`, and the
/// WAL (or its absence) is left exactly as it was.
fn assert_refused(dir: &Path, entry: &str) -> Vec<String> {
    let before = wal_bytes(dir);
    let c = cfg(dir);
    let errs = [
        boot_probe(the_stream(), INIT, &SOURCES, &c).expect_err("probe must refuse"),
        dppr_serve::start(the_stream(), INIT, &SOURCES, c.clone())
            .err()
            .expect("start must refuse"),
    ];
    let msgs = errs
        .iter()
        .map(|err| {
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            let msg = err.to_string();
            assert!(msg.contains(dir.to_str().unwrap()), "names the directory: {msg}");
            assert!(msg.contains(entry), "names {entry}: {msg}");
            msg
        })
        .collect();
    assert_eq!(wal_bytes(dir), before, "a refused boot must not touch the log");
    msgs
}

/// Opens a log under `dir` holding the `Checkpoint` marker older builds
/// wrote after their checkpoint at `epoch`.
fn old_log(dir: &Path, epoch: u64) {
    let (mut wal, _) =
        Wal::open(&dppr_serve::durability::wal_dir(dir), WalOptions::default()).unwrap();
    wal.append(&WalRecord::Checkpoint { epoch }).unwrap();
    wal.sync().unwrap();
}

/// A data directory in the one-WAL-per-write-shard layout has no
/// checkpoint at its root and would look fresh; booting over it is
/// refused, by `start` and by `boot_probe` alike, and nothing is written.
#[test]
fn data_directory_in_the_per_shard_layout_is_refused() {
    let dir = tmpdir("pershard");
    std::fs::create_dir_all(dir.join("shard-0").join("wal")).unwrap();
    std::fs::create_dir_all(dir.join("shard-1").join("wal")).unwrap();
    for msg in assert_refused(&dir, "shard-") {
        assert!(msg.contains("per write shard"), "names the cause: {msg}");
    }
    assert!(!dir.join("wal").exists(), "a refused boot must not start a log");

    // Names that only resemble the layout are not it.
    let dir = tmpdir("lookalike");
    std::fs::create_dir_all(dir.join("shard-")).unwrap();
    std::fs::create_dir_all(dir.join("shard-x1")).unwrap();
    boot_probe(the_stream(), INIT, &SOURCES, &cfg(&dir)).expect("fresh boot");
    std::fs::remove_dir_all(&dir).ok();
}

/// A data directory whose checkpoint an older build wrote in the text
/// state format (manifest `dppr-ckpt v1`) is refused, not treated as
/// fresh: a fresh boot would delete the WAL the old checkpoint anchors.
#[test]
fn data_directory_with_text_format_checkpoints_is_refused() {
    let dir = tmpdir("textckpt");
    let body = "dppr-ckpt v1\nepoch 1\nwindow 0 100\nsources 1\nsource 0\n";
    let manifest = format!("{body}crc32 {:08x}\n", dppr_core::crc32(body.as_bytes()));
    std::fs::create_dir_all(dir.join("ckpt-1")).unwrap();
    std::fs::write(dir.join("ckpt-1").join("MANIFEST"), manifest).unwrap();
    old_log(&dir, 1);
    for msg in assert_refused(&dir, "ckpt-1/") {
        assert!(msg.contains("checkpoint directory"), "names the cause: {msg}");
    }
    let wal_dir = dppr_serve::durability::wal_dir(&dir);
    assert!(wal_dir.is_dir(), "a refused boot must not delete the log");
    std::fs::remove_dir_all(&dir).ok();
}

/// The binary checkpoint directory of the previous layout (`MANIFEST`
/// `dppr-ckpt v2` plus one `state-<source>.bin` per session) is refused
/// the same way.
#[test]
fn data_directory_with_binary_checkpoint_directories_is_refused() {
    let dir = tmpdir("v2ckpt");
    let ckpt = dir.join("ckpt-3");
    std::fs::create_dir_all(&ckpt).unwrap();
    let body = "dppr-ckpt v2\nepoch 3\nwindow 0 100\nsources 1\nsource 0\n";
    let manifest = format!("{body}crc32 {:08x}\n", dppr_core::crc32(body.as_bytes()));
    std::fs::write(ckpt.join("MANIFEST"), manifest).unwrap();
    let state = dppr_core::PprState::new(dppr_core::PprConfig::new(0, ALPHA, EPS));
    dppr_core::persist::save_state(&state, ckpt.join("state-0.bin")).unwrap();
    old_log(&dir, 3);
    for msg in assert_refused(&dir, "ckpt-3/") {
        assert!(msg.contains("checkpoint directory"), "names the cause: {msg}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every checkpoint is written under a tmp name and renamed only after an
/// fsync, so a `ckpt-<epoch>.bin` that fails validation is damage. With
/// no valid checkpoint left the directory is refused — not bootstrapped
/// over, which would delete the WAL tail.
#[test]
fn data_directory_whose_checkpoints_are_all_invalid_is_refused() {
    let dir = tmpdir("allinvalid");
    crashed_after_epoch_4(&dir);
    let path = dir.join("ckpt-1.bin");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, bytes).unwrap();
    let logged = wal_bytes(&dir).is_some_and(|segs| segs.iter().any(|s| s.len() > 8));
    assert!(logged, "a non-empty log");
    for msg in assert_refused(&dir, "ckpt-1.bin") {
        assert!(msg.contains("none is valid"), "names the cause: {msg}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

//! Crash-injection harness for the durable serving path.
//!
//! Proves the recovery contract end to end: a server killed at any
//! injected fault site — mid-append, mid-rotation, mid-checkpoint,
//! either side of the checkpoint rename, or hard-killed between batches
//! — restarts into a state **bit-identical** to a never-crashed replay
//! at the same epoch, and replays only the WAL tail past the newest
//! durable checkpoint. A corruption corpus (truncated segment,
//! bit-flipped CRC, duplicated tail frame) is layered on top of a hard
//! kill to prove torn-tail repair, and a flipped byte in the newest
//! checkpoint file on top of a kill right after its rename proves the
//! fall-back to the previous checkpoint.
//!
//! How it works:
//!
//! 1. The parent computes the baseline: the exact per-epoch
//!    `state_fingerprint` sequence of an uncrashed run, using the same
//!    primitives as the server's write loop.
//! 2. For each kill point it re-execs itself (`--child <data-dir>`)
//!    with `DPPR_CRASH=<site>:<nth>` set; the child runs a real durable
//!    serving instance and dies with exit code 86 at the fault site.
//! 3. The parent then recovers with [`dppr_serve::boot_probe`] — the
//!    identical bootstrap `start` runs, minus threads — and asserts the
//!    recovered fingerprints equal the baseline's at the recovered
//!    epoch, that replay covered exactly `recovered - checkpoint`
//!    batches, and that a second probe is idempotent (the first one
//!    prunes the WAL through the loaded checkpoint; it logs nothing).
//!
//! Output: one TSV line per case and a closing `… all ok` line. Exits
//! nonzero if any case fails. (Recovery *time* is tracked by the
//! benchmark's gated `recovery_s`, not here.)

use dppr_core::{persist::state_fingerprint, MultiSourcePpr};
use dppr_graph::{presets, GraphStream, VertexId};
use dppr_serve::{boot_probe, BootProbe, DurabilityConfig, ServeConfig};
use dppr_stream::StreamDriver;
use dppr_wal::{FsyncPolicy, CRASH_ENV, CRASH_EXIT_CODE};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

// ---- the workload: every knob shared by baseline, child, and probe ----
// One fixed configuration so all three replay the identical epoch
// sequence; toy() keeps a full matrix run in seconds.

const SEED: u64 = 0xC5A5_0007;
const INIT_FRACTION: f64 = 0.1;
const ALPHA: f64 = 0.15;
const EPSILON: f64 = 1e-4;
const BATCH: usize = 40;
const SOURCES: [VertexId; 2] = [0, 7];
/// Sources for the multi-lane case: three sessions, so on a host of two or
/// more cores the write loop pushes them over several lanes and each lane
/// owns sessions when the kill lands.
const LANE_SOURCES: [VertexId; 3] = [0, 7, 11];
const CKPT_EVERY: u64 = 4;
// Small segments so rotation happens several times per run.
const SEGMENT_BYTES: u64 = 3_072;

fn the_stream() -> GraphStream {
    presets::toy().stream(SEED)
}

fn serve_cfg(data_dir: &Path) -> ServeConfig {
    let mut d = DurabilityConfig::new(data_dir);
    d.fsync = FsyncPolicy::PerBatch;
    d.checkpoint_every_slides = CKPT_EVERY;
    d.segment_bytes = SEGMENT_BYTES;
    ServeConfig {
        port: 0,
        threads: 1,
        batch: BATCH,
        alpha: ALPHA,
        epsilon: EPSILON,
        durability: Some(d),
        ..ServeConfig::default()
    }
}

// ---- baseline: the never-crashed replay ------------------------------

/// `fps[e - 1]` = the per-source fingerprints at epoch `e`, mirroring the
/// server exactly: epoch 1 is the bootstrapped initial window, each
/// further epoch is one `BATCH`-edge slide.
fn baseline_for(sources: &[VertexId]) -> Vec<Vec<(VertexId, u64)>> {
    let mut driver = StreamDriver::new(the_stream(), INIT_FRACTION);
    let mut multi = MultiSourcePpr::new(sources, ALPHA, EPSILON);
    let init = driver.take_initial_batch();
    multi.apply_batch(driver.graph_mut(), &init);
    let fp = |m: &MultiSourcePpr| {
        (0..m.num_sources()).map(|i| (m.source(i), state_fingerprint(m.state(i)))).collect()
    };
    let mut fps = vec![fp(&multi)];
    while let Some(batch) = driver.slide_batch(BATCH) {
        multi.apply_batch(driver.graph_mut(), &batch);
        fps.push(fp(&multi));
    }
    fps
}

// ---- child mode: a real durable serving instance ---------------------

/// Runs the server over `data_dir` until the stream is dry, then shuts
/// down gracefully (exit 0). With `die_after_slides > 0` it instead
/// hard-exits (code 86, no WAL flush, no final checkpoint) once that
/// many slides have been applied — the "kill -9 between batches" point.
/// With `DPPR_CRASH` set, the injected site exits 86 on its own.
fn run_child(data_dir: &Path, die_after_slides: u64, sources: &[VertexId]) -> ! {
    let mut cfg = serve_cfg(data_dir);
    // Freeze the write loop at the kill point rather than racing it: a
    // fast slide loop must not run the stream dry before the poll below
    // notices the threshold and hard-exits.
    cfg.max_slides = die_after_slides as usize;
    let handle = dppr_serve::start(the_stream(), INIT_FRACTION, sources, cfg).unwrap_or_else(|e| {
        eprintln!("child: start failed: {e}");
        std::process::exit(3);
    });
    loop {
        let slides = handle.stats().slides.load(std::sync::atomic::Ordering::Relaxed);
        if die_after_slides > 0 && slides >= die_after_slides {
            std::process::exit(CRASH_EXIT_CODE);
        }
        if handle.stats().stream_done.load(std::sync::atomic::Ordering::Relaxed) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let report = handle.join();
    println!("child: ran dry at epoch {} (durable {})", report.epoch, report.durable_epoch);
    std::process::exit(0);
}

// ---- corruption corpus -----------------------------------------------

/// Newest WAL segment file under `data_dir`.
fn newest_segment(data_dir: &Path) -> PathBuf {
    let wal = data_dir.join("wal");
    let mut segs: Vec<PathBuf> = std::fs::read_dir(&wal)
        .unwrap_or_else(|e| panic!("reading {}: {e}", wal.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segs.sort();
    segs.pop().expect("at least one WAL segment")
}

/// Cuts the final bytes of the newest segment — a torn last frame.
fn corrupt_truncate(data_dir: &Path) {
    let path = newest_segment(data_dir);
    let len = std::fs::metadata(&path).unwrap().len();
    let cut = len.saturating_sub(7).max(8); // keep the magic
    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    f.set_len(cut).unwrap();
}

/// Flips one bit near the end of the newest segment — a CRC mismatch in
/// (at least) the final frame.
fn corrupt_bitflip(data_dir: &Path) {
    let path = newest_segment(data_dir);
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len().saturating_sub(10).max(8);
    bytes[at] ^= 0x10;
    std::fs::write(&path, bytes).unwrap();
}

/// Appends a copy of the last complete frame — the double-write /
/// duplicated-tail case. Replay must skip the duplicate (its epoch is
/// already applied), not apply it twice.
fn corrupt_duplicate_tail(data_dir: &Path) {
    let path = newest_segment(data_dir);
    let bytes = std::fs::read(&path).unwrap();
    // Walk the frames: 8-byte magic, then [len u32][crc u32][payload].
    let (mut at, mut last) = (8usize, None);
    while at + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let end = at + 8 + len;
        if end > bytes.len() {
            break;
        }
        last = Some((at, end));
        at = end;
    }
    let (s, e) = last.expect("segment holds at least one complete frame");
    let dup = bytes[s..e].to_vec();
    let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
    f.write_all(&dup).unwrap();
}

/// Flips one byte in the middle of the newest `ckpt-<epoch>.bin` — a
/// checkpoint damaged after it was published.
fn corrupt_newest_checkpoint(data_dir: &Path) {
    let newest = std::fs::read_dir(data_dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter_map(|name| {
            let epoch: u64 = name.strip_prefix("ckpt-")?.strip_suffix(".bin")?.parse().ok()?;
            Some((epoch, data_dir.join(name)))
        })
        .max()
        .expect("at least one checkpoint")
        .1;
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&newest, bytes).unwrap();
}

// ---- the case matrix -------------------------------------------------

struct Case {
    /// TSV/JSON label.
    name: String,
    /// `DPPR_CRASH` value for the child (empty = no injected site).
    crash: String,
    /// Hard-exit the child after this many slides (0 = run dry / die at
    /// the injected site).
    die_after_slides: u64,
    /// Post-mortem filesystem damage.
    corrupt: Option<fn(&Path)>,
    /// Sessions of the child and of the recovering probe.
    sources: &'static [VertexId],
    /// The checkpoint recovery must start from, when the case fixes it.
    want_checkpoint: Option<u64>,
}

impl Case {
    fn injected(site: &str, nth: u64) -> Case {
        Case {
            name: format!("{site}:{nth}"),
            crash: format!("{site}:{nth}"),
            die_after_slides: 0,
            corrupt: None,
            sources: &SOURCES,
            want_checkpoint: None,
        }
    }

    fn corpus(name: &str, corrupt: fn(&Path)) -> Case {
        Case {
            name: format!("corpus:{name}"),
            crash: String::new(),
            die_after_slides: 10,
            corrupt: Some(corrupt),
            sources: &SOURCES,
            want_checkpoint: None,
        }
    }
}

/// Deterministic "random" kill indices (no `Math.random` analog here on
/// purpose: a failing case must be replayable byte for byte).
fn lcg_points(seed: u64, n: usize, lo: u64, hi: u64) -> Vec<u64> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            lo + (x >> 33) % (hi - lo + 1)
        })
        .collect()
}

fn cases() -> Vec<Case> {
    let mut v = vec![
        // First and a later hit of every injected fault site.
        Case::injected("append-partial", 1),
        Case::injected("append-done", 1),
        Case::injected("rotate", 1),
        Case::injected("rotate", 2),
        Case::injected("ckpt-state", 1), // dies inside the *base* checkpoint
        Case::injected("ckpt-state", 2),
        Case::injected("ckpt-pre-rename", 1),
        Case::injected("ckpt-pre-rename", 2),
        Case::injected("ckpt-post-rename", 1),
        Case::injected("ckpt-post-rename", 2),
        // Hard kill between batches, no site (plus the corpus on top).
        Case::corpus("truncated-segment", corrupt_truncate),
        Case::corpus("bit-flipped-crc", corrupt_bitflip),
        Case::corpus("duplicated-tail", corrupt_duplicate_tail),
        // Killed right after the first periodic checkpoint's rename, that
        // checkpoint then damaged: `ckpt-1.bin` is not yet pruned and the
        // WAL tail is intact, so recovery falls back to epoch 1.
        Case {
            name: "ckpt-post-rename:2+corrupt-newest-checkpoint".into(),
            corrupt: Some(corrupt_newest_checkpoint),
            want_checkpoint: Some(1),
            ..Case::injected("ckpt-post-rename", 2)
        },
    ];
    // Randomized (but seeded) mid-stream append kills.
    for nth in lcg_points(SEED, 3, 2, 12) {
        v.push(Case::injected("append-partial", nth));
        v.push(Case::injected("append-done", nth));
    }
    v
}

// ---- parent-side verification ----------------------------------------

struct Outcome {
    name: String,
    child_exit: i32,
    recovery_ms: f64,
    checkpoint_epoch: u64,
    replayed: u64,
    recovered_epoch: u64,
    error: Option<String>,
}

fn probe_now(data_dir: &Path, sources: &[VertexId]) -> std::io::Result<(BootProbe, f64)> {
    let t = Instant::now();
    let probe = boot_probe(the_stream(), INIT_FRACTION, sources, &serve_cfg(data_dir))?;
    Ok((probe, t.elapsed().as_secs_f64() * 1e3))
}

fn check_case(case: &Case, base: &[Vec<(VertexId, u64)>], root: &Path) -> Outcome {
    let data_dir = root.join(case.name.replace(':', "-"));
    let mut out = Outcome {
        name: case.name.clone(),
        child_exit: -1,
        recovery_ms: 0.0,
        checkpoint_epoch: 0,
        replayed: 0,
        recovered_epoch: 0,
        error: None,
    };

    // 1. Run the child until it dies.
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--child").arg(&data_dir).env_remove(CRASH_ENV);
    if !case.crash.is_empty() {
        cmd.env(CRASH_ENV, &case.crash);
    }
    if case.die_after_slides > 0 {
        cmd.arg("--die-after-slides").arg(case.die_after_slides.to_string());
    }
    let csv: Vec<String> = case.sources.iter().map(ToString::to_string).collect();
    cmd.arg("--sources").arg(csv.join(","));
    let child = match cmd.output() {
        Ok(o) => o,
        Err(e) => {
            out.error = Some(format!("spawning child: {e}"));
            return out;
        }
    };
    out.child_exit = child.status.code().unwrap_or(-1);
    if out.child_exit != CRASH_EXIT_CODE {
        out.error = Some(format!(
            "child exited {} (wanted the injected crash {CRASH_EXIT_CODE}); stderr: {}",
            out.child_exit,
            String::from_utf8_lossy(&child.stderr).trim()
        ));
        return out;
    }

    // 2. Optional post-mortem corruption.
    if let Some(damage) = case.corrupt {
        damage(&data_dir);
    }

    // 3. Recover and compare against the baseline.
    let (probe, ms) = match probe_now(&data_dir, case.sources) {
        Ok(v) => v,
        Err(e) => {
            out.error = Some(format!("recovery failed: {e}"));
            return out;
        }
    };
    out.recovery_ms = ms;
    out.recovered_epoch = probe.epoch;
    let from = probe.recovery.map(|r| r.checkpoint_epoch);
    if let Some(want) = case.want_checkpoint.filter(|&want| from != Some(want)) {
        out.error = Some(format!("recovered from checkpoint {from:?}, wanted {want}"));
        return out;
    }
    if let Some(r) = &probe.recovery {
        out.checkpoint_epoch = r.checkpoint_epoch;
        out.replayed = r.replayed_batches;
        if r.recovered_epoch != probe.epoch {
            out.error =
                Some(format!("report epoch {} != domain {}", r.recovered_epoch, probe.epoch));
            return out;
        }
        // Tail-only replay: exactly the batches past the checkpoint.
        if r.checkpoint_epoch + r.replayed_batches != r.recovered_epoch {
            out.error = Some(format!(
                "replay not tail-only: checkpoint {} + replayed {} != recovered {}",
                r.checkpoint_epoch, r.replayed_batches, r.recovered_epoch
            ));
            return out;
        }
    }
    let Some(want) = probe.epoch.checked_sub(1).and_then(|i| base.get(i as usize)) else {
        out.error =
            Some(format!("recovered epoch {} outside baseline 1..={}", probe.epoch, base.len()));
        return out;
    };
    if probe.fingerprints != *want {
        out.error = Some(format!(
            "state diverged at epoch {}: recovered {:x?}, baseline {:x?}",
            probe.epoch, probe.fingerprints, want
        ));
        return out;
    }

    // 4. Recovery must be idempotent (the probe itself prunes the WAL —
    //    run it again on the result).
    match probe_now(&data_dir, case.sources) {
        Ok((again, _)) => {
            if again.epoch != probe.epoch || again.fingerprints != probe.fingerprints {
                out.error = Some("second recovery disagreed with the first".into());
            }
        }
        Err(e) => out.error = Some(format!("second recovery failed: {e}")),
    }
    out
}

/// After one representative crash+recovery, let a real server finish the
/// stream and prove the *final* state matches the uncrashed final state.
fn check_resume_to_completion(base: &[Vec<(VertexId, u64)>], root: &Path) -> Option<String> {
    let data_dir = root.join("resume-to-completion");
    let exe = std::env::current_exe().expect("current_exe");
    let child = std::process::Command::new(exe)
        .arg("--child")
        .arg(&data_dir)
        .env(CRASH_ENV, "append-done:7")
        .output()
        .ok()?;
    if child.status.code() != Some(CRASH_EXIT_CODE) {
        return Some(format!("resume child exited {:?}", child.status.code()));
    }
    // Recover inside a real server and run the stream dry.
    let handle =
        match dppr_serve::start(the_stream(), INIT_FRACTION, &SOURCES, serve_cfg(&data_dir)) {
            Ok(h) => h,
            Err(e) => return Some(format!("restart failed: {e}")),
        };
    if handle.recovery().is_none() {
        return Some("restart did not report a recovery".into());
    }
    while !handle.stats().stream_done.load(std::sync::atomic::Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let report = handle.join();
    if report.epoch != base.len() as u64 {
        return Some(format!(
            "resumed run ended at epoch {}, baseline {}",
            report.epoch,
            base.len()
        ));
    }
    // The graceful join checkpointed the final epoch; probe it.
    match probe_now(&data_dir, &SOURCES) {
        Ok((probe, _)) => {
            if probe.fingerprints != *base.last().unwrap() {
                return Some("final state after resume diverged from baseline".into());
            }
            None
        }
        Err(e) => Some(format!("final probe failed: {e}")),
    }
}

/// Kills a three-session server between batches, mid-stream, and
/// recovers it through the same probe and the same assertions as every
/// other case: tail-only replay, fingerprints bit-identical to the
/// uncrashed baseline of the same three sources, idempotent second
/// recovery.
fn check_lanes_kill(root: &Path) -> Outcome {
    let case = Case {
        name: "lanes-kill".into(),
        crash: String::new(),
        die_after_slides: 12,
        corrupt: None,
        sources: &LANE_SOURCES,
        want_checkpoint: None,
    };
    check_case(&case, &baseline_for(&LANE_SOURCES), root)
}

// ---- entry point ------------------------------------------------------

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--child") {
        let data_dir = PathBuf::from(args.get(i + 1).expect("--child <data-dir>"));
        let die = args
            .iter()
            .position(|a| a == "--die-after-slides")
            .and_then(|j| args.get(j + 1))
            .map_or(0, |v| v.parse().expect("--die-after-slides <n>"));
        let sources: Vec<VertexId> = args
            .iter()
            .position(|a| a == "--sources")
            .and_then(|j| args.get(j + 1))
            .map_or(SOURCES.to_vec(), |v| {
                v.split(',').map(|s| s.parse().expect("--sources <v,v,...>")).collect()
            });
        run_child(&data_dir, die, &sources);
    }
    let root = std::env::temp_dir().join(format!("dppr_crash_{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("creating scratch dir");
    let base = baseline_for(&SOURCES);
    println!("baseline\tepochs={}\tsources={:?}", base.len(), SOURCES);
    println!("case\tchild_exit\trecovery_ms\tcheckpoint_epoch\treplayed\trecovered_epoch\tok");

    let mut outcomes = Vec::new();
    let lanes_kill = std::iter::once_with(|| check_lanes_kill(&root));
    for o in cases().iter().map(|case| check_case(case, &base, &root)).chain(lanes_kill) {
        println!(
            "{}\t{}\t{:.2}\t{}\t{}\t{}\t{}",
            o.name,
            o.child_exit,
            o.recovery_ms,
            o.checkpoint_epoch,
            o.replayed,
            o.recovered_epoch,
            o.error.as_deref().unwrap_or("ok")
        );
        outcomes.push(o);
    }
    let resume_err = check_resume_to_completion(&base, &root);
    println!("resume-to-completion\t-\t-\t-\t-\t-\t{}", resume_err.as_deref().unwrap_or("ok"));

    let failures: Vec<&Outcome> = outcomes.iter().filter(|o| o.error.is_some()).collect();
    std::fs::remove_dir_all(&root).ok();
    for o in &failures {
        eprintln!("FAIL {}: {}", o.name, o.error.as_deref().unwrap());
    }
    if let Some(e) = &resume_err {
        eprintln!("FAIL resume-to-completion: {e}");
    }
    if !failures.is_empty() || resume_err.is_some() {
        std::process::exit(1);
    }
    println!(
        "crash_recovery: {} cases (the last a multi-lane kill) + resume-to-completion all ok",
        outcomes.len()
    );
}

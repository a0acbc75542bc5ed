//! Checkpoints + WAL plumbing for the serving stack.
//!
//! The durable state of a serving instance is (a) the newest checkpoint
//! directory `ckpt-<epoch>` and (b) the WAL tail past that epoch. A
//! checkpoint captures everything recovery needs:
//!
//! * `MANIFEST` — a small text file: the version line `dppr-ckpt v2`,
//!   epoch, window bounds (logical stream positions), the open source
//!   list, and a CRC32 trailer over all preceding bytes;
//! * one `state-<source>.bin` per open session, in the binary
//!   `core::persist` v3 format (its own CRC trailer).
//!
//! Checkpoints are written crash-atomically: everything goes into a
//! staging directory `ckpt.tmp-<epoch>` first, each file is fsynced, and
//! a single `rename(2)` publishes it — a crash at any point leaves
//! either the old checkpoint or the new one, never a half-written
//! hybrid. Loading walks `ckpt-*` newest-first and takes the first one
//! that validates, so a corrupt newest checkpoint silently falls back to
//! its predecessor (whose WAL tail is still retained, because segments
//! are pruned only up to the *acknowledged* durable epoch). A valid
//! `dppr-ckpt v1` manifest — a checkpoint in the text state format of
//! older builds — is not skipped but refused with an error, so a data
//! directory written by an older version is never mistaken for a fresh
//! one and bootstrapped over.

use dppr_core::persist::{read_state, write_state};
use dppr_core::{crc32, PprState};
use dppr_wal::{fault, FsyncPolicy};
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// First line of every checkpoint manifest.
const MANIFEST_MAGIC: &str = "dppr-ckpt v2";
/// First line of the manifests older builds wrote next to text state
/// files; such a checkpoint is refused, not skipped.
const TEXT_MANIFEST_MAGIC: &str = "dppr-ckpt v1";

/// Durability knobs for a serving instance.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory: WAL segments under `wal/`, checkpoints as
    /// `ckpt-<epoch>` subdirectories.
    pub data_dir: PathBuf,
    /// WAL flush discipline.
    pub fsync: FsyncPolicy,
    /// Checkpoint every N window slides (0 = only the initial and final
    /// checkpoints).
    pub checkpoint_every_slides: u64,
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
}

impl DurabilityConfig {
    /// Defaults tuned for the serving write loop: interval fsync at
    /// 50 ms, a checkpoint every 64 slides, 8 MiB segments.
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::Interval(Duration::from_millis(50)),
            checkpoint_every_slides: 64,
            segment_bytes: 8 << 20,
        }
    }
}

/// What recovery did, surfaced on the handle and in `dppr serve` output.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint recovery started from.
    pub checkpoint_epoch: u64,
    /// Batch records replayed from the WAL tail.
    pub replayed_batches: u64,
    /// Epoch the instance resumed publishing at.
    pub recovered_epoch: u64,
    /// Window bounds after replay.
    pub window_start: usize,
    /// Exclusive window end after replay.
    pub window_end: usize,
}

/// A checkpoint pulled back off disk.
pub struct LoadedCheckpoint {
    /// Epoch the checkpoint captured.
    pub epoch: u64,
    /// Window start at that epoch (logical stream position).
    pub window_start: usize,
    /// Window end at that epoch.
    pub window_end: usize,
    /// One converged state per open session, in manifest order.
    pub states: Vec<PprState>,
}

/// The WAL directory under a data dir.
pub fn wal_dir(data_dir: &Path) -> PathBuf {
    data_dir.join("wal")
}

fn ckpt_path(data_dir: &Path, epoch: u64) -> PathBuf {
    data_dir.join(format!("ckpt-{epoch}"))
}

fn state_file(source: u32) -> String {
    format!("state-{source}.bin")
}

fn parse_ckpt_epoch(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?.parse().ok()
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes the checkpoint for `epoch` crash-atomically under `data_dir`.
///
/// Crash-injection sites: `ckpt-state` (dies with only the first state
/// file staged), `ckpt-pre-rename` (staging complete, rename pending)
/// and `ckpt-post-rename` (checkpoint published, WAL marker pending).
pub fn write_checkpoint(
    data_dir: &Path,
    epoch: u64,
    window: (usize, usize),
    states: &[PprState],
) -> io::Result<()> {
    let stage = data_dir.join(format!("ckpt.tmp-{epoch}"));
    let _ = fs::remove_dir_all(&stage);
    fs::create_dir_all(&stage)?;

    let mut manifest = String::new();
    manifest.push_str(MANIFEST_MAGIC);
    manifest.push('\n');
    manifest.push_str(&format!("epoch {epoch}\n"));
    manifest.push_str(&format!("window {} {}\n", window.0, window.1));
    manifest.push_str(&format!("sources {}\n", states.len()));
    for (i, st) in states.iter().enumerate() {
        let source = st.config().source;
        manifest.push_str(&format!("source {source}\n"));
        let mut f = File::create(stage.join(state_file(source)))?;
        write_state(st, &mut f)?;
        f.sync_data()?;
        if i == 0 {
            fault::maybe_crash("ckpt-state");
        }
    }
    manifest.push_str(&format!("crc32 {:08x}\n", crc32(manifest.as_bytes())));
    let mut f = File::create(stage.join("MANIFEST"))?;
    f.write_all(manifest.as_bytes())?;
    f.sync_data()?;
    sync_dir(&stage)?;

    fault::maybe_crash("ckpt-pre-rename");
    let target = ckpt_path(data_dir, epoch);
    let _ = fs::remove_dir_all(&target); // re-checkpointing an epoch is idempotent
    fs::rename(&stage, &target)?;
    sync_dir(data_dir)?;
    fault::maybe_crash("ckpt-post-rename");
    Ok(())
}

/// Loads one checkpoint directory, validating the manifest CRC, the
/// listed sources, and every per-state file (v3 length and trailer). A
/// valid manifest of the text-format version is an
/// [`io::ErrorKind::Unsupported`] error, which the caller must not skip.
fn load_checkpoint_dir(dir: &Path) -> io::Result<LoadedCheckpoint> {
    let mut bytes = Vec::new();
    File::open(dir.join("MANIFEST"))?.read_to_end(&mut bytes)?;
    let text = std::str::from_utf8(&bytes).map_err(|_| bad("manifest is not UTF-8"))?;
    let body_end = text
        .trim_end_matches('\n')
        .rfind('\n')
        .ok_or_else(|| bad("manifest too short"))?;
    let (body, trailer) = text.split_at(body_end + 1);
    let stored = trailer
        .trim_end()
        .strip_prefix("crc32 ")
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| bad("manifest missing crc32 trailer"))?;
    if crc32(body.as_bytes()) != stored {
        return Err(bad("manifest checksum mismatch"));
    }

    let mut lines = body.lines();
    match lines.next() {
        Some(MANIFEST_MAGIC) => {}
        Some(TEXT_MANIFEST_MAGIC) => {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!(
                    "checkpoint {} is a {TEXT_MANIFEST_MAGIC} checkpoint: its state files are in \
                     the text format of older builds, which this version does not read — \
                     recover the data directory with the version that wrote it, or point \
                     --data-dir at an empty directory",
                    dir.display()
                ),
            ))
        }
        _ => return Err(bad("bad manifest magic")),
    }
    let field = |line: Option<&str>, key: &str| -> io::Result<String> {
        line.and_then(|l| l.strip_prefix(key))
            .map(str::to_string)
            .ok_or_else(|| bad(format!("manifest missing `{key}` line")))
    };
    let epoch: u64 =
        field(lines.next(), "epoch ")?.parse().map_err(|_| bad("bad epoch field"))?;
    let window_raw = field(lines.next(), "window ")?;
    let mut w = window_raw.split_whitespace();
    let window_start: usize = w
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| bad("bad window field"))?;
    let window_end: usize = w
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| bad("bad window field"))?;
    if window_start > window_end {
        return Err(bad("inverted window bounds"));
    }
    let count: usize =
        field(lines.next(), "sources ")?.parse().map_err(|_| bad("bad sources field"))?;
    let mut states = Vec::new();
    for _ in 0..count {
        let source: u32 =
            field(lines.next(), "source ")?.parse().map_err(|_| bad("bad source field"))?;
        let st = read_state(File::open(dir.join(state_file(source)))?)?;
        if st.config().source != source {
            return Err(bad(format!(
                "state file claims source {}, manifest says {source}",
                st.config().source
            )));
        }
        states.push(st);
    }
    Ok(LoadedCheckpoint { epoch, window_start, window_end, states })
}

/// Finds and loads the newest valid checkpoint under `data_dir`:
/// candidates are tried newest-first and invalid ones are skipped with a
/// note on stderr (a crash mid-checkpoint must not block recovery from
/// the previous one). `Ok(None)` means a genuinely fresh data dir. A
/// checkpoint an older build wrote in the text state format is an error:
/// skipping it would make the directory look fresh, and a fresh boot
/// deletes the WAL.
pub fn load_latest_checkpoint(data_dir: &Path) -> io::Result<Option<LoadedCheckpoint>> {
    let mut epochs: Vec<u64> = match fs::read_dir(data_dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().to_str().and_then(parse_ckpt_epoch))
            .collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    epochs.sort_unstable_by(|a, b| b.cmp(a));
    for epoch in epochs {
        match load_checkpoint_dir(&ckpt_path(data_dir, epoch)) {
            Ok(ck) => {
                debug_assert_eq!(ck.epoch, epoch);
                return Ok(Some(ck));
            }
            Err(e) if e.kind() == io::ErrorKind::Unsupported => return Err(e),
            Err(e) => {
                eprintln!("dppr-serve: skipping invalid checkpoint ckpt-{epoch}: {e}");
            }
        }
    }
    Ok(None)
}

/// Deletes checkpoints older than `keep_epoch` and every leftover
/// staging directory.
pub fn prune_checkpoints(data_dir: &Path, keep_epoch: u64) -> io::Result<()> {
    for entry in fs::read_dir(data_dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale_tmp = name.starts_with("ckpt.tmp-");
        let old_ckpt = parse_ckpt_epoch(name).is_some_and(|e| e < keep_epoch);
        if stale_tmp || old_ckpt {
            fs::remove_dir_all(entry.path())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dppr_core::persist::state_fingerprint;
    use dppr_core::{MultiSourcePpr, PushVariant};
    use dppr_graph::{generators::erdos_renyi, DynamicGraph, EdgeUpdate};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_ID: AtomicU32 = AtomicU32::new(0);

    fn test_dir(tag: &str) -> PathBuf {
        let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir()
            .join(format!("dppr-durability-{}-{tag}-{id}", std::process::id()));
        fs::remove_dir_all(&d).ok();
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn converged_states(sources: &[u32]) -> Vec<PprState> {
        let mut g = DynamicGraph::new();
        let mut multi = MultiSourcePpr::new(sources, 0.2, 1e-3, PushVariant::OPT);
        let batch: Vec<EdgeUpdate> =
            erdos_renyi(40, 300, 11).into_iter().map(|(u, v)| EdgeUpdate::insert(u, v)).collect();
        multi.apply_batch(&mut g, &batch);
        (0..multi.num_sources()).map(|i| multi.state(i).clone_values()).collect()
    }

    #[test]
    fn checkpoint_roundtrips_bit_identically() {
        let dir = test_dir("roundtrip");
        let states = converged_states(&[0, 3, 9]);
        write_checkpoint(&dir, 12, (100, 400), &states).unwrap();
        let ck = load_latest_checkpoint(&dir).unwrap().expect("checkpoint present");
        assert_eq!(ck.epoch, 12);
        assert_eq!((ck.window_start, ck.window_end), (100, 400));
        assert_eq!(ck.states.len(), 3);
        for (a, b) in ck.states.iter().zip(&states) {
            assert_eq!(state_fingerprint(a), state_fingerprint(b));
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn newest_valid_checkpoint_wins() {
        let dir = test_dir("newest");
        let states = converged_states(&[0]);
        write_checkpoint(&dir, 3, (0, 50), &states).unwrap();
        write_checkpoint(&dir, 8, (50, 100), &states).unwrap();
        let ck = load_latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(ck.epoch, 8);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = test_dir("fallback");
        let states = converged_states(&[2]);
        write_checkpoint(&dir, 3, (0, 50), &states).unwrap();
        write_checkpoint(&dir, 8, (50, 100), &states).unwrap();
        // Flip a manifest byte in the newest.
        let m = dir.join("ckpt-8").join("MANIFEST");
        let mut bytes = fs::read(&m).unwrap();
        bytes[20] ^= 0x10;
        fs::write(&m, &bytes).unwrap();
        let ck = load_latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(ck.epoch, 3);

        // Corrupt a *state file* of epoch 3 too: nothing valid remains.
        let s = dir.join("ckpt-3").join("state-2.bin");
        let mut bytes = fs::read(&s).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        fs::write(&s, &bytes).unwrap();
        assert!(load_latest_checkpoint(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_session_checkpoint_is_legal() {
        let dir = test_dir("empty");
        write_checkpoint(&dir, 5, (10, 20), &[]).unwrap();
        let ck = load_latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(ck.epoch, 5);
        assert!(ck.states.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_removes_old_and_staging() {
        let dir = test_dir("prune");
        let states = converged_states(&[0]);
        write_checkpoint(&dir, 2, (0, 10), &states).unwrap();
        write_checkpoint(&dir, 5, (10, 20), &states).unwrap();
        fs::create_dir_all(dir.join("ckpt.tmp-9")).unwrap();
        prune_checkpoints(&dir, 5).unwrap();
        assert!(!dir.join("ckpt-2").exists());
        assert!(dir.join("ckpt-5").exists());
        assert!(!dir.join("ckpt.tmp-9").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_dir_is_fresh() {
        let dir = test_dir("fresh").join("does-not-exist");
        assert!(load_latest_checkpoint(&dir).unwrap().is_none());
    }

    #[test]
    fn hostile_checkpoint_bytes_load_the_same_state_or_fall_back() {
        // Seeded mutations of the newer of two checkpoints: every
        // truncation of each of its files, random byte flips in each, and
        // a flip at every manifest byte. Every case must load the newer
        // checkpoint bit-identically or fall back to the older one.
        let dir = test_dir("hostile");
        let older = converged_states(&[0, 5]);
        let newer = converged_states(&[1, 5]);
        write_checkpoint(&dir, 3, (0, 50), &older).unwrap();
        write_checkpoint(&dir, 8, (50, 100), &newer).unwrap();
        let fps = |states: &[PprState]| -> Vec<u64> {
            states.iter().map(state_fingerprint).collect()
        };
        let (want_older, want_newer) = (fps(&older), fps(&newer));
        let check = |what: &dyn Fn() -> String| {
            let ck = load_latest_checkpoint(&dir).unwrap().expect("ckpt-3 is intact");
            let want = if ck.epoch == 8 { &want_newer } else { &want_older };
            assert!(ck.epoch == 8 || ck.epoch == 3, "{}: epoch {}", what(), ck.epoch);
            assert_eq!(&fps(&ck.states), want, "{}: epoch {} differs", what(), ck.epoch);
        };
        let mut rng = SmallRng::seed_from_u64(0xC4EC4);
        for name in ["MANIFEST", "state-1.bin", "state-5.bin"] {
            let path = dir.join("ckpt-8").join(name);
            let clean = fs::read(&path).unwrap();
            for cut in 0..clean.len() {
                fs::write(&path, &clean[..cut]).unwrap();
                check(&|| format!("{name} cut to {cut}"));
            }
            for case in 0..100 {
                let mut m = clean.clone();
                for _ in 0..rng.gen_range(1..=4) {
                    m[rng.gen_range(0..clean.len())] ^= rng.gen_range(1..=255u8);
                }
                fs::write(&path, &m).unwrap();
                check(&|| format!("{name} flip case {case}"));
            }
            if name == "MANIFEST" {
                for at in 0..clean.len() {
                    let mut m = clean.clone();
                    m[at] ^= rng.gen_range(1..=255u8);
                    fs::write(&path, &m).unwrap();
                    check(&|| format!("manifest byte {at} flipped"));
                }
            }
            fs::write(&path, &clean).unwrap();
        }
        assert_eq!(load_latest_checkpoint(&dir).unwrap().unwrap().epoch, 8);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_manifest_is_skipped() {
        let dir = test_dir("trunc");
        let states = converged_states(&[1]);
        write_checkpoint(&dir, 4, (0, 30), &states).unwrap();
        let m = dir.join("ckpt-4").join("MANIFEST");
        let bytes = fs::read(&m).unwrap();
        fs::write(&m, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load_latest_checkpoint(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).ok();
    }
}

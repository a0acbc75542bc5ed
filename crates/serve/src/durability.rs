//! Checkpoints + WAL plumbing for the serving stack.
//!
//! The durable state of a serving instance is (a) the newest checkpoint
//! file `ckpt-<epoch>.bin` and (b) the WAL tail past that epoch. A
//! checkpoint is one binary file, every integer little-endian:
//!
//! ```text
//! magic     "dppr-ckpt v3\n"
//! epoch     u64
//! window    u64 start, u64 end (logical stream positions)
//! sessions  u32
//! per session: u64 byte length, then one `core::persist` v3 state
//! CRC32     u32 over every byte before it
//! ```
//!
//! The length prefix keeps this module ignorant of the state layout; each
//! state also carries its own length check and CRC trailer. States are
//! encoded and decoded one at a time through one reused buffer, and the
//! file's CRC takes each state's own CRC by `Crc32::combine`, so no byte
//! is hashed twice.
//!
//! Checkpoints are written crash-atomically: the bytes go to
//! `ckpt-<epoch>.tmp`, one `fdatasync` flushes them, a `rename(2)`
//! publishes the file and one directory fsync makes the rename durable —
//! a crash at any point leaves either the old checkpoint or the new one.
//! Because nothing is ever written under the final name, an invalid
//! `ckpt-<epoch>.bin` is damage, not a crash artifact: loading walks the
//! files newest-first and takes the first that validates, and refuses
//! the directory when none does, rather than treating it as fresh (a
//! fresh boot deletes the WAL). The directory layouts older builds wrote
//! are refused the same way, by [`refuse_older_layouts`].

use dppr_core::persist::{decode_state, encode_state};
use dppr_core::{Crc32, PprState};
use dppr_wal::{fault, FsyncPolicy};
use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// First bytes of every checkpoint file.
const MAGIC: &[u8] = b"dppr-ckpt v3\n";
/// Bytes before the first record: the magic, epoch, window start and
/// end (u64 each), then the session count (u32).
const HEADER: usize = MAGIC.len() + 3 * 8 + 4;

/// Durability knobs for a serving instance.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory: WAL segments under `wal/`, checkpoints as
    /// `ckpt-<epoch>.bin` files.
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
    /// One converged state per open session, in file order.
    pub states: Vec<PprState>,
}

/// The WAL directory under a data dir.
pub fn wal_dir(data_dir: &Path) -> PathBuf {
    data_dir.join("wal")
}

fn ckpt_path(data_dir: &Path, epoch: u64) -> PathBuf {
    data_dir.join(format!("ckpt-{epoch}.bin"))
}

fn parse_ckpt_epoch(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?.strip_suffix(".bin")?.parse().ok()
}

/// `name` is `prefix` followed by one or more ASCII digits.
fn numbered(name: &str, prefix: &str) -> bool {
    name.strip_prefix(prefix)
        .is_some_and(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Refuses a data directory in a layout older builds wrote: an entry
/// `shard-<digits>` (one WAL directory per write shard) or
/// `ckpt-<digits>` (a checkpoint directory of per-session files). Such a
/// directory holds no `ckpt-<epoch>.bin`, so it would look fresh and be
/// bootstrapped over; the boot fails with an error naming the entry
/// before anything is written.
pub(crate) fn refuse_older_layouts(data_dir: &Path) -> io::Result<()> {
    for entry in fs::read_dir(data_dir)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        let layout = if numbered(&name, "shard-") {
            "one WAL directory per write shard"
        } else if numbered(&name, "ckpt-") {
            "one checkpoint directory of per-session files per epoch"
        } else {
            continue;
        };
        return Err(bad(format!(
            "data directory {} holds {name}/: it was written with {layout}, a layout this \
             version does not read — recover it with the version that wrote it, or point \
             --data-dir at an empty directory",
            data_dir.display()
        )));
    }
    Ok(())
}

/// Feeds one encoded state to a checkpoint's running CRC. A state ends
/// with the CRC of its other bytes, so those are not hashed a second time;
/// on load this runs only after the state passed its own checks.
fn feed_state(crc: &mut Crc32, state: &[u8]) {
    let (body, trailer) = state.split_at(state.len() - 4);
    crc.combine(u32::from_le_bytes(trailer.try_into().expect("4 bytes")), body.len() as u64);
    crc.update(trailer);
}

/// Writes the checkpoint for `epoch` crash-atomically under `data_dir`,
/// encoding one state at a time through one reused buffer.
///
/// Crash-injection sites: `ckpt-state` (dies with only the first record
/// in the tmp file), `ckpt-pre-rename` (tmp file flushed, rename pending)
/// and `ckpt-post-rename` (checkpoint published and its rename durable,
/// older checkpoints and the WAL not yet pruned).
pub fn write_checkpoint(
    data_dir: &Path,
    epoch: u64,
    window: (usize, usize),
    states: &[PprState],
) -> io::Result<()> {
    let tmp = data_dir.join(format!("ckpt-{epoch}.tmp"));
    let mut file = File::create(&tmp)?;
    let mut header = MAGIC.to_vec();
    for word in [epoch, window.0 as u64, window.1 as u64] {
        header.extend_from_slice(&word.to_le_bytes());
    }
    header.extend_from_slice(&(states.len() as u32).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&header);
    file.write_all(&header)?;
    let mut buf = Vec::new();
    for (i, st) in states.iter().enumerate() {
        buf.clear();
        encode_state(st, &mut buf);
        let len = (buf.len() as u64).to_le_bytes();
        crc.update(&len);
        feed_state(&mut crc, &buf);
        file.write_all(&len)?;
        file.write_all(&buf)?;
        if i == 0 {
            fault::maybe_crash("ckpt-state");
        }
    }
    file.write_all(&crc.finish().to_le_bytes())?;
    file.sync_data()?;

    fault::maybe_crash("ckpt-pre-rename");
    fs::rename(&tmp, ckpt_path(data_dir, epoch))?;
    sync_dir(data_dir)?;
    fault::maybe_crash("ckpt-post-rename");
    Ok(())
}

/// Loads one checkpoint file. Every length is checked against the bytes
/// left in the file before a buffer is sized for it, each state is
/// checked by `decode_state` (exact length, own CRC), and the trailer must
/// follow the last record and equal the CRC of everything before it. The
/// states must be of distinct sources and share α and ε, as the
/// `MultiSourcePpr` they rebuild requires.
fn load_checkpoint_file(path: &Path) -> io::Result<LoadedCheckpoint> {
    let mut file = File::open(path)?;
    let size = file.metadata()?.len();
    // Bytes between the read position and the 4-byte trailer; every read
    // below is covered by it.
    let mut left = size
        .checked_sub(HEADER as u64 + 4)
        .ok_or_else(|| bad(format!("checkpoint of {size} bytes ends inside its header")))?;
    let mut header = [0u8; HEADER];
    file.read_exact(&mut header)?;
    if !header.starts_with(MAGIC) {
        return Err(bad("not a dppr-ckpt v3 checkpoint (bad magic)"));
    }
    let word = |i: usize| {
        let at = MAGIC.len() + 8 * i;
        u64::from_le_bytes(header[at..at + 8].try_into().expect("an 8-byte field"))
    };
    let (epoch, window_start, window_end) = (word(0), word(1), word(2));
    let count = u32::from_le_bytes(header[HEADER - 4..].try_into().expect("a 4-byte field"));
    if window_start > window_end {
        return Err(bad(format!("inverted window bounds {window_start} > {window_end}")));
    }
    let fits = |w: u64| usize::try_from(w).map_err(|_| bad("window bound does not fit in memory"));
    let (window_start, window_end) = (fits(window_start)?, fits(window_end)?);
    let mut crc = Crc32::new();
    crc.update(&header);
    let mut buf = Vec::new();
    let mut states = Vec::new();
    for i in 0..count {
        let mut len = [0u8; 8];
        left = left.checked_sub(8).ok_or_else(|| bad(format!("record {i} is cut off")))?;
        file.read_exact(&mut len)?;
        crc.update(&len);
        let len = u64::from_le_bytes(len);
        if len > left {
            return Err(bad(format!("record {i} claims {len} bytes, {left} are left")));
        }
        left -= len;
        buf.resize(len as usize, 0);
        file.read_exact(&mut buf)?;
        states.push(decode_state(&buf)?);
        feed_state(&mut crc, &buf);
    }
    if left != 0 {
        return Err(bad(format!("{left} bytes between the last record and the trailer")));
    }
    let mut trailer = [0u8; 4];
    file.read_exact(&mut trailer)?;
    let (stored, actual) = (u32::from_le_bytes(trailer), crc.finish());
    if stored != actual {
        return Err(bad(format!(
            "checkpoint checksum mismatch: stored {stored:08x}, computed {actual:08x}"
        )));
    }
    let mut sources = HashSet::new();
    for (i, c) in states.iter().map(PprState::config).enumerate() {
        if !sources.insert(c.source) {
            return Err(bad(format!("source {} appears twice", c.source)));
        }
        let first = states[0].config();
        if (c.alpha, c.epsilon) != (first.alpha, first.epsilon) {
            return Err(bad(format!(
                "state {i} has alpha {} and epsilon {}, state 0 has alpha {} and epsilon {}",
                c.alpha, c.epsilon, first.alpha, first.epsilon
            )));
        }
    }
    Ok(LoadedCheckpoint { epoch, window_start, window_end, states })
}

/// Finds and loads the newest valid checkpoint under `data_dir`:
/// candidates are tried newest-first and the first that validates wins,
/// with a note on stderr for each newer one skipped. `Ok(None)` means a
/// fresh data dir — one holding no `ckpt-<epoch>.bin` at all. Candidates
/// of which none validates are an [`io::ErrorKind::InvalidData`] error
/// naming each one and what is wrong with it.
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
    let mut invalid = Vec::new();
    for epoch in epochs {
        let err = match load_checkpoint_file(&ckpt_path(data_dir, epoch)) {
            Ok(ck) if ck.epoch == epoch => return Ok(Some(ck)),
            Ok(ck) => bad(format!("its header says epoch {}", ck.epoch)),
            Err(e) => e,
        };
        eprintln!("dppr-serve: skipping invalid checkpoint ckpt-{epoch}.bin: {err}");
        invalid.push(format!("ckpt-{epoch}.bin: {err}"));
    }
    if invalid.is_empty() {
        return Ok(None);
    }
    Err(bad(format!(
        "data directory {} holds checkpoints, but none is valid ({}) — it is damaged, not fresh, \
         and is not bootstrapped over",
        data_dir.display(),
        invalid.join("; ")
    )))
}

/// Deletes checkpoints older than `keep_epoch` and every leftover
/// `ckpt-<epoch>.tmp`.
pub fn prune_checkpoints(data_dir: &Path, keep_epoch: u64) -> io::Result<()> {
    for entry in fs::read_dir(data_dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale_tmp = name.starts_with("ckpt-") && name.ends_with(".tmp");
        let old_ckpt = parse_ckpt_epoch(name).is_some_and(|e| e < keep_epoch);
        if stale_tmp || old_ckpt {
            fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dppr_core::persist::state_fingerprint;
    use dppr_core::MultiSourcePpr;
    use dppr_graph::{generators::erdos_renyi, DynamicGraph, EdgeUpdate};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_ID: AtomicU32 = AtomicU32::new(0);

    fn test_dir(tag: &str) -> PathBuf {
        let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
        let d =
            std::env::temp_dir().join(format!("dppr-durability-{}-{tag}-{id}", std::process::id()));
        fs::remove_dir_all(&d).ok();
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn converged_states(sources: &[u32]) -> Vec<PprState> {
        let mut g = DynamicGraph::new();
        let mut multi = MultiSourcePpr::new(sources, 0.2, 1e-3);
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
        // One file, no leftovers.
        let names: Vec<_> = fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["ckpt-12.bin"]);
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
        // Flip a header byte in the newest.
        let newest = dir.join("ckpt-8.bin");
        let mut bytes = fs::read(&newest).unwrap();
        bytes[20] ^= 0x10;
        fs::write(&newest, &bytes).unwrap();
        let ck = load_latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(ck.epoch, 3);

        // Corrupt a state record of epoch 3 too: nothing valid remains,
        // and the directory is refused, naming both candidates.
        let older = dir.join("ckpt-3.bin");
        let mut bytes = fs::read(&older).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        fs::write(&older, &bytes).unwrap();
        let err = load_latest_checkpoint(&dir).err().expect("no valid checkpoint");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("ckpt-8.bin") && msg.contains("ckpt-3.bin"), "{msg}");
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
        fs::write(dir.join("ckpt-9.tmp"), b"torn").unwrap();
        prune_checkpoints(&dir, 5).unwrap();
        assert!(!dir.join("ckpt-2.bin").exists());
        assert!(dir.join("ckpt-5.bin").exists());
        assert!(!dir.join("ckpt-9.tmp").exists());
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
        // truncation, random byte flips anywhere, and a flip at every
        // header byte. Every case must load the newer checkpoint
        // bit-identically or fall back to the older one.
        let dir = test_dir("hostile");
        let older = converged_states(&[0, 5]);
        let newer = converged_states(&[1, 5]);
        write_checkpoint(&dir, 3, (0, 50), &older).unwrap();
        write_checkpoint(&dir, 8, (50, 100), &newer).unwrap();
        let fps =
            |states: &[PprState]| -> Vec<u64> { states.iter().map(state_fingerprint).collect() };
        let (want_older, want_newer) = (fps(&older), fps(&newer));
        let check = |what: &dyn Fn() -> String| {
            let ck = load_latest_checkpoint(&dir).unwrap().expect("ckpt-3 is intact");
            let want = if ck.epoch == 8 { &want_newer } else { &want_older };
            assert!(ck.epoch == 8 || ck.epoch == 3, "{}: epoch {}", what(), ck.epoch);
            assert_eq!(&fps(&ck.states), want, "{}: epoch {} differs", what(), ck.epoch);
        };
        let mut rng = SmallRng::seed_from_u64(0xC4EC4);
        let path = dir.join("ckpt-8.bin");
        let clean = fs::read(&path).unwrap();
        for cut in 0..clean.len() {
            fs::write(&path, &clean[..cut]).unwrap();
            check(&|| format!("cut to {cut}"));
        }
        for case in 0..300 {
            let mut m = clean.clone();
            for _ in 0..rng.gen_range(1..=4) {
                m[rng.gen_range(0..clean.len())] ^= rng.gen_range(1..=255u8);
            }
            fs::write(&path, &m).unwrap();
            check(&|| format!("flip case {case}"));
        }
        for at in 0..HEADER {
            let mut m = clean.clone();
            m[at] ^= rng.gen_range(1..=255u8);
            fs::write(&path, &m).unwrap();
            check(&|| format!("header byte {at} flipped"));
        }
        fs::write(&path, &clean).unwrap();
        assert_eq!(load_latest_checkpoint(&dir).unwrap().unwrap().epoch, 8);
        fs::remove_dir_all(&dir).ok();
    }

    /// A CRC-valid checkpoint whose states `MultiSourcePpr::from_states`
    /// would reject is invalid too: a lone one is refused, naming the
    /// cause.
    fn assert_unloadable(tag: &str, states: &[PprState], cause: &str) {
        let dir = test_dir(tag);
        write_checkpoint(&dir, 6, (0, 40), states).unwrap();
        let err = load_latest_checkpoint(&dir).err().expect("refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("ckpt-6.bin") && msg.contains(cause), "{msg}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_with_a_repeated_source_is_refused() {
        let mut states = converged_states(&[4, 7]);
        states.extend(converged_states(&[4]));
        assert_unloadable("repeated", &states, "source 4 appears twice");
    }

    #[test]
    fn checkpoint_whose_states_disagree_on_alpha_or_epsilon_is_refused() {
        let mut states = converged_states(&[4]);
        let config = dppr_core::PprConfig::new(7, 0.2, 1e-4);
        states.push(PprState::new(config));
        assert_unloadable("epsilon", &states, "state 1 has alpha 0.2 and epsilon 0.0001");
    }

    #[test]
    fn truncated_checkpoint_is_refused() {
        let dir = test_dir("trunc");
        let states = converged_states(&[1]);
        write_checkpoint(&dir, 4, (0, 30), &states).unwrap();
        let path = dir.join("ckpt-4.bin");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = load_latest_checkpoint(&dir).err().expect("a torn checkpoint is not fresh");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("ckpt-4.bin"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }
}

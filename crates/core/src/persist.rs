//! Checkpointing a maintained PPR state.
//!
//! The indexing systems the paper aims to serve (HubPPR [46], distributed
//! exact PPR [18]) keep pre-computed PPR vectors on disk and maintain them
//! incrementally. This module provides the minimal durable format for
//! that: a binary, versioned snapshot of `(config, Ps, Rs)` that can be
//! written after any converged batch and re-attached to a graph later —
//! useful for restart, for shipping states between the sequential and
//! parallel engines, and for the serving layer's crash-recovery
//! checkpoints (`dppr-serve`'s durability module stores one snapshot per
//! session in each checkpoint file and pairs it with a `dppr-wal` update
//! log).
//!
//! Format v3, every integer little-endian, every `f64` stored as its bit
//! pattern so the round trip is exact:
//!
//! ```text
//! offset            size     field
//! 0                 14       magic "dppr-state v3\n"
//! 14                4        source   (u32)
//! 18                8        alpha    (f64 bits)
//! 26                8        epsilon  (f64 bits)
//! 34                8        len      (u64)
//! 42                8·len    Ps(0..len) (f64 bits)
//! 42 + 8·len        8·len    Rs(0..len) (f64 bits)
//! 42 + 16·len       4        CRC32 of every byte before it
//! ```
//!
//! [`read_state`] checks the magic, then that the file is exactly as long
//! as `len` says, then the CRC, then the parameters, and allocates the
//! state only after all of them pass: a torn, bit-flipped or lying
//! snapshot is an [`io::ErrorKind::InvalidData`] error, never a panic, an
//! abort or a silently different state. Earlier text formats are refused.

use crate::checksum::crc32;
use crate::config::PprConfig;
use crate::state::PprState;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8] = b"dppr-state v3\n";
/// Bytes before the vectors: the magic, `source` (u32), then the α bits,
/// ε bits and `len` (u64 each).
const HEADER: usize = MAGIC.len() + 4 + 3 * 8;

/// Writes a v3 snapshot of `state` to `w`: the bytes are encoded into one
/// buffer, checksummed, and handed to `w` in a single `write_all`.
pub fn write_state<W: Write>(state: &PprState, mut w: W) -> io::Result<()> {
    let mut buf = Vec::new();
    encode_state(state, &mut buf);
    w.write_all(&buf)?;
    w.flush()
}

/// Appends the v3 snapshot of `state` to `buf`, trailer included — the
/// bytes [`write_state`] writes, for a caller that frames several
/// snapshots in one file through one reused buffer.
pub fn encode_state(state: &PprState, buf: &mut Vec<u8>) {
    let cfg = state.config();
    let start = buf.len();
    buf.reserve(HEADER + 16 * state.len() + 4);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&cfg.source.to_le_bytes());
    for word in [cfg.alpha.to_bits(), cfg.epsilon.to_bits(), state.len() as u64] {
        buf.extend_from_slice(&word.to_le_bytes());
    }
    for x in state.p_atomics().iter().chain(state.r_atomics()) {
        buf.extend_from_slice(&x.load().to_bits().to_le_bytes());
    }
    let crc = crc32(&buf[start..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Reads a v3 snapshot back. The returned state is bit-identical to the
/// one written; anything else — a foreign or older format, a length that
/// disagrees with the header, a checksum mismatch, invalid parameters — is
/// rejected as [`io::ErrorKind::InvalidData`] before the state is
/// allocated.
pub fn read_state<R: Read>(mut r: R) -> io::Result<PprState> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    decode_state(&bytes)
}

/// [`read_state`] over bytes already in memory: `bytes` must be exactly
/// one snapshot, and pass every check `read_state` makes.
pub fn decode_state(bytes: &[u8]) -> io::Result<PprState> {
    if !bytes.starts_with(MAGIC) {
        return Err(bad("not a dppr-state v3 snapshot (bad magic)".into()));
    }
    let header = bytes
        .get(..HEADER)
        .ok_or_else(|| bad(format!("snapshot of {} bytes ends inside its header", bytes.len())))?;
    let len = le_u64(&header[HEADER - 8..]);
    let expected = usize::try_from(len)
        .ok()
        .and_then(|n| n.checked_mul(16))
        .and_then(|n| n.checked_add(HEADER + 4));
    if expected != Some(bytes.len()) {
        return Err(bad(format!(
            "snapshot holds {} bytes, but its header says len {len}",
            bytes.len()
        )));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().expect("a 4-byte trailer"));
    let actual = crc32(body);
    if actual != stored {
        return Err(bad(format!(
            "snapshot checksum mismatch: stored {stored:08x}, computed {actual:08x}"
        )));
    }

    let source = u32::from_le_bytes(header[MAGIC.len()..][..4].try_into().expect("4 bytes"));
    let alpha = f64::from_bits(le_u64(&header[MAGIC.len() + 4..]));
    let epsilon = f64::from_bits(le_u64(&header[MAGIC.len() + 12..]));
    if !(alpha > 0.0 && alpha < 1.0 && epsilon > 0.0) {
        return Err(bad(format!("invalid parameters α={alpha} ε={epsilon}")));
    }
    // Every state materializes its source, so a genuine snapshot stores
    // it; this also bounds `PprState::new`'s allocation by the file size.
    let len = len as usize; // fits: the length check above converted it
    if source as usize >= len {
        return Err(bad(format!("source {source} lies outside the {len} stored rows")));
    }
    let mut state = PprState::new(PprConfig::new(source, alpha, epsilon));
    state.ensure_len(len);
    let (p, r) = body[HEADER..].split_at(8 * len);
    for (slots, words) in [(state.p_atomics(), p), (state.r_atomics(), r)] {
        for (slot, word) in slots.iter().zip(words.chunks_exact(8)) {
            slot.store(f64::from_bits(le_u64(word)));
        }
    }
    Ok(state)
}

/// Writes a snapshot to a file, crash-safely: the bytes go to a sibling
/// `<name>.tmp` file which is fsynced and atomically renamed into place,
/// so a crash mid-write leaves either the old snapshot or the new one —
/// never a truncated hybrid.
pub fn save_state<P: AsRef<Path>>(state: &PprState, path: P) -> io::Result<()> {
    let path = path.as_ref();
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| bad(format!("not a file path: {}", path.display())))?
        .to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let result = (|| {
        let file = std::fs::File::create(&tmp)?;
        write_state(state, &file)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Reads a snapshot from a file.
pub fn load_state<P: AsRef<Path>>(path: P) -> io::Result<PprState> {
    read_state(std::fs::File::open(path)?)
}

/// Order-sensitive fingerprint of a state's exact contents: source,
/// length, and every `(p, r)` bit pattern, mixed position-dependently.
/// Two states compare equal under this iff they are bit-identical — the
/// crash-recovery harness uses it to prove a recovered state matches the
/// never-crashed replay.
pub fn state_fingerprint(state: &PprState) -> u64 {
    #[inline]
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let cfg = state.config();
    let mut h = mix(cfg.source as u64 ^ ((state.len() as u64) << 32));
    h ^= mix(cfg.alpha.to_bits()).rotate_left(17);
    h ^= mix(cfg.epsilon.to_bits()).rotate_left(31);
    for v in 0..state.len() as u32 {
        let lane = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = h
            .wrapping_add(mix(state.p(v).to_bits() ^ lane))
            .wrapping_add(mix(state.r(v).to_bits() ^ lane.rotate_left(32)).rotate_left(1));
    }
    h
}

/// The little-endian `u64` at the start of `b`.
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("an 8-byte field"))
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counters;
    use crate::invariant::max_invariant_violation;
    use crate::invariant::{absorb_batch, Repairs};
    use crate::par::{parallel_local_push, ParPushBuffers};
    use crate::variants::PushVariant;
    use dppr_graph::generators::erdos_renyi;
    use dppr_graph::{DynamicGraph, EdgeUpdate};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn converged_pair() -> (DynamicGraph, PprState) {
        let cfg = PprConfig::new(0, 0.15, 1e-4);
        let mut st = PprState::new(cfg);
        let mut g = DynamicGraph::new();
        let c = Counters::new();
        let batch: Vec<EdgeUpdate> =
            erdos_renyi(40, 300, 5).into_iter().map(|(u, v)| EdgeUpdate::insert(u, v)).collect();
        let mut r = Repairs::default();
        let seeds = absorb_batch(&mut g, &mut st, &batch, &c, &mut r);
        let mut bufs = ParPushBuffers::new();
        parallel_local_push(&g, &st, PushVariant::OPT, seeds, &c, &mut bufs);
        (g, st)
    }

    fn encoded(st: &PprState) -> Vec<u8> {
        let mut buf = Vec::new();
        write_state(st, &mut buf).unwrap();
        buf
    }

    /// Recomputes the CRC trailer after a test edited the covered bytes,
    /// so only the checks behind the checksum can catch the edit.
    fn reseal(bytes: &mut [u8]) {
        let at = bytes.len() - 4;
        let crc = crc32(&bytes[..at]);
        bytes[at..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let (_, st) = converged_pair();
        let back = read_state(&encoded(&st)[..]).unwrap();
        assert_eq!(back.config(), st.config());
        assert_eq!(back.len(), st.len());
        assert_eq!(back.estimates(), st.estimates());
        assert_eq!(back.residuals(), st.residuals());
        assert_eq!(state_fingerprint(&back), state_fingerprint(&st));
    }

    #[test]
    fn v3_has_verified_trailer() {
        let (_, st) = converged_pair();
        let buf = encoded(&st);
        assert!(buf.starts_with(b"dppr-state v3\n"));
        assert_eq!(buf.len(), HEADER + 16 * st.len() + 4);
        let (body, trailer) = buf.split_at(buf.len() - 4);
        assert_eq!(trailer, crc32(body).to_le_bytes());
        // The vectors sit in the body as plain little-endian bit patterns.
        let p1 = &buf[HEADER + 8..HEADER + 16];
        assert_eq!(p1, st.p(1).to_bits().to_le_bytes());
        // Any single corrupted byte in the covered range must be caught.
        let mut torn = buf.clone();
        let mid = torn.len() / 2;
        torn[mid] ^= 0x20;
        let err = read_state(&torn[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn empty_state_roundtrips() {
        // The emptiest state that can exist: a fresh source with no pushes
        // ever applied (PprState::new always materializes source+1 rows).
        let st = PprState::new(PprConfig::new(0, 0.3, 1e-3));
        assert_eq!(st.len(), 1);
        let back = read_state(&encoded(&st)[..]).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.config(), st.config());
        assert_eq!(state_fingerprint(&back), state_fingerprint(&st));
    }

    #[test]
    fn truncated_header_is_clean_error() {
        // Every prefix of a valid snapshot that cuts into the header must
        // fail with InvalidData, never panic.
        let (_, st) = converged_pair();
        let buf = encoded(&st);
        for cut in [0, 5, MAGIC.len() - 1, MAGIC.len(), HEADER - 1, HEADER] {
            let err = read_state(&buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
    }

    #[test]
    fn len_field_body_mismatch_is_clean_error() {
        // A header whose `len` disagrees with the body, under a *valid*
        // checksum, is refused by the length check before anything is
        // allocated for it (`u64::MAX` rows would abort the process).
        let (_, st) = converged_pair();
        let clean = encoded(&st);
        let len = st.len() as u64;
        for lie in [len + 1, len - 1, u64::MAX] {
            let mut buf = clean.clone();
            buf[HEADER - 8..HEADER].copy_from_slice(&lie.to_le_bytes());
            reseal(&mut buf);
            let err = read_state(&buf[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "len {lie}");
            assert!(err.to_string().contains("header says len"), "{err}");
        }
        // A sealed header naming a source outside the rows, or a NaN ε,
        // is refused by the parameter checks.
        let mut far_source = clean.clone();
        far_source[MAGIC.len()..][..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut nan_epsilon = clean.clone();
        nan_epsilon[MAGIC.len() + 12..][..8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        for mut buf in [far_source, nan_epsilon] {
            reseal(&mut buf);
            let err = read_state(&buf[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
    }

    #[test]
    fn hostile_bytes_give_an_error_or_the_same_state() {
        // Seeded mutations of a small snapshot: every truncation, then
        // random byte flips confined to the header, the body and the
        // trailer in turn. Each must be a clean InvalidData or load the
        // bit-identical state (flips that cancel out).
        let (_, st) = converged_pair();
        let clean = encoded(&st);
        let want = state_fingerprint(&st);
        let check = |bytes: &[u8], what: &dyn Fn() -> String| match read_state(bytes) {
            Ok(back) => assert_eq!(state_fingerprint(&back), want, "{} loaded", what()),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{}: {e}", what()),
        };
        for cut in 0..clean.len() {
            check(&clean[..cut], &|| format!("truncation to {cut}"));
        }
        let mut longer = clean.clone();
        longer.push(0);
        check(&longer, &|| "one appended byte".into());

        let mut rng = SmallRng::seed_from_u64(0xBAD_B17E);
        let end = clean.len();
        let regions = [("header", 0, HEADER), ("body", HEADER, end - 4), ("trailer", end - 4, end)];
        for (region, lo, hi) in regions {
            for case in 0..300 {
                let mut m = clean.clone();
                for _ in 0..rng.gen_range(1..=4) {
                    m[rng.gen_range(lo..hi)] ^= rng.gen_range(1..=255u8);
                }
                check(&m, &|| format!("{region} flip case {case}"));
            }
        }
    }

    #[test]
    fn restored_state_resumes_maintenance() {
        let (mut g, st) = converged_pair();
        let mut resumed = read_state(&encoded(&st)[..]).unwrap();
        // Keep updating through the resumed state.
        let c = Counters::new();
        let batch: Vec<EdgeUpdate> =
            erdos_renyi(40, 60, 77).into_iter().map(|(u, v)| EdgeUpdate::insert(u, v)).collect();
        let mut r = Repairs::default();
        let seeds = absorb_batch(&mut g, &mut resumed, &batch, &c, &mut r);
        let mut bufs = ParPushBuffers::new();
        parallel_local_push(&g, &resumed, PushVariant::OPT, seeds, &c, &mut bufs);
        assert!(resumed.converged());
        assert!(max_invariant_violation(&g, &resumed) < 1e-9);
    }

    #[test]
    fn file_roundtrip() {
        let (_, st) = converged_pair();
        let dir = std::env::temp_dir().join("dppr_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        save_state(&st, &path).unwrap();
        let back = load_state(&path).unwrap();
        assert_eq!(back.estimates(), st.estimates());
        assert_eq!(state_fingerprint(&back), state_fingerprint(&st));
        // The staging file was renamed away, not left behind.
        assert!(!dir.join("state.bin.tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_overwrites_atomically_and_truncation_is_a_clean_error() {
        let (_, st) = converged_pair();
        let dir = std::env::temp_dir().join("dppr_persist_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        // Round-trip over an existing file (the rename overwrites).
        save_state(&st, &path).unwrap();
        save_state(&st, &path).unwrap();
        let back = load_state(&path).unwrap();
        assert_eq!(back.estimates(), st.estimates());
        assert_eq!(back.residuals(), st.residuals());
        // A torn file — what a non-atomic writer could leave after a crash
        // — must come back as io::ErrorKind::InvalidData, not a panic.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = load_state(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // A directory path is a clean error too.
        assert!(save_state(&st, dir.join("..")).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_corrupt_input() {
        assert!(read_state(&b"nonsense"[..]).is_err());
        assert!(read_state(&[0xFF, 0xFE, b'\n'][..]).is_err());
        // Truncated vectors.
        let (_, st) = converged_pair();
        let mut buf = encoded(&st);
        buf.truncate(buf.len() / 2);
        assert!(read_state(&buf[..]).is_err());
        // Special values survive, NaN payload bits included.
        let nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        let cfg = PprConfig::new(0, 0.5, 0.1);
        let mut tiny = PprState::new(cfg);
        tiny.ensure_len(3);
        tiny.set_p(1, f64::MIN_POSITIVE);
        tiny.set_r(1, -0.0);
        tiny.set_r(2, nan);
        let back = read_state(&encoded(&tiny)[..]).unwrap();
        assert_eq!(back.p(1).to_bits(), f64::MIN_POSITIVE.to_bits());
        assert_eq!(back.r(1).to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.r(2).to_bits(), nan.to_bits());
    }

    #[test]
    fn fingerprint_is_content_sensitive() {
        let mut a = PprState::new(PprConfig::new(0, 0.15, 1e-4));
        a.ensure_len(3);
        a.set_p(1, 0.25);
        let mut same = PprState::new(PprConfig::new(0, 0.15, 1e-4));
        same.ensure_len(3);
        same.set_p(1, 0.25);
        assert_eq!(state_fingerprint(&a), state_fingerprint(&same));
        // Moving the value to another vertex, changing it, or changing the
        // config all change the fingerprint.
        let moved = same.clone_values();
        moved.set_p(1, 0.0);
        moved.set_p(2, 0.25);
        assert_ne!(state_fingerprint(&a), state_fingerprint(&moved));
        let tweaked = a.clone_values();
        tweaked.set_r(0, 1e-300);
        assert_ne!(state_fingerprint(&a), state_fingerprint(&tweaked));
        let mut other_cfg = PprState::new(PprConfig::new(1, 0.15, 1e-4));
        other_cfg.ensure_len(3);
        other_cfg.set_p(1, 0.25);
        assert_ne!(state_fingerprint(&a), state_fingerprint(&other_cfg));
    }
}

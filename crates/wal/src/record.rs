//! The logical records carried by the log.
//!
//! Two record kinds are decoded; the serving write loop writes only the
//! first:
//!
//! * [`WalRecord::Batch`] — one window slide: the epoch it produces when
//!   applied, the post-slide window position in *logical stream edges*
//!   (so recovery can fast-forward the sliding window), and the expanded
//!   arc updates themselves (inserts then deletes, exactly as handed to
//!   the engine).
//! * [`WalRecord::Checkpoint`] — written by older builds after each
//!   durable checkpoint; decoded and skipped. Retention now takes the
//!   checkpoint epoch from the caller, so nothing needs the marker, but
//!   logs that hold one must still open.
//!
//! Encoding is little-endian and self-describing enough to reject
//! garbage: a one-byte tag, fixed-width fields, and an update count that
//! must exactly match the remaining payload length.

use dppr_graph::{EdgeOp, EdgeUpdate};

/// Tag byte of a [`WalRecord::Batch`].
const TAG_BATCH: u8 = 1;
/// Tag byte of a [`WalRecord::Checkpoint`].
const TAG_CHECKPOINT: u8 = 2;

/// Bytes per encoded update: op (1) + src (4) + dst (4).
const UPDATE_BYTES: usize = 9;

/// One durable log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// One applied window slide.
    Batch {
        /// The epoch published after applying this batch (contiguous:
        /// each batch record's epoch is its predecessor's plus one).
        epoch: u64,
        /// Window start (logical stream position) *after* the slide.
        window_start: u64,
        /// Window end (logical stream position) *after* the slide.
        window_end: u64,
        /// The expanded arc updates, in application order.
        updates: Vec<EdgeUpdate>,
    },
    /// Written by older builds; decoded and skipped. It marked the
    /// checkpoint for `epoch` as durable.
    Checkpoint {
        /// Epoch the durable checkpoint captured.
        epoch: u64,
    },
}

/// A structural decoding failure (bad tag, short payload, trailing
/// bytes). Distinct from a CRC failure: the frame passed its checksum but
/// does not parse, which recovery treats the same way — an invalid tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wal record decode: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

impl WalRecord {
    /// The epoch this record talks about.
    pub fn epoch(&self) -> u64 {
        match *self {
            WalRecord::Batch { epoch, .. } | WalRecord::Checkpoint { epoch } => epoch,
        }
    }

    /// Serializes the record payload (framing is the segment layer's job).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WalRecord::Batch { epoch, window_start, window_end, updates } => {
                let mut out = Vec::with_capacity(1 + 8 * 3 + 4 + UPDATE_BYTES * updates.len());
                out.push(TAG_BATCH);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&window_start.to_le_bytes());
                out.extend_from_slice(&window_end.to_le_bytes());
                out.extend_from_slice(&(updates.len() as u32).to_le_bytes());
                for u in updates {
                    out.push(match u.op {
                        EdgeOp::Insert => 0,
                        EdgeOp::Delete => 1,
                    });
                    out.extend_from_slice(&u.src.to_le_bytes());
                    out.extend_from_slice(&u.dst.to_le_bytes());
                }
                out
            }
            WalRecord::Checkpoint { epoch } => {
                let mut out = Vec::with_capacity(1 + 8);
                out.push(TAG_CHECKPOINT);
                out.extend_from_slice(&epoch.to_le_bytes());
                out
            }
        }
    }

    /// Deserializes one record payload. The payload must be consumed
    /// exactly — trailing bytes are an error, so a frame length that lies
    /// about its content is caught even when the CRC (computed over the
    /// same lying bytes) matches.
    pub fn decode(buf: &[u8]) -> Result<WalRecord, DecodeError> {
        let mut r = Reader { buf, at: 0 };
        let tag = r.u8()?;
        let rec = match tag {
            TAG_BATCH => {
                let epoch = r.u64()?;
                let window_start = r.u64()?;
                let window_end = r.u64()?;
                if window_start > window_end {
                    return Err(DecodeError(format!(
                        "window start {window_start} past end {window_end}"
                    )));
                }
                let count = r.u32()? as usize;
                if r.remaining() != count * UPDATE_BYTES {
                    return Err(DecodeError(format!(
                        "update count {count} disagrees with {} payload bytes",
                        r.remaining()
                    )));
                }
                let mut updates = Vec::with_capacity(count);
                for _ in 0..count {
                    let op = match r.u8()? {
                        0 => EdgeOp::Insert,
                        1 => EdgeOp::Delete,
                        other => return Err(DecodeError(format!("bad op byte {other}"))),
                    };
                    let src = r.u32()?;
                    let dst = r.u32()?;
                    updates.push(EdgeUpdate { src, dst, op });
                }
                WalRecord::Batch { epoch, window_start, window_end, updates }
            }
            TAG_CHECKPOINT => WalRecord::Checkpoint { epoch: r.u64()? },
            other => return Err(DecodeError(format!("unknown tag {other}"))),
        };
        if r.remaining() != 0 {
            return Err(DecodeError(format!("{} trailing bytes", r.remaining())));
        }
        Ok(rec)
    }
}

/// Cursor over an encoded payload.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        if self.remaining() < N {
            return Err(DecodeError(format!("need {N} bytes, have {}", self.remaining())));
        }
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[self.at..self.at + N]);
        self.at += N;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(epoch: u64) -> WalRecord {
        WalRecord::Batch {
            epoch,
            window_start: 10 * epoch,
            window_end: 10 * epoch + 100,
            updates: vec![
                EdgeUpdate::insert(1, 2),
                EdgeUpdate::insert(u32::MAX, 0),
                EdgeUpdate::delete(3, 4),
            ],
        }
    }

    #[test]
    fn roundtrip_both_kinds() {
        for rec in [batch(7), WalRecord::Checkpoint { epoch: 42 }] {
            let bytes = rec.encode();
            assert_eq!(WalRecord::decode(&bytes).unwrap(), rec);
        }
        // Empty batches (a slide where nothing applied) are legal.
        let empty = WalRecord::Batch { epoch: 1, window_start: 0, window_end: 5, updates: vec![] };
        assert_eq!(WalRecord::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn rejects_structural_garbage() {
        assert!(WalRecord::decode(&[]).is_err());
        assert!(WalRecord::decode(&[99]).is_err()); // unknown tag
        let mut bytes = batch(1).encode();
        bytes.pop(); // short payload
        assert!(WalRecord::decode(&bytes).is_err());
        let mut bytes = batch(1).encode();
        bytes.push(0); // trailing byte
        assert!(WalRecord::decode(&bytes).is_err());
        // Count field inflated past the payload.
        let mut bytes = batch(1).encode();
        bytes[25] = 200; // count lives after tag + 3×u64
        assert!(WalRecord::decode(&bytes).is_err());
        // Bad op byte.
        let mut bytes = batch(1).encode();
        bytes[29] = 7; // first update's op byte
        assert!(WalRecord::decode(&bytes).is_err());
        // Inverted window.
        let inverted =
            WalRecord::Batch { epoch: 1, window_start: 10, window_end: 3, updates: vec![] };
        assert!(WalRecord::decode(&inverted.encode()).is_err());
    }

    #[test]
    fn epoch_accessor() {
        assert_eq!(batch(9).epoch(), 9);
        assert_eq!(WalRecord::Checkpoint { epoch: 3 }.epoch(), 3);
    }
}

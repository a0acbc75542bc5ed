//! Durable segmented write-ahead log for the dynamic-PPR serving stack.
//!
//! The serving write loop appends every applied slide batch here *before*
//! publishing its epoch, so that after a crash the engine state can be
//! reconstructed as: newest durable checkpoint + replay of the log tail.
//! The pieces:
//!
//! * [`record`] — the logical records and their compact binary
//!   encoding: [`WalRecord::Batch`], the one record the serving stack
//!   writes, and [`WalRecord::Checkpoint`], a marker written by older
//!   builds that is still decoded (and skipped by recovery).
//! * [`segment`] — the on-disk frame format (`[len][crc32][payload]`
//!   after an 8-byte magic) and the scanner that stops at the first
//!   invalid byte, making a torn final write recoverable by truncation.
//! * [`log`] — [`Wal`]: segment rotation, the [`FsyncPolicy`] spectrum
//!   (per-batch / interval / off), torn-tail repair on open, and
//!   retention that deletes segments wholly covered by the newest
//!   durable checkpoint (the caller names its epoch; the log itself
//!   holds no record of checkpoints).
//! * [`fault`] — deterministic, env-driven crash injection
//!   (`DPPR_CRASH="<site>:<nth>"`) used by the crash-recovery harness to
//!   kill the process mid-append, mid-checkpoint, and mid-rename.
//!
//! Recovery semantics are exactly "prefix durability": the log never
//! lies about what was applied, it only forgets an un-synced suffix. The
//! replay path tolerates a duplicated tail (epochs at or below the
//! recovered state's epoch are skipped) and treats any epoch gap as
//! corruption.

pub mod fault;
pub mod log;
pub mod record;
pub mod segment;

pub use fault::{crash_hit, die, maybe_crash, CRASH_ENV, CRASH_EXIT_CODE};
pub use log::{FsyncPolicy, Wal, WalOptions, WalStats};
pub use record::WalRecord;

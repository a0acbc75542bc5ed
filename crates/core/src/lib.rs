//! Core engines for dynamic Personalized PageRank maintenance.
//!
//! This crate implements the algorithmic content of Guo, Li, Sha & Tan,
//! *Parallel Personalized PageRank on Dynamic Graphs* (PVLDB 11(1), 2017):
//!
//! * [`invariant`] — `RestoreInvariant` (Algorithm 1) and the Eq. 2
//!   invariant checker.
//! * [`seq`] — `SequentialLocalPush` (Algorithm 2), both the practical
//!   worklist form and the lock-step iteration form used by Lemma 4.
//! * [`par`] — `ParallelLocalPush` (Algorithm 3) and `OptParallelPush`
//!   (Algorithm 4), covering the full 2×2 optimization matrix of Table 3
//!   ([`PushVariant`]): eager propagation × local duplicate detection.
//! * [`engine`] — the [`DynamicPprEngine`] trait plus the paper's engine
//!   line-up: `CPU-Base` / `CPU-Seq` ([`SeqEngine`]) and `CPU-MT`
//!   ([`ParallelEngine`]).
//! * [`fanout`] — the one fork-join primitive everything parallel in the
//!   workspace runs on: contiguous ranges over scoped threads, results
//!   merged in range order, a direct call when there is one range.
//! * [`atomic`] — the atomic `f64` fetch-add returning the *before-value*,
//!   the primitive §4.2's local duplicate detection is built on.
//! * [`counters`] — software profiling counters (push operations, edge
//!   traversals, CAS retries, frontier statistics) substituting for the
//!   paper's nvprof/PAPI hardware metrics (Table 4).
//! * [`ground_truth`] — a Gauss–Jacobi solver for the exact fix-point of
//!   Eq. 2, used to validate the ε-approximation guarantee.
//! * [`forward`] — the classic forward (source-side) local push and a
//!   conductance sweep cut, supporting the application examples.
//! * [`multi`] — maintenance of many PPR vectors side by side (the
//!   "multiple personalized unit vectors" building block of §2.1).
//!
//! # Semantics
//!
//! Following the paper's equations exactly, a [`PprState`] for "source" `s`
//! maintains, for every vertex `v`, an estimate `Ps(v)` of the probability
//! that an α-terminating random walk **started at `v`** stops at `s` (the
//! contribution / reverse PPR vector of target `s`), with the invariant
//!
//! ```text
//! Ps(v) + α·Rs(v) = Σ_{x ∈ Nout(v)} (1−α)·Ps(x)/dout(v) + α·1{v=s}
//! ```
//!
//! holding at all times and `|π(v) − Ps(v)| ≤ ε` for all `v` whenever no
//! residual exceeds ε in absolute value. This is the quantity the paper's
//! Algorithms 1–4 compute: a push at `u` hands `u`'s residual to `Nin(u)`,
//! each share scaled by the receiver's `1/dout`.

pub mod atomic;
pub mod checksum;
pub mod config;
pub mod counters;
pub mod engine;
pub mod fanout;
pub mod forward;
pub mod ground_truth;
pub mod invariant;
pub mod multi;
pub mod par;
pub mod persist;
pub mod queries;
pub mod seq;
pub mod state;
pub mod variants;

pub use atomic::AtomicF64;
pub use checksum::{crc32, Crc32};
pub use config::{Phase, PprConfig};
pub use counters::{CounterSnapshot, Counters};
pub use engine::{BatchStats, DynamicPprEngine, ParallelEngine, SeqEngine, UpdateMode};
pub use ground_truth::{exact_ppr, exact_ppr_seq};
pub use invariant::{apply_update, max_invariant_violation, restore_invariant};
pub use multi::MultiSourcePpr;
pub use par::PushOpts;
pub use state::PprState;
pub use variants::PushVariant;

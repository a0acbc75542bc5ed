//! Dynamic directed graph substrate for the `dppr` workspace.
//!
//! This crate provides everything the Personalized-PageRank engines need from
//! the graph layer of Guo et al., *Parallel Personalized PageRank on Dynamic
//! Graphs* (VLDB 2017):
//!
//! * [`DynamicGraph`] — an in-memory directed graph with both out- and
//!   in-adjacency, supporting edge insertion and deletion (the `ΔEt` update
//!   model of §2.2 of the paper).
//! * [`generators`] — seeded Erdős–Rényi, Barabási–Albert and R-MAT
//!   generators used as laptop-scale stand-ins for the SNAP datasets of the
//!   paper's §5.1 (the table in [`presets`] maps each to its stand-in).
//! * [`stream`] — timestamped edge streams and the sliding-window update
//!   model used throughout the paper's evaluation.
//! * [`io`] — SNAP-style edge-list text I/O.
//! * [`presets`] — the five named synthetic datasets mirroring the paper's
//!   evaluation graphs.

pub mod dynamic;
pub mod generators;
pub mod io;
pub mod presets;
pub mod stats;
pub mod stream;
pub mod types;

pub use dynamic::{DynamicGraph, SubstrateStats};
pub use stream::{GraphStream, SlidingWindow};
pub use types::{EdgeOp, EdgeUpdate, VertexId};

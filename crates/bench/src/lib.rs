//! The paper's evaluation, reproduced: the `figures` binary and the
//! `crash_recovery` harness.
//!
//! [`figures`] holds one module per figure, table, theorem check or
//! ablation of the paper's §3–§5 and the table that registers them
//! (`cargo run --release --bin figures -- list`); [`setup`] is the
//! workload and engine construction they share. Output is TSV on stdout so
//! results can be piped into any plotting tool.

pub mod figures;
pub mod setup;

pub use setup::{median_of, ms, run_engine, EngineKind, ExperimentScale, Workload};
